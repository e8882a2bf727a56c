package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"cswap/client"
	"cswap/internal/compress"
	"cswap/internal/wire"
)

// Frames recorded from the commit before the streaming data path (its
// wire.Encode, hex): the requests a HEAD client sends and the responses a
// HEAD daemon answers for one tensor and one pool round trip.
const (
	headData        = "000000080000c03f000000800000c07f00000000000010c0ffff7f7f0000000000000000"
	headRegister    = "43535750010100000000002cea0783e50006636f6d706174" + headData
	headSwapOut     = "43535750010200000000000a40cc27de0006636f6d7061740101"
	headSwapIn      = "43535750010300000000000825c3df760006636f6d706174"
	headTensorData  = "43535750010600000000002cea0783e50006636f6d706174" + headData
	headAck         = "43535750010700000000000825c3df760006636f6d706174"
	headRegPool     = "43535750010800000000000de1bd16e200036b76630000000200000008"
	headBatchWrite  = "43535750010c00000000002ebdf09f7900036b76630000000202010205020000803f0000004000004040000080400000a0400000c0400000e04000000041"
	headBatchOut    = "43535750010900000000000ca853b22800036b766301000405010206"
	headBatchIn     = "43535750010a00000000000ac54f195800036b76630406050201"
	headPoolAck     = "4353575001070000000000053dcb92a000036b7663"
	headBatchAnswer = headBatchWrite // a batch-swap-in answers with the batch-data frame the write sent
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHeadWireCompat: a client from before this change talks to the new
// daemon — its recorded request bytes are accepted and the streamed
// responses are byte-identical to what the old daemon answered — and the new
// client, pointed at a daemon that only replays the old responses, sends
// byte-identical requests and restores the same tensor.
func TestHeadWireCompat(t *testing.T) {
	_, url := newInternalServer(t)
	for _, step := range []struct{ path, req, resp string }{
		{"register", headRegister, headAck},
		{"swap-out", headSwapOut, headAck},
		{"swap-in", headSwapIn, headTensorData},
		{"register-pool", headRegPool, headPoolAck},
		{"batch-write", headBatchWrite, headPoolAck},
		{"batch-swap-out", headBatchOut, headPoolAck},
		{"batch-swap-in", headBatchIn, headBatchAnswer},
	} {
		resp, err := http.Post(url+"/v1/"+step.path, "application/octet-stream", bytes.NewReader(unhex(t, step.req)))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || hex.EncodeToString(got) != step.resp {
			t.Fatalf("HEAD client's %s: status %d, body\n  %x\nwant\n  %s", step.path, resp.StatusCode, got, step.resp)
		}
	}

	replies := map[string]string{"register": headAck, "swap-out": headAck, "swap-in": headTensorData}
	want := map[string]string{"register": headRegister, "swap-out": headSwapOut, "swap-in": headSwapIn}
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path := r.URL.Path[len("/v1/"):]
		if got, _ := io.ReadAll(r.Body); hex.EncodeToString(got) != want[path] {
			t.Errorf("new client's %s request\n  %x\nwant the HEAD client's\n  %s", path, got, want[path])
		}
		_, _ = w.Write(unhex(t, replies[path]))
	}))
	defer old.Close()
	c, ctx := client.New(old.URL), context.Background()
	data := []float32{1.5, float32(math.Copysign(0, -1)), float32(math.NaN()), 0, -2.25, math.MaxFloat32, 0, 0}
	if err := c.Register(ctx, "compat", data); err != nil {
		t.Fatal(err)
	}
	if err := c.SwapOut(ctx, "compat", client.WithCodec(client.ZVC)); err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, len(data))
	if err := c.SwapInInto(ctx, "compat", dst); err != nil {
		t.Fatal(err)
	}
	if !wire.Equal(&wire.Frame{Data: dst}, &wire.Frame{Data: data}) {
		t.Errorf("restored from the HEAD daemon's bytes: %v, want %v", dst, data)
	}
}

// stalledSwapIn sends a swap-in for name over a raw connection whose receive
// buffer is as small as the kernel allows, reads the first bytes of the
// response and then stops reading, holding the connection open.
func stalledSwapIn(t *testing.T, url, name string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", url[len("http://"):])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.(*net.TCPConn).SetReadBuffer(4096)
	req, err := wire.Encode(&wire.Frame{Type: wire.TypeSwapIn, Name: name})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /v1/swap-in HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s", len(req), req)
	if _, err := io.ReadFull(conn, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestStalledReaderFreesEntry: the entry lock is held across the response
// write, so a client that stops reading mid-response must lose the
// connection at the write deadline, not pin the tensor: the next operation
// on the name goes through within the bound.
func TestStalledReaderFreesEntry(t *testing.T) {
	s, err := NewServer(WithDeviceCapacity(64<<20), WithHostCapacity(64<<20), WithRetryAfter(time.Millisecond),
		func(c *config) { c.writeGrace = 200 * time.Millisecond })
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewUnstartedServer(s.Handler())
	// Small socket buffers on both ends, so a few MiB stall the writer.
	hs.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			_ = c.(*net.TCPConn).SetWriteBuffer(4096)
		}
	}
	hs.Start()
	defer func() {
		hs.CloseClientConnections()
		hs.Close()
		_ = s.Close()
	}()

	c, ctx := client.New(hs.URL, client.WithRetry(0, 0)), context.Background()
	data := make([]float32, 256<<10) // 1 MiB: past both socket buffers; deadline 0.2 s + 1 s at the floor rate
	for i := range data {
		data[i] = float32(i)
	}
	if err := c.Register(ctx, "pinned", data); err != nil {
		t.Fatal(err)
	}
	if err := c.SwapOut(ctx, "pinned", client.WithRaw()); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	stalledSwapIn(t, hs.URL, "pinned")
	if err := c.SwapOut(ctx, "pinned"); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("swap-out while the stalled response holds the entry: %v, want busy", err)
	}
	bound := 200*time.Millisecond + time.Second + 5*time.Second
	for {
		err := c.SwapOut(ctx, "pinned", client.WithRaw())
		if err == nil {
			break
		}
		if !errors.Is(err, client.ErrBusy) {
			t.Fatalf("swap-out after the stall: %v", err)
		}
		if time.Since(start) > bound {
			t.Fatalf("entry still pinned %v after the reader stalled", time.Since(start))
		}
		time.Sleep(50 * time.Millisecond)
	}
	got, err := c.SwapIn(ctx, "pinned")
	if err != nil || !wire.Equal(&wire.Frame{Data: got}, &wire.Frame{Data: data}) {
		t.Fatalf("swap-in after the stalled reader was cut off: %v", err)
	}
}

// lastByteStall is a ResponseWriter that stalls inside the Write that
// delivers a response's last byte: the moment a client has read the whole
// response while the handler that wrote it has not yet returned.
type lastByteStall struct {
	h         http.Header
	got       int
	delivered chan struct{}
	stall     time.Duration
}

func (w *lastByteStall) Header() http.Header { return w.h }
func (w *lastByteStall) WriteHeader(int)     {}
func (w *lastByteStall) Write(b []byte) (int, error) {
	w.got += len(b)
	if strconv.Itoa(w.got) == w.h.Get("Content-Length") {
		close(w.delivered)
		time.Sleep(w.stall)
	}
	return len(b), nil
}

// TestNextRequestWaitsForResponseWrite: a swap-in answers from the
// tensor's memory under its entry lock. The caller that has read the whole
// answer sends its next operation on the tensor while the write has not
// returned; that operation waits for the write and goes through, where it
// used to be answered 409 with a Retry-After of a second.
func TestNextRequestWaitsForResponseWrite(t *testing.T) {
	s, url := newInternalServer(t, WithRetryAfter(time.Second))
	c, ctx := client.New(url, client.WithRetry(0, 0)), context.Background()
	data := make([]float32, 64<<10)
	for i := range data {
		data[i] = float32(i % 7)
	}
	if err := c.Register(ctx, "t", data); err != nil {
		t.Fatal(err)
	}
	if err := c.SwapOut(ctx, "t", client.WithRaw()); err != nil {
		t.Fatal(err)
	}
	request := func(f *wire.Frame) *http.Request {
		body, err := wire.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewRequest(http.MethodPost, "/v1/"+wire.Ops[f.Type].Path, bytes.NewReader(body))
	}
	const stall = 100 * time.Millisecond
	w := &lastByteStall{h: http.Header{}, delivered: make(chan struct{}), stall: stall}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Handler().ServeHTTP(w, request(&wire.Frame{Type: wire.TypeSwapIn, Name: "t"}))
	}()
	<-w.delivered
	start := time.Now()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, request(&wire.Frame{Type: wire.TypeSwapOut, Name: "t"}))
	<-done
	if rec.Code != http.StatusOK {
		t.Fatalf("swap-out sent after the swap-in's last byte: %d %s, want 200", rec.Code, rec.Header().Get(ErrorHeader))
	}
	if waited := time.Since(start); waited > stall+time.Second/2 {
		t.Fatalf("swap-out waited %v for a %v write", waited, stall)
	}
}

// slowBody makes every response-body Read wait, so the server's write runs
// at the reader's pace.
type slowBody struct{ io.ReadCloser }

func (b slowBody) Read(p []byte) (int, error) {
	time.Sleep(200 * time.Microsecond)
	return b.ReadCloser.Read(p[:min(len(p), 64<<10)])
}

type slowTransport struct{ http.RoundTripper }

func (t slowTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.RoundTripper.RoundTrip(r)
	if err == nil {
		resp.Body = slowBody{resp.Body}
	}
	return resp, err
}

// TestBatchWriteRacesSlowSwapIn: a batch-swap-in response is served from
// live pool memory while its reader dawdles; a batch-write to the same
// blocks racing it must wait its turn (409, retried), so the reader gets
// the pre-write content whole — never a torn mix — and the write lands
// after. Run under -race this also proves the two never touch the pool
// concurrently.
func TestBatchWriteRacesSlowSwapIn(t *testing.T) {
	const blockElems, numBlocks = 1024, 2048 // 8 MiB
	s, url := newInternalServer(t)
	ctx := context.Background()
	fast := client.New(url, client.WithRetry(1000, time.Millisecond))
	slow := client.New(url, client.WithHTTPClient(&http.Client{Transport: slowTransport{http.DefaultTransport}}))
	ids := make([]int, numBlocks)
	before, after := make([]float32, blockElems*numBlocks), make([]float32, blockElems*numBlocks)
	for i := range ids {
		ids[i] = i
	}
	for i := range before {
		before[i], after[i] = 1, 2
	}
	if err := fast.RegisterPool(ctx, "kv", blockElems, numBlocks); err != nil {
		t.Fatal(err)
	}
	if err := fast.WriteBlocks(ctx, "kv", ids, before); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	var got *client.BlockData
	var gotErr error
	go func() {
		defer wg.Done()
		got, gotErr = slow.SwapInBlocks(ctx, "kv", ids)
	}()
	// Write once the swap-in holds the entry, so it is the write that waits.
	ent, err := s.session(DefaultTenant).lookup("kv")
	if err != nil {
		t.Fatal(err)
	}
	for ent.mu.TryLock() {
		ent.mu.Unlock()
		time.Sleep(50 * time.Microsecond)
	}
	if err := fast.WriteBlocks(ctx, "kv", ids, after); err != nil {
		t.Fatalf("batch-write racing the slow swap-in: %v", err)
	}
	wg.Wait()
	if gotErr != nil {
		t.Fatalf("slow batch-swap-in: %v", gotErr)
	}
	for i, v := range got.Data {
		if v != 1 {
			t.Fatalf("element %d = %v, want the pre-write 1 throughout", i, v)
		}
	}
	now, err := fast.SwapInBlocks(ctx, "kv", ids)
	if err != nil || now.Data[0] != 2 || now.Data[len(now.Data)-1] != 2 {
		t.Fatalf("pool after the write: %v", err)
	}
}

// lockProbe is a ResponseWriter that records, Write by Write, how many bytes
// arrived and whether the entry's lock was free at that moment.
type lockProbe struct {
	h    http.Header
	ent  *entry
	body bytes.Buffer
	free []bool
}

func (p *lockProbe) Header() http.Header { return p.h }
func (p *lockProbe) WriteHeader(int)     {}
func (p *lockProbe) Write(b []byte) (int, error) {
	free := p.ent.mu.TryLock()
	if free {
		p.ent.mu.Unlock()
	}
	p.free = append(p.free, free)
	return p.body.Write(b)
}

// TestScatteredRunsLeaveInOnePiece: a batch-swap-in that covers one run is
// written from pool memory under the entry lock; one that covers scattered
// runs reaches the writer in as many Writes as a single run does — the head
// and one payload, not one per run — with the lock already released, and
// decodes to the same blocks.
func TestScatteredRunsLeaveInOnePiece(t *testing.T) {
	const blockElems, numBlocks = 1024, 64
	s, url := newInternalServer(t)
	c, ctx := client.New(url), context.Background()
	img := make([]float32, blockElems*numBlocks)
	all := make([]int, numBlocks)
	for i := range img {
		img[i] = float32(i)
	}
	for i := range all {
		all[i] = i
	}
	if err := c.RegisterPool(ctx, "kv", blockElems, numBlocks); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBlocks(ctx, "kv", all, img); err != nil {
		t.Fatal(err)
	}
	ent, err := s.session(DefaultTenant).lookup("kv")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		ids      []int
		wantFree bool
	}{
		{"one run", []int{8, 9, 10, 11}, false},
		{"scattered", []int{1, 3, 4, 5, 9, 20, 21, 40, 63}, true},
	} {
		body, err := wire.Encode(&wire.Frame{Type: wire.TypeBatchSwapIn, Name: "kv", BlockIDs: tc.ids})
		if err != nil {
			t.Fatal(err)
		}
		p := &lockProbe{h: http.Header{}, ent: ent}
		s.Handler().ServeHTTP(p, httptest.NewRequest(http.MethodPost, "/v1/batch-swap-in", bytes.NewReader(body)))
		if len(p.free) != 2 {
			t.Errorf("%s: %d Writes, want 2 (head, payload)", tc.name, len(p.free))
		}
		for i, free := range p.free {
			if free != tc.wantFree {
				t.Errorf("%s: entry lock free during Write %d = %v, want %v", tc.name, i, free, tc.wantFree)
			}
		}
		f, err := wire.Read(&p.body, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i, id := range tc.ids {
			if got, want := f.Data[i*blockElems], img[id*blockElems]; got != want {
				t.Errorf("%s: block %d starts with %v, want %v", tc.name, id, got, want)
			}
		}
	}
}

// discard is a ResponseWriter that keeps nothing, so a handler call's
// allocations are the handler's own.
type discard struct{ h http.Header }

func (d discard) Header() http.Header         { return d.h }
func (d discard) WriteHeader(int)             {}
func (d discard) Write(b []byte) (int, error) { return len(b), nil }

// allocated reports the bytes the process allocated while fn ran, the least
// of five runs: a GC between runs empties net/http's buffer pools (and the
// race detector drops pool entries at random), and a refilled 32 KiB copy
// buffer is not the path's own allocation.
func allocated(fn func()) uint64 {
	least := ^uint64(0)
	for run := 0; run < 5; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestSwapInAllocationBudgets: a swap-out + swap-in pair of handler calls
// allocates O(1) in the payload — the response streams from the tensor's
// memory — and a whole SwapOut + SwapInInto round trip over loopback, daemon
// and client together, stays under 64 KiB for an 8 MiB tensor. Under the
// race detector the paths still run but the budgets are not asserted.
func TestSwapInAllocationBudgets(t *testing.T) {
	s, url := newInternalServer(t, WithVerify(false))
	c, ctx := client.New(url), context.Background()
	serve := func(path string, f *wire.Frame) {
		body, err := wire.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/"+path, bytes.NewReader(body))
		s.Handler().ServeHTTP(discard{http.Header{}}, req)
	}
	var handler [2]uint64
	for i, elems := range []int{256 << 10, 2 << 20} { // 1 MiB, 8 MiB
		name := fmt.Sprintf("t%d", elems)
		if err := c.Register(ctx, name, make([]float32, elems)); err != nil {
			t.Fatal(err)
		}
		handler[i] = allocated(func() {
			serve("swap-out", &wire.Frame{Type: wire.TypeSwapOut, Name: name})
			serve("swap-in", &wire.Frame{Type: wire.TypeSwapIn, Name: name})
		})
	}
	if !raceEnabled && (handler[1] > handler[0]+16<<10 || handler[1] > 64<<10) {
		t.Errorf("swap-out + swap-in handlers allocated %d bytes for 1 MiB and %d for 8 MiB: not O(1) in the payload", handler[0], handler[1])
	}

	dst := make([]float32, 2<<20)
	trip := allocated(func() {
		if err := c.SwapOut(ctx, "t2097152", client.WithRaw()); err != nil {
			t.Fatal(err)
		}
		if err := c.SwapInInto(ctx, "t2097152", dst); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("handler pair: %d B for 1 MiB, %d B for 8 MiB; client round trip: %d B", handler[0], handler[1], trip)
	if !raceEnabled && trip > 64<<10 {
		t.Errorf("an 8 MiB SwapInInto round trip allocated %d bytes, budget 64 KiB", trip)
	}
}

// TestSwapOutAllocationBudget: a served Auto swap-out of a sealed tensor —
// admission, codec resolution, the executor's store, the acknowledgement —
// allocates at most swapOutAllocs times, the least of five handler calls
// with the request built beforehand. The tenant's per-request counters are
// resolved once per session: looked up in the registry per request, as
// before, the two cost 7 allocations each, and the call made 41.
func TestSwapOutAllocationBudget(t *testing.T) {
	const swapOutAllocs = 30 // 25–26 at -cpu 1, 2 and 4
	s, url := newInternalServer(t)
	c, ctx := client.New(url), context.Background()
	data := make([]float32, 64<<10)
	for i := range data {
		if i%3 == 0 {
			data[i] = float32(i)
		}
	}
	if err := c.Register(ctx, "t", data); err != nil {
		t.Fatal(err)
	}
	request := func(path string, f *wire.Frame) *http.Request {
		body, err := wire.Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewRequest(http.MethodPost, "/v1/"+path, bytes.NewReader(body))
	}
	least := ^uint64(0)
	for run := 0; run < 6; run++ {
		out := request("swap-out", &wire.Frame{Type: wire.TypeSwapOut, Name: "t", Compress: true, Alg: compress.Auto})
		in := request("swap-in", &wire.Frame{Type: wire.TypeSwapIn, Name: "t"})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s.Handler().ServeHTTP(discard{http.Header{}}, out)
		runtime.ReadMemStats(&after)
		if run > 0 { // the first call resolves the session's cells
			least = min(least, after.Mallocs-before.Mallocs)
		}
		s.Handler().ServeHTTP(discard{http.Header{}}, in)
	}
	t.Logf("served Auto swap-out: %d allocations", least)
	if !raceEnabled && least > swapOutAllocs {
		t.Errorf("served Auto swap-out allocated %d times, budget %d", least, swapOutAllocs)
	}
}
