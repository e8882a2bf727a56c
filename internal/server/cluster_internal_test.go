package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cswap/client"
	"cswap/internal/compress"
	"cswap/internal/placement"
	"cswap/internal/wire"
)

// failAfter yields its bytes and then fails the test if read again: a body
// the router must not touch past what it peeked.
type failAfter struct {
	t *testing.T
	r io.Reader
}

func (f *failAfter) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n == 0 && err == io.EOF {
		f.t.Error("router read past the bytes it needs to refuse the frame")
		return 0, errors.New("read past the peek")
	}
	return n, nil
}

// TestRouterRefusesInHeader: a frame with a bad magic, or a length past the
// cap, is refused from its first PeekLen bytes — the body behind them is
// never read, let alone buffered.
func TestRouterRefusesInHeader(t *testing.T) {
	c, err := NewCluster(WithShards(2), WithDeviceCapacity(1<<20), WithHostCapacity(1<<20), WithMaxPayload(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big, err := wire.Encode(&wire.Frame{Type: wire.TypeRegister, Name: "big", Data: make([]float32, 1<<15)})
	if err != nil {
		t.Fatal(err)
	}
	badMagic := append([]byte("XSWP"), big[4:]...)
	for what, frame := range map[string][]byte{"oversize": big, "bad magic": badMagic} {
		body := &failAfter{t, bytes.NewReader(frame[:wire.PeekLen])}
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/register", body))
		if rec.Code != http.StatusBadRequest || rec.Header().Get(ErrorHeader) != CodeBadFrame {
			t.Errorf("%s frame: status %d (%s), want 400 bad-frame", what, rec.Code, rec.Header().Get(ErrorHeader))
		}
	}
}

// TestRouterFallbackReplaysStreamedBody: while a drain is live, a request
// for a name the drain has not moved yet is answered 404 by the ring owner —
// after the owner has consumed the streamed body — and must be replayed,
// body and all, to the draining shard. The payload here is far longer than
// the router's peek, so the replay is the teed copy, not the peeked bytes;
// the response then streams back through the router from the pool's memory.
func TestRouterFallbackReplaysStreamedBody(t *testing.T) {
	c, err := NewCluster(WithShards(2), WithDeviceCapacity(16<<20), WithHostCapacity(16<<20), WithRetryAfter(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(c.Handler())
	defer func() {
		hs.Close()
		_ = c.Close()
	}()
	const home, blockElems, numBlocks = 0, 512, 64 // 128 KiB of payload
	var pool string
	for i := 0; ; i++ {
		pool = fmt.Sprintf("kv-%d", i)
		if owner, _ := c.ring.Owner(placement.Key(DefaultTenant, pool)); owner == home {
			break
		}
	}
	cl, ctx := client.NewCluster(hs.URL), context.Background()
	if err := cl.RegisterPool(ctx, pool, blockElems, numBlocks); err != nil {
		t.Fatal(err)
	}
	// Shard 0 starts draining: the ring now names shard 1 for the pool, which
	// still lives on shard 0.
	c.mu.Lock()
	c.states[home] = placement.StateDraining
	c.version++
	c.rebuildRingLocked()
	c.mu.Unlock()

	ids, data := make([]int, numBlocks), make([]float32, blockElems*numBlocks)
	for i := range ids {
		ids[i] = i
	}
	for i := range data {
		data[i] = float32(i%97) - 40
	}
	before := c.reg.Snapshot()
	if err := cl.WriteBlocks(ctx, pool, ids, data); err != nil {
		t.Fatalf("batch-write through the drain fallback: %v", err)
	}
	if err := cl.SwapOutBlocks(ctx, pool, ids, client.WithCodec(compress.ZVC)); err != nil {
		t.Fatal(err)
	}
	got, err := cl.SwapInBlocks(ctx, pool, ids)
	if err != nil || !wire.Equal(&wire.Frame{Data: got.Data}, &wire.Frame{Data: data}) {
		t.Fatalf("batch-swap-in through the drain fallback: %v", err)
	}
	// The router counts a fallback when the draining shard's handler returns,
	// which can trail the response the client already holds: wait for it.
	was, _ := before.Counter("cluster_drain_fallback_total")
	fallbacks := func() float64 {
		now, _ := c.reg.Snapshot().Counter("cluster_drain_fallback_total")
		return now - was
	}
	for deadline := time.Now().Add(2 * time.Second); fallbacks() < 3 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := fallbacks(); got != 3 {
		t.Errorf("fallbacks counted: %v, want 3", got)
	}
	// A name nobody holds still answers the owner's 404, held and released.
	if _, err := cl.SwapIn(ctx, "nobody"); !errors.Is(err, client.ErrNotFound) {
		t.Errorf("unknown name during a drain: %v, want ErrNotFound", err)
	}
	// A register goes to the ring owner, unbuffered, drain or no drain.
	if err := cl.Register(ctx, "fresh", data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.shards[1].session(DefaultTenant).lookup("fresh"); err != nil {
		t.Errorf("register during a drain did not land on the ring owner: %v", err)
	}
}
