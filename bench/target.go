package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"time"

	"cswap"
	"cswap/client"
	"cswap/internal/compress"
	"cswap/internal/executor"
	"cswap/internal/server"
	"cswap/internal/tensor"
	"cswap/internal/tier"
	"cswap/internal/wire"
)

// launch is the daemon's default codec geometry; every layer that takes one
// is driven at it.
var launch = compress.Launch{Grid: 128, Block: 64}

// span is one timed call into a layer. alloc is the heap bytes the whole
// process allocated during it, sampled only in the traced pass.
type span struct {
	start time.Time
	dur   time.Duration
	alloc uint64
}

// sampleAllocs turns on per-span allocation sampling (traced pass only: the
// end-to-end windows read runtime.MemStats once around the whole window).
var sampleAllocs bool

// heapAllocs is the cumulative bytes allocated on the heap, read without
// stopping the world.
func heapAllocs() uint64 {
	s := [1]rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s[:])
	return s[0].Value.Uint64()
}

func timed(fn func() error) (span, error) {
	var a0 uint64
	if sampleAllocs {
		a0 = heapAllocs()
	}
	t0 := time.Now()
	err := fn()
	sp := span{start: t0, dur: time.Since(t0)}
	if sampleAllocs {
		sp.alloc = heapAllocs() - a0
	}
	return sp, err
}

// payload is what a swap-in delivered: a whole tensor, or packed blocks.
type payload struct {
	tensor []float32
	blocks *client.BlockData
}

// target is one caller's view of one layer of the stack. The same pass of ops
// is replayed against every target: the loopback client, the server handler,
// the cluster router and the in-process executor. Each target times exactly
// its layer's call; preparing requests and unpacking payloads for the
// bit-exactness check happen outside the span.
type target interface {
	register(ctx context.Context) error
	swapOut(ctx context.Context, o op) (span, error)
	swapIn(ctx context.Context, o op) (span, payload, error)
	// restoreAll makes every block resident again (KV only; untimed).
	restoreAll(ctx context.Context) error
	free(ctx context.Context) error
}

// ---------------------------------------------------------------------------
// In-process executor.

// libTarget drives cswap.NewExecutor synchronously with the codec the
// service's Auto selector resolves to when its tuner is off.
type libTarget struct {
	s       *spec
	in      *inputs
	caller  int
	exec    *cswap.Executor
	handles []*cswap.TensorHandle
	algs    []compress.Algorithm
	pool    *executor.BlockPool
	poolAlg compress.Algorithm
}

func newExecutor(s *spec, verify bool, spill *tier.Store) (*cswap.Executor, error) {
	return cswap.NewExecutor(cswap.ExecutorConfig{
		DeviceCapacity: s.device, HostCapacity: s.host,
		Launch: launch, Verify: verify, Tier: spill,
		// One async slot: at HEAD the shared worker pool wedges once the
		// in-flight async swaps reach GOMAXPROCS (see README). Only block-pool
		// batches take slots here; tensor swaps are synchronous.
		MaxInFlight: 1,
	})
}

func (t *libTarget) register(ctx context.Context) error {
	if t.s.kv != nil {
		img := t.in.pools[t.caller]
		p, err := t.exec.RegisterBlockPool(poolName, t.s.blockElems, t.s.blocks())
		if err != nil {
			return err
		}
		t.pool, t.poolAlg = p, compress.BestRatioAlgorithm(zeroShare(img))
		return p.WriteBlocks(allIDs(t.s.blocks()), img)
	}
	for i, orig := range t.in.tensors {
		// Register takes ownership of the slice, so the program gets a copy.
		h, err := t.exec.Register(tensorName(i), tensor.FromSlice(append([]float32(nil), orig...)))
		if err != nil {
			return err
		}
		t.handles = append(t.handles, h)
		t.algs = append(t.algs, compress.BestRatioAlgorithm(zeroShare(orig)))
	}
	return nil
}

func (t *libTarget) swapOut(ctx context.Context, o op) (span, error) {
	if t.pool != nil {
		return timed(func() error { return t.pool.SwapOutBlocksCtx(ctx, o.ids, true, t.poolAlg).WaitContext(ctx) })
	}
	return timed(func() error { return t.exec.SwapOut(t.handles[o.item], true, t.algs[o.item]) })
}

func (t *libTarget) swapIn(ctx context.Context, o op) (span, payload, error) {
	if t.pool != nil {
		sp, err := timed(func() error { return t.pool.SwapInBlocksCtx(ctx, o.ids).WaitContext(ctx) })
		if err != nil {
			return sp, payload{}, err
		}
		bd := &client.BlockData{BlockElems: t.s.blockElems}
		var ids []int
		for _, r := range executor.CoalesceBlockIDs(o.ids) {
			bd.Runs = append(bd.Runs, client.BlockRun{Start: r.Start, Count: r.Count})
			for id := r.Start; id < r.Start+r.Count; id++ {
				ids = append(ids, id)
			}
		}
		bd.Data, err = t.pool.ReadBlocks(ids)
		return sp, payload{blocks: bd}, err
	}
	h := t.handles[o.item]
	sp, err := timed(func() error { return t.exec.SwapIn(h) })
	if err != nil {
		return sp, payload{}, err
	}
	data, err := h.Data()
	return sp, payload{tensor: data}, err
}

func (t *libTarget) restoreAll(ctx context.Context) error {
	if t.pool == nil {
		return nil
	}
	return t.pool.SwapInBlocksCtx(ctx, allIDs(t.s.blocks())).WaitContext(ctx)
}

func (t *libTarget) free(ctx context.Context) error {
	if t.pool != nil {
		err := t.pool.Free()
		t.pool = nil
		return err
	}
	for _, h := range t.handles {
		if err := t.exec.Free(h); err != nil {
			return err
		}
	}
	t.handles, t.algs = nil, nil
	return nil
}

func allIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// ---------------------------------------------------------------------------
// Loopback client.

// clientTarget is the public Go client against a live listener: the path a
// training or serving process actually takes.
type clientTarget struct {
	s      *spec
	in     *inputs
	caller int
	c      *client.Client
}

func (t *clientTarget) register(ctx context.Context) error {
	if t.s.kv != nil {
		if err := t.c.RegisterPool(ctx, poolName, t.s.blockElems, t.s.blocks()); err != nil {
			return err
		}
		return t.c.WriteBlocks(ctx, poolName, allIDs(t.s.blocks()), t.in.pools[t.caller])
	}
	for i, orig := range t.in.tensors {
		if err := t.c.Register(ctx, tensorName(i), orig); err != nil {
			return err
		}
	}
	return nil
}

func (t *clientTarget) swapOut(ctx context.Context, o op) (span, error) {
	if t.s.kv != nil {
		return timed(func() error { return t.c.SwapOutBlocks(ctx, poolName, o.ids) })
	}
	return timed(func() error { return t.c.SwapOut(ctx, tensorName(o.item)) })
}

func (t *clientTarget) swapIn(ctx context.Context, o op) (span, payload, error) {
	var p payload
	sp, err := timed(func() (err error) {
		if t.s.kv != nil {
			p.blocks, err = t.c.SwapInBlocks(ctx, poolName, o.ids)
		} else {
			p.tensor, err = t.c.SwapIn(ctx, tensorName(o.item))
		}
		return err
	})
	return sp, p, err
}

func (t *clientTarget) restoreAll(ctx context.Context) error {
	if t.s.kv == nil {
		return nil
	}
	_, err := t.c.SwapInBlocks(ctx, poolName, allIDs(t.s.blocks()))
	return err
}

func (t *clientTarget) free(ctx context.Context) error {
	if t.s.kv != nil {
		return t.c.Free(ctx, poolName)
	}
	for i := range t.in.tensors {
		if err := t.c.Free(ctx, tensorName(i)); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Handler: the server (or cluster router) without a socket or a client.

// handlerTarget calls ServeHTTP with a recorder and pre-encoded frames, one
// request at a time.
type handlerTarget struct {
	s      *spec
	in     *inputs
	caller int
	h      http.Handler
	tenant string
	// body is the recorder's response buffer, reused across calls so the
	// recorder itself allocates nothing inside the span once it is warm.
	body bytes.Buffer
}

// serve posts one frame and returns the recorded response. Only ServeHTTP is
// inside the span.
func (t *handlerTarget) serve(ctx context.Context, path string, f *wire.Frame) (span, *httptest.ResponseRecorder, error) {
	body, err := wire.Encode(f)
	if err != nil {
		return span{}, nil, err
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)).WithContext(ctx)
	req.Header.Set(server.TenantHeader, t.tenant)
	rec := httptest.NewRecorder()
	t.body.Reset()
	rec.Body = &t.body
	sp, _ := timed(func() error { t.h.ServeHTTP(rec, req); return nil })
	if rec.Code != http.StatusOK {
		return sp, rec, fmt.Errorf("%s: status %d (%s): %s", path, rec.Code,
			rec.Header().Get(server.ErrorHeader), bytes.TrimSpace(rec.Body.Bytes()))
	}
	return sp, rec, nil
}

func (t *handlerTarget) register(ctx context.Context) error {
	if t.s.kv != nil {
		n := t.s.blocks()
		if _, _, err := t.serve(ctx, "/v1/register-pool", &wire.Frame{Type: wire.TypeRegisterPool,
			Name: poolName, BlockElems: t.s.blockElems, NumBlocks: n}); err != nil {
			return err
		}
		_, _, err := t.serve(ctx, "/v1/batch-write", &wire.Frame{Type: wire.TypeBatchData, Name: poolName,
			BlockElems: t.s.blockElems, Runs: []wire.BlockRun{{Start: 0, Count: n}}, Data: t.in.pools[t.caller]})
		return err
	}
	for i, orig := range t.in.tensors {
		if _, _, err := t.serve(ctx, "/v1/register", &wire.Frame{Type: wire.TypeRegister, Name: tensorName(i), Data: orig}); err != nil {
			return err
		}
	}
	return nil
}

func (t *handlerTarget) swapOut(ctx context.Context, o op) (span, error) {
	f := &wire.Frame{Type: wire.TypeSwapOut, Name: tensorName(o.item), Compress: true, Alg: compress.Auto}
	path := "/v1/swap-out"
	if t.s.kv != nil {
		f = &wire.Frame{Type: wire.TypeBatchSwapOut, Name: poolName, Compress: true, Alg: compress.Auto, BlockIDs: o.ids}
		path = "/v1/batch-swap-out"
	}
	sp, _, err := t.serve(ctx, path, f)
	return sp, err
}

func (t *handlerTarget) swapIn(ctx context.Context, o op) (span, payload, error) {
	f := &wire.Frame{Type: wire.TypeSwapIn, Name: tensorName(o.item)}
	path := "/v1/swap-in"
	if t.s.kv != nil {
		f = &wire.Frame{Type: wire.TypeBatchSwapIn, Name: poolName, BlockIDs: o.ids}
		path = "/v1/batch-swap-in"
	}
	sp, rec, err := t.serve(ctx, path, f)
	if err != nil {
		return sp, payload{}, err
	}
	out, err := wire.Read(rec.Body, 0)
	if err != nil {
		return sp, payload{}, err
	}
	if t.s.kv == nil {
		return sp, payload{tensor: out.Data}, nil
	}
	bd := &client.BlockData{BlockElems: out.BlockElems, Data: out.Data}
	for _, r := range out.Runs {
		bd.Runs = append(bd.Runs, client.BlockRun{Start: r.Start, Count: r.Count})
	}
	return sp, payload{blocks: bd}, nil
}

func (t *handlerTarget) restoreAll(ctx context.Context) error {
	if t.s.kv == nil {
		return nil
	}
	_, _, err := t.serve(ctx, "/v1/batch-swap-in", &wire.Frame{Type: wire.TypeBatchSwapIn, Name: poolName, BlockIDs: allIDs(t.s.blocks())})
	return err
}

func (t *handlerTarget) free(ctx context.Context) error {
	if t.s.kv != nil {
		_, _, err := t.serve(ctx, "/v1/free", &wire.Frame{Type: wire.TypeFree, Name: poolName})
		return err
	}
	for i := range t.in.tensors {
		if _, _, err := t.serve(ctx, "/v1/free", &wire.Frame{Type: wire.TypeFree, Name: tensorName(i)}); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Service boot.

// serverOptions is the fixed configuration every service workload runs
// under: daemon defaults (Verify on, launch {128,64}, tuner off) except one
// executor slot with the SLO scheduler queueing behind it, so a second caller
// waits in sched instead of collecting 429 + Retry-After. README.md records
// why (the worker-pool wedge at MaxInFlight >= GOMAXPROCS).
func serverOptions(s *spec, tierDir string) []server.Option {
	opts := []server.Option{
		server.WithDeviceCapacity(s.device),
		server.WithHostCapacity(s.host),
		server.WithVerify(true),
		server.WithLaunch(launch),
		server.WithMaxInFlight(1),
		server.WithSched(server.SchedConfig{Enabled: true}),
	}
	if s.tierCap > 0 {
		opts = append(opts, server.WithTierDir(tierDir), server.WithTierCap(s.tierCap))
	}
	return opts
}

// service is a cswapd instance on a real loopback listener.
type service struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func bootService(s *spec, tierDir string) (*service, error) {
	srv, err := server.NewServer(serverOptions(s, tierDir)...)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	svc := &service{srv: srv, hs: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(svc.done)
		_ = svc.hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return svc, nil
}

// close stops the listener, waits for the serve loop, then drains the server.
func (v *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := v.hs.Shutdown(ctx)
	<-v.done
	if cerr := v.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// countingTransport counts HTTP requests so the traced pass can report client
// retries (requests sent beyond one per call) without reaching into the
// client.
type countingTransport struct {
	rt   http.RoundTripper
	sent atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.sent.Add(1)
	return c.rt.RoundTrip(r)
}

func tenantName(caller int) string { return fmt.Sprintf("caller-%d", caller) }
