package executor

import (
	"context"
	"errors"
	"testing"
	"time"

	"cswap/internal/compress"
	"cswap/internal/faultinject"
	"cswap/internal/tensor"
)

// newCtxExecutor builds an executor whose encodes stall long enough for a
// context to expire mid-operation. The launch is one chunk, so the
// per-chunk delay is paid once per encode whatever the core count (at the
// default grid 128 an 8 MiB tensor pays it 128/GOMAXPROCS times).
func newCtxExecutor(t *testing.T, maxInFlight int, encodeDelay time.Duration) *Executor {
	t.Helper()
	cfg := Config{
		DeviceCapacity: 64 << 20,
		HostCapacity:   64 << 20,
		Launch:         compress.Launch{Grid: 1, Block: 64},
		Verify:         true,
		MaxInFlight:    maxInFlight,
	}
	if encodeDelay > 0 {
		cfg.Faults = faultinject.New(faultinject.Fault{
			Site: faultinject.SiteEncode, Mode: faultinject.Delay,
			Delay: encodeDelay, Every: 1,
		})
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

func registerTensor(t *testing.T, e *Executor, name string, n int) (*Handle, []float32) {
	t.Helper()
	gen := tensor.NewGenerator(42)
	tn := gen.Uniform(n, 0.5)
	want := append([]float32(nil), tn.Data...)
	h, err := e.Register(name, tn)
	if err != nil {
		t.Fatal(err)
	}
	return h, want
}

// TestWaitContextCancelMidEncode cancels the waiter while the encode is
// still running: WaitContext must return the context error promptly, the
// operation must still commit, and the handle state machine must end up
// consistent — Swapped, restorable, bit-exact.
func TestWaitContextCancelMidEncode(t *testing.T) {
	e := newCtxExecutor(t, 2, 200*time.Millisecond)
	h, want := registerTensor(t, e, "slow", 4096)

	ctx, cancel := context.WithCancel(context.Background())
	tk := e.SwapOutAsyncCtx(ctx, h, true, compress.ZVC)
	time.Sleep(20 * time.Millisecond) // let the encode start stalling
	cancel()
	if err := tk.WaitContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitContext after cancel: %v, want context.Canceled", err)
	}
	// Abandoning the wait did not abandon the work: the ticket still
	// resolves, the state commits, and the slot frees.
	if err := tk.Wait(); err != nil {
		t.Fatalf("operation after abandoned wait: %v", err)
	}
	e.Drain()
	if got := h.State(); got != Swapped {
		t.Fatalf("state after abandoned wait = %v, want Swapped", got)
	}
	if n := e.InFlight(); n != 0 {
		t.Fatalf("in-flight after drain = %d, want 0", n)
	}
	if err := e.SwapIn(h); err != nil {
		t.Fatal(err)
	}
	data, err := h.Data()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if data[i] != want[i] {
			t.Fatalf("restored[%d] = %v, want %v", i, data[i], want[i])
		}
	}
}

// TestAcquireCtxExpiresWhileBlocked saturates a 1-slot window with a slow
// swap, then submits with an already-short deadline: the second ticket
// must resolve with the deadline error and its handle roll back to
// Resident with nothing run.
func TestAcquireCtxExpiresWhileBlocked(t *testing.T) {
	e := newCtxExecutor(t, 1, 300*time.Millisecond)
	slow, _ := registerTensor(t, e, "slow", 4096)
	fast, _ := registerTensor(t, e, "fast", 256)

	blocker := e.SwapOutAsyncCtx(context.Background(), slow, true, compress.ZVC)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	tk := e.SwapOutAsyncCtx(ctx, fast, true, compress.ZVC)
	if err := tk.Wait(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked submit with expired deadline: %v, want DeadlineExceeded", err)
	}
	if got := fast.State(); got != Resident {
		t.Fatalf("rolled-back handle state = %v, want Resident", got)
	}
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	// The rollback left the machine clean: the same handle swaps normally
	// once the window frees.
	if err := e.SwapOutAsyncCtx(context.Background(), fast, true, compress.ZVC).Wait(); err != nil {
		t.Fatalf("swap after rollback: %v", err)
	}
	if got := fast.State(); got != Swapped {
		t.Fatalf("state after retry = %v, want Swapped", got)
	}
}

// TestAcquireCtxAlreadyExpired submits with a dead context while the
// window is full: the claim must roll back without ever waiting — a
// batch's every claimed run alike, each left bit-exact in the state it was
// claimed from.
func TestAcquireCtxAlreadyExpired(t *testing.T) {
	e := newCtxExecutor(t, 1, 200*time.Millisecond)
	slow, _ := registerTensor(t, e, "slow", 4096)
	fast, _ := registerTensor(t, e, "fast", 256)

	blocker := e.SwapOutAsyncCtx(context.Background(), slow, true, compress.ZVC)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.SwapOutAsyncCtx(ctx, fast, true, compress.ZVC).Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context submit: %v, want context.Canceled", err)
	}
	if got := fast.State(); got != Resident {
		t.Fatalf("state = %v, want Resident", got)
	}
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}

	p, err := e.RegisterBlockPool("kv", 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 3, 4, 6} // three runs
	var want []float32
	for _, id := range ids {
		want = append(want, blockFill(id, 64)...)
	}
	if err := p.WriteBlocks(ids, want); err != nil {
		t.Fatal(err)
	}
	inState := func(st State) {
		t.Helper()
		for _, id := range ids {
			if got := p.BlockState(id); got != st {
				t.Fatalf("block %d state = %v after a refused batch, want %v", id, got, st)
			}
		}
	}
	if err := e.gate.acquire(context.Background()); err != nil { // the window's one slot
		t.Fatal(err)
	}
	if err := p.SwapOutBlocksCtx(ctx, ids, true, compress.ZVC).Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context batch swap-out: %v, want context.Canceled", err)
	}
	inState(Resident)
	if err := p.SwapOutBlocks(ids, false, 0); err != nil { // raw: no encode to wait out
		t.Fatal(err)
	}
	if err := p.SwapInBlocksCtx(ctx, ids).Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead-context batch swap-in: %v, want context.Canceled", err)
	}
	inState(Swapped)
	e.gate.release()
	if err := p.SwapInBlocks(ids); err != nil {
		t.Fatal(err)
	}
	if got, err := p.ReadBlocks(ids); err != nil || !sameBits(got, want) {
		t.Fatalf("batch after refused submissions: err %v, bit-exact %v", err, sameBits(got, want))
	}
}

// TestPrefetchCtx covers the context path through Prefetch: a resident
// handle short-circuits regardless of ctx, and a swapped one honors the
// submission deadline.
func TestPrefetchCtx(t *testing.T) {
	e := newCtxExecutor(t, 1, 200*time.Millisecond)
	h, _ := registerTensor(t, e, "a", 1024)
	slow, _ := registerTensor(t, e, "slow", 4096)

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.PrefetchCtx(dead, h).Wait(); err != nil {
		t.Fatalf("prefetch of resident handle with dead ctx: %v, want nil", err)
	}

	if err := e.SwapOut(h, false, 0); err != nil {
		t.Fatal(err)
	}
	blocker := e.SwapOutAsyncCtx(context.Background(), slow, true, compress.ZVC) // fills the window
	if err := e.PrefetchCtx(dead, h).Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked prefetch with dead ctx: %v, want context.Canceled", err)
	}
	if got := h.State(); got != Swapped {
		t.Fatalf("state after refused prefetch = %v, want Swapped", got)
	}
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := e.PrefetchCtx(context.Background(), h).Wait(); err != nil {
		t.Fatal(err)
	}
	if got := h.State(); got != Resident {
		t.Fatalf("state after prefetch = %v, want Resident", got)
	}
}

// TestWaitContextCompleted returns the op error, not the ctx error, when
// the ticket is already resolved — even if the context is also done.
func TestWaitContextCompleted(t *testing.T) {
	e := newCtxExecutor(t, 2, 0)
	h, _ := registerTensor(t, e, "x", 256)
	tk := e.SwapOutAsyncCtx(context.Background(), h, true, compress.ZVC)
	if err := tk.Wait(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tk.WaitContext(ctx); err != nil {
		t.Fatalf("WaitContext on resolved ticket: %v, want nil", err)
	}
}
