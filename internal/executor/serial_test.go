package executor

// Tests for the synchronous run loop a swap service drives (BlockPool.Swap):
// shedding at run boundaries and the rollback of the runs not yet started,
// and a claim that meets a demotion waiting it out instead of failing.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cswap/internal/compress"
	"cswap/internal/metrics"
	"cswap/internal/tensor"
)

// shedAfter returns a yield function that lets the first n run boundaries
// pass and fires at every later one; calls counts the boundaries it saw.
func shedAfter(n int64, calls *atomic.Int64) func() bool {
	return func() bool { return calls.Add(1) > n }
}

// wantStates checks that the first run of ids — its first two blocks — is
// in first, the state its run committed, and every later block in rest.
func wantStates(t *testing.T, p *BlockPool, ids []int, first, rest State) {
	t.Helper()
	for i, id := range ids {
		want := rest
		if i < 2 {
			want = first
		}
		if st := p.BlockState(id); st != want {
			t.Fatalf("block %d state %v after a shed at the second run, want %v", id, st, want)
		}
	}
}

// TestSwapShedsMidRuns: a Swap whose yield fires at its second run boundary
// runs its first run, then stops with ErrShed — the runs not yet started
// roll back to the state they were claimed from (Swapped for a prefetch,
// Resident for a swap-out), the started one stays committed, and the
// preemption is counted once with the runs it shed.
func TestSwapShedsMidRuns(t *testing.T) {
	e, err := New(Config{DeviceCapacity: 1 << 22, HostCapacity: 1 << 22, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	p, err := e.RegisterBlockPool("kv", 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.NewGenerator(5).Uniform(6*256, 0.5).Data
	ids := []int{0, 1, 10, 11, 20, 21} // three runs
	if err := p.WriteBlocks(ids, want); err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	if err := p.Swap(bg, "batch-swap-out", CoalesceBlockIDs(ids), len(ids), true, compress.RLE); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	spec := WithYield(bg, shedAfter(1, &calls))
	if err := p.Swap(spec, "batch-prefetch", CoalesceBlockIDs(ids), len(ids), false, 0); !errors.Is(err, ErrShed) {
		t.Fatalf("batch prefetch under a yield firing at its second run: %v, want ErrShed", err)
	}
	wantStates(t, p, ids, Resident, Swapped)
	if v := counterValue(t, e, "executor_sched_shed_runs_total"); v != 2 {
		t.Fatalf("executor_sched_shed_runs_total = %v, want 2", v)
	}
	if v := counterValue(t, e, "executor_sched_preemptions_total"); v != 1 {
		t.Fatalf("executor_sched_preemptions_total = %v, want 1", v)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("yield asked at %d run boundaries, want 2 (it fired at the second)", n)
	}

	// The same yield sheds a swap-out's remaining runs back to Resident.
	calls.Store(0)
	if err := p.Swap(bg, "batch-swap-in", CoalesceBlockIDs(ids), len(ids), false, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Swap(spec, "batch-swap-out", CoalesceBlockIDs(ids), len(ids), true, compress.RLE); !errors.Is(err, ErrShed) {
		t.Fatalf("batch swap-out under a yield firing at its second run: %v, want ErrShed", err)
	}
	wantStates(t, p, ids, Swapped, Resident)

	// Work without a yield is never shed; the batch restores whole and bit-exact,
	// and no run of any of these calls went to the worker pool.
	if err := p.Swap(bg, "batch-swap-in", CoalesceBlockIDs(ids), len(ids), false, 0); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadBlocks(ids)
	if err != nil || !sameBits(got, want) {
		t.Fatalf("restored blocks differ from the written ones (err %v)", err)
	}
	for _, op := range []string{"swap-out", "swap-in", "prefetch"} {
		if v := counterValue(t, e, "executor_async_submitted_total", metrics.L("op", op)); v != 0 {
			t.Fatalf("executor_async_submitted_total{op=%s} = %v, want 0", op, v)
		}
	}
	if err := p.Swap(bg, "demote", CoalesceBlockIDs(ids), len(ids), false, 0); err == nil {
		t.Fatal("Swap accepted an unknown operation")
	}
}

// TestClaimWaitsOutDemotion: a swap-in or Free that finds its block held by
// a demotion waits for the demotion to hand the block back, then proceeds —
// it is not refused with ErrBusy, since its caller raced no one. A swap-in
// racing its owner's own swap still fails fast.
func TestClaimWaitsOutDemotion(t *testing.T) {
	e, _ := newTierExecutor(t, 1<<22, 1<<22, 1<<24, nil)
	want := sealPayload(4096)
	h, err := e.Register("t", tensor.FromSlice(append([]float32(nil), want...)))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	p := h.Pool()
	// Claim the run as demoteRun does, and hold it.
	demote := func() {
		if err := p.claimRuns(whole, Swapped, SwappingOut, func() bool { p.run[0].demoting = true; return true }); err != nil {
			t.Fatal(err)
		}
	}
	waits := func(what string, op func() error) {
		t.Helper()
		demote()
		done := make(chan error, 1)
		go func() { done <- op() }()
		select {
		case err := <-done:
			t.Fatalf("%s returned %v while a demotion held the block, want it to wait", what, err)
		case <-time.After(20 * time.Millisecond):
		}
		p.settle(whole, Swapped)
		if err := <-done; err != nil {
			t.Fatalf("%s after the demotion: %v", what, err)
		}
	}
	waits("swap-in", func() error { return e.SwapIn(h) })
	if got, _ := h.Data(); !sameBits(got, want) {
		t.Fatal("restore differs from the registered bytes")
	}

	// An owner's in-flight swap is no demotion: a second claim is refused.
	if err := p.claimOut(whole, 0, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.SwapIn(h); !errors.Is(err, ErrBusy) {
		t.Fatalf("swap-in racing a swap-out: %v, want ErrBusy", err)
	}
	p.settle(whole, Resident)

	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	waits("free", func() error { return e.Free(h) })
	if st := e.HostStats(); st.Used != 0 || st.Cached != 0 {
		t.Fatalf("host pool %+v after free", st)
	}
}
