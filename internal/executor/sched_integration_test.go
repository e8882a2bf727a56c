package executor

// Tests for the yield hook (ErrShed at run boundaries), the background
// watermark demoter, and tier prefetch read-ahead staging.

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cswap/internal/compress"
	"cswap/internal/metrics"
	"cswap/internal/tensor"
	"cswap/internal/tier"
)

// shedding returns a context whose yield function fires while the flag is
// up: a hand-cranked shed.
func shedding(flag *atomic.Bool) context.Context {
	return WithYield(context.Background(), flag.Load)
}

func counterValue(t *testing.T, e *Executor, name string, labels ...metrics.Label) float64 {
	t.Helper()
	v, _ := e.Registry().Snapshot().Counter(name, labels...)
	return v
}

func TestShedScalarPrefetch(t *testing.T) {
	var shed atomic.Bool
	e, err := New(Config{DeviceCapacity: 1 << 20, HostCapacity: 1 << 20, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	tn := tensor.NewGenerator(3).Uniform(4096, 0.5)
	h, err := e.Register("act", tn)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}

	// The yield fires: the prefetch yields without running.
	shed.Store(true)
	spec := shedding(&shed)
	if err := h.Pool().Swap(spec, "prefetch", nil, 0, false, 0); !errors.Is(err, ErrShed) {
		t.Fatalf("prefetch under a firing yield: %v, want ErrShed", err)
	}
	if st := h.State(); st != Swapped {
		t.Fatalf("shed handle state %v, want Swapped (clean rollback)", st)
	}
	if v := counterValue(t, e, "executor_sched_preemptions_total"); v != 1 {
		t.Fatalf("executor_sched_preemptions_total = %v, want 1", v)
	}
	// An asynchronous prefetch runs the same loop under its context, so it
	// sheds alike.
	if err := e.PrefetchCtx(spec, h).Wait(); !errors.Is(err, ErrShed) {
		t.Fatalf("async prefetch under a firing yield: %v, want ErrShed", err)
	}
	if st := h.State(); st != Swapped {
		t.Fatalf("shed handle state %v after the async prefetch, want Swapped", st)
	}
	if v := counterValue(t, e, "executor_sched_preemptions_total"); v != 2 {
		t.Fatalf("executor_sched_preemptions_total = %v, want 2", v)
	}

	// A context without a yield function is never shed.
	if err := h.Pool().Swap(context.Background(), "prefetch", nil, 0, false, 0); err != nil {
		t.Fatalf("prefetch without a yield: %v", err)
	}

	// The yield quiet: the same context's work flows again.
	shed.Store(false)
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if err := h.Pool().Swap(spec, "prefetch", nil, 0, false, 0); err != nil {
		t.Fatalf("prefetch after the yield went quiet: %v", err)
	}
	if v := counterValue(t, e, "executor_sched_preemptions_total"); v != 2 {
		t.Fatalf("executor_sched_preemptions_total = %v after work that did not shed, want 2", v)
	}
}

func TestShedBatchMidRuns(t *testing.T) {
	var shed atomic.Bool
	e, err := New(Config{DeviceCapacity: 1 << 22, HostCapacity: 1 << 22, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	p, err := e.RegisterBlockPool("kv", 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Three non-contiguous runs so the batch has run boundaries to shed at.
	ids := []int{0, 1, 10, 11, 20, 21}
	if err := p.SwapOutBlocks(ids, true, compress.RLE); err != nil {
		t.Fatal(err)
	}

	shed.Store(true)
	spec := shedding(&shed)
	if err := p.Swap(spec, "batch-prefetch", CoalesceBlockIDs(ids), len(ids), false, 0); !errors.Is(err, ErrShed) {
		t.Fatalf("batch prefetch under a firing yield: %v, want ErrShed", err)
	}
	for _, id := range ids {
		if st := p.BlockState(id); st != Swapped {
			t.Fatalf("block %d state %v after shed, want Swapped", id, st)
		}
	}
	if v := counterValue(t, e, "executor_sched_shed_runs_total"); v != 3 {
		t.Fatalf("executor_sched_shed_runs_total = %v, want 3 (whole batch)", v)
	}

	// The shed is load shedding, not failure: the same request resubmits
	// cleanly once the backlog clears.
	shed.Store(false)
	if err := p.Swap(spec, "batch-prefetch", CoalesceBlockIDs(ids), len(ids), false, 0); err != nil {
		t.Fatalf("resubmitted batch prefetch: %v", err)
	}
	for _, id := range ids {
		if st := p.BlockState(id); st != Resident {
			t.Fatalf("block %d state %v after restore, want Resident", id, st)
		}
	}
}

// watermarked returns an executor with a 1 MiB host pool whose background
// demoter holds it at half full, over a fresh tier.
func watermarked(t *testing.T) *Executor {
	t.Helper()
	ts, err := tier.Open(t.TempDir(), 1<<22, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		DeviceCapacity: 1 << 22,
		HostCapacity:   1 << 20,
		Verify:         true,
		Tier:           ts,
		TierWatermark:  0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

// demotions reads the executor's demotion counters: every demotion, and
// those the background demoter made.
func demotions(t *testing.T, e *Executor) (all, watermark float64) {
	return counterValue(t, e, "executor_tier_demotions_total"),
		counterValue(t, e, "executor_tier_demotions_total", metrics.L("reason", "watermark"))
}

// demoterIdle reports whether the demoter owes no sweep and the host pool
// is at or under its watermark.
func demoterIdle(e *Executor) bool {
	pending, _ := e.Registry().Snapshot().Gauge("executor_tier_demoter_pending")
	return pending == 0 && e.HostStats().Used <= e.demoter.target
}

// TestWatermarkDemotion: swap-outs that fit the host pool but leave it past
// the watermark wake the demoter, which brings the pool back under the mark
// within a bound, by demotions of its own only — none of the swap-outs
// needed room, so none demoted inline.
func TestWatermarkDemotion(t *testing.T) {
	e := watermarked(t)
	// Raw swap-outs put 768 KiB in the 1 MiB host pool — past the 512 KiB
	// watermark, with no allocation pressure.
	for i := 0; i < 3; i++ {
		tn := tensor.NewGenerator(int64(i)).Uniform(64*1024, 0.5)
		h, err := e.Register(string(rune('a'+i)), tn)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SwapOut(h, false, 0); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); !demoterIdle(e); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("demoter left the host pool at %d bytes, watermark %d", e.HostStats().Used, e.demoter.target)
		}
	}
	all, watermark := demotions(t, e)
	if watermark < 1 {
		t.Fatalf("%v watermark demotions, want >= 1", watermark)
	}
	if pressure := all - watermark; pressure != 0 {
		t.Fatalf("%v inline pressure demotions for swap-outs that fit, want 0", pressure)
	}
	if e.TierUsed() == 0 {
		t.Fatal("tier empty after watermark demotion")
	}
}

// TestDemoterWakesCoalesce: while a sweep is stalled, a burst of swap-outs
// over the watermark leaves one wake-up queued behind it, not one per
// swap-out, and starts no goroutine; released, the demoter works the backlog
// off and goes idle.
func TestDemoterWakesCoalesce(t *testing.T) {
	e := watermarked(t)
	hs := make([]*Handle, 3)
	for i := range hs {
		var err error
		if hs[i], err = e.Register(string(rune('a'+i)), tensor.NewGenerator(int64(i)).Uniform(64*1024, 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	goroutines := runtime.NumGoroutine()
	// A sweep starts by snapshotting the pools under e.mu: holding it stalls
	// the first sweep the burst wakes.
	e.mu.Lock()
	for _, h := range hs {
		if err := e.SwapOut(h, false, 0); err != nil {
			e.mu.Unlock()
			t.Fatal(err)
		}
	}
	// The third swap-out crossed the mark: wait for the demoter to take its
	// wake-up into the stalled sweep.
	for deadline := time.Now().Add(5 * time.Second); len(e.demoter.wake) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			e.mu.Unlock()
			t.Fatal("the demoter never took the wake-up of a swap-out over the mark")
		}
	}
	const burst = 32
	for i := 0; i < burst; i++ {
		if err := e.SwapIn(hs[2]); err != nil {
			e.mu.Unlock()
			t.Fatal(err)
		}
		if err := e.SwapOut(hs[2], false, 0); err != nil {
			e.mu.Unlock()
			t.Fatal(err)
		}
	}
	queued := len(e.demoter.wake)
	pending, _ := e.Registry().Snapshot().Gauge("executor_tier_demoter_pending")
	now := runtime.NumGoroutine()
	e.mu.Unlock()
	if queued != 1 || pending != 2 {
		t.Fatalf("after %d swap-outs over the mark: %d wake-ups queued, %v sweeps owed; want 1 queued behind the stalled one (2 owed)",
			burst+1, queued, pending)
	}
	if now > goroutines {
		t.Fatalf("%d goroutines after the burst, %d before", now, goroutines)
	}
	for deadline := time.Now().Add(5 * time.Second); !demoterIdle(e); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("demoter never went idle: host pool at %d bytes, watermark %d", e.HostStats().Used, e.demoter.target)
		}
	}
	if _, watermark := demotions(t, e); watermark < 1 {
		t.Fatalf("%v watermark demotions after the stall, want >= 1", watermark)
	}
}

func TestWatermarkConfigValidation(t *testing.T) {
	if _, err := New(Config{DeviceCapacity: 1, HostCapacity: 1, TierWatermark: 0.5}); err == nil {
		t.Fatal("TierWatermark without a Tier accepted")
	}
	ts, err := tier.Open(t.TempDir(), 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, wm := range []float64{-0.1, 1, 1.5} {
		if _, err := New(Config{DeviceCapacity: 1, HostCapacity: 1, Tier: ts, TierWatermark: wm}); err == nil {
			t.Fatalf("TierWatermark %v accepted", wm)
		}
	}
}

func TestPrefetchReadahead(t *testing.T) {
	// Device pool sized for exactly one tensor, so a prefetch of the
	// demoted tensor fails its device allocation while B occupies it —
	// but the read-ahead staging must already have paid the disk fault.
	const elems = 16 * 1024
	e, ts := newTierExecutor(t, elems*4, 1<<20, 1<<20, nil)
	a := tensor.NewGenerator(1).Uniform(elems, 0.5)
	want := append([]float32(nil), a.Data...)
	ha, err := e.Register("a", a)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(ha, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	hb, err := e.Register("b", tensor.NewGenerator(2).Uniform(elems, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Demote(ha); err != nil {
		t.Fatal(err)
	}

	// Device full: the prefetch cannot restore, but it stages disk→host.
	if err := e.PrefetchCtx(context.Background(), ha).Wait(); err == nil {
		t.Fatal("prefetch restored a into a full device pool")
	}
	if inTier(ha) {
		t.Fatal("prefetch read-ahead left the handle tiered")
	}
	if ts.Len() != 0 {
		t.Fatalf("tier still holds %d blobs after staging", ts.Len())
	}
	if e.HostStats().Used == 0 {
		t.Fatal("staged payload not charged to the host pool")
	}
	if v := counterValue(t, e, "executor_tier_readahead_total"); v != 1 {
		t.Fatalf("executor_tier_readahead_total = %v, want 1", v)
	}

	// The demand swap-in now reads host memory: no new tier hit.
	hits := counterValue(t, e, "executor_tier_hits_total")
	if err := e.Free(hb); err != nil {
		t.Fatal(err)
	}
	if err := e.SwapIn(ha); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, ha, want)
	if v := counterValue(t, e, "executor_tier_hits_total"); v != hits {
		t.Fatalf("demand swap-in hit the tier (%v -> %v) after read-ahead", hits, v)
	}
}

func TestBatchPrefetchReadahead(t *testing.T) {
	e, ts := newTierExecutor(t, 1<<22, 1<<22, 1<<22, nil)
	p, err := e.RegisterBlockPool("kv", 512, 32)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{4, 5, 6, 7}
	if err := p.SwapOutBlocks(ids, true, compress.RLE); err != nil {
		t.Fatal(err)
	}
	runs := p.victims(nil, 0)
	if len(runs) != 1 {
		t.Fatalf("stored runs = %d, want 1", len(runs))
	}
	if _, err := p.demoteRun(runs[0].r); err != nil {
		t.Fatal(err)
	}
	if ts.Len() != 1 {
		t.Fatalf("tier holds %d blobs after run demotion, want 1", ts.Len())
	}

	if err := p.Swap(context.Background(), "batch-prefetch", CoalesceBlockIDs(ids), len(ids), false, 0); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if st := p.BlockState(id); st != Resident {
			t.Fatalf("block %d state %v after prefetch, want Resident", id, st)
		}
	}
	if v := counterValue(t, e, "executor_tier_readahead_total"); v != 1 {
		t.Fatalf("executor_tier_readahead_total = %v, want 1", v)
	}
	if ts.Len() != 0 {
		t.Fatalf("tier still holds %d blobs after prefetch", ts.Len())
	}
}
