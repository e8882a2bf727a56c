package executor

// Tests for the executor's coupling to the admission scheduler (ErrShed at
// run boundaries), the background watermark demoter, and tier prefetch
// read-ahead staging.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"cswap/internal/compress"
	"cswap/internal/metrics"
	"cswap/internal/sched"
	"cswap/internal/tensor"
	"cswap/internal/tier"
)

// fakeShed is a hand-cranked ShedSignal: sheds speculative work while the
// flag is up, and counts Preempted calls.
type fakeShed struct {
	shed     atomic.Bool
	preempts atomic.Int64
}

func (f *fakeShed) ShouldShed(l sched.Lane) bool {
	return l == sched.LaneSpeculative && f.shed.Load()
}
func (f *fakeShed) Preempted() { f.preempts.Add(1) }

func counterValue(t *testing.T, e *Executor, name string, labels ...metrics.Label) float64 {
	t.Helper()
	v, _ := e.Registry().Snapshot().Counter(name, labels...)
	return v
}

func TestShedScalarPrefetch(t *testing.T) {
	sig := &fakeShed{}
	e, err := New(Config{DeviceCapacity: 1 << 20, HostCapacity: 1 << 20, Verify: true, Sched: sig})
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

	// Shedding on, speculative hint: the prefetch yields without running.
	sig.shed.Store(true)
	spec := sched.WithHint(context.Background(), sched.Hint{Lane: sched.LaneSpeculative})
	if err := h.Pool().Swap(spec, "prefetch", nil, false, 0); !errors.Is(err, ErrShed) {
		t.Fatalf("speculative prefetch under shed: %v, want ErrShed", err)
	}
	if st := h.State(); st != Swapped {
		t.Fatalf("shed handle state %v, want Swapped (clean rollback)", st)
	}
	if n := sig.preempts.Load(); n != 1 {
		t.Fatalf("Preempted calls = %d, want 1", n)
	}
	if v := counterValue(t, e, "executor_sched_preemptions_total"); v != 1 {
		t.Fatalf("executor_sched_preemptions_total = %v, want 1", v)
	}
	// An asynchronous prefetch runs the same loop under its context, so it
	// sheds alike.
	if err := e.PrefetchCtx(spec, h).Wait(); !errors.Is(err, ErrShed) {
		t.Fatalf("speculative async prefetch under shed: %v, want ErrShed", err)
	}
	if st := h.State(); st != Swapped {
		t.Fatalf("shed handle state %v after the async prefetch, want Swapped", st)
	}
	if n := sig.preempts.Load(); n != 2 {
		t.Fatalf("Preempted calls = %d, want 2", n)
	}

	// A critical hint is never shed, and neither is a hint-less context.
	crit := sched.WithHint(context.Background(), sched.Hint{Lane: sched.LaneCritical})
	if err := h.Pool().Swap(crit, "prefetch", nil, false, 0); err != nil {
		t.Fatalf("critical prefetch under shed: %v", err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if err := h.Pool().Swap(context.Background(), "prefetch", nil, false, 0); err != nil {
		t.Fatalf("hint-less prefetch under shed: %v", err)
	}

	// Shedding off: speculative work flows again.
	sig.shed.Store(false)
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if err := h.Pool().Swap(spec, "prefetch", nil, false, 0); err != nil {
		t.Fatalf("speculative prefetch after shed cleared: %v", err)
	}
}

func TestShedBatchMidRuns(t *testing.T) {
	sig := &fakeShed{}
	e, err := New(Config{DeviceCapacity: 1 << 22, HostCapacity: 1 << 22, Verify: true, Sched: sig})
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

	sig.shed.Store(true)
	spec := sched.WithHint(context.Background(), sched.Hint{Lane: sched.LaneSpeculative})
	if err := p.Swap(spec, "batch-prefetch", ids, false, 0); !errors.Is(err, ErrShed) {
		t.Fatalf("speculative batch prefetch under shed: %v, want ErrShed", err)
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
	sig.shed.Store(false)
	if err := p.Swap(spec, "batch-prefetch", ids, false, 0); err != nil {
		t.Fatalf("resubmitted batch prefetch: %v", err)
	}
	for _, id := range ids {
		if st := p.BlockState(id); st != Resident {
			t.Fatalf("block %d state %v after restore, want Resident", id, st)
		}
	}
}

func TestWatermarkDemotion(t *testing.T) {
	ts, err := tier.Open(t.TempDir(), 1<<22, nil)
	if err != nil {
		t.Fatal(err)
	}
	const hostCap = 1 << 20
	e, err := New(Config{
		DeviceCapacity:        1 << 22,
		HostCapacity:          hostCap,
		Verify:                true,
		Tier:                  ts,
		TierWatermark:         0.5,
		TierWatermarkInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Raw swap-outs put ~768 KiB in the host pool — well past the 512 KiB
	// watermark — without any inline allocation pressure.
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
	if used := e.HostStats().Used; used <= hostCap/2 {
		t.Fatalf("host pool holds %d bytes, want above the %d watermark", used, hostCap/2)
	}

	// The demoter frees the host bytes first and counts the demotion after,
	// so both are polled for: the counter may trail the pool by a moment.
	demotions := func() float64 {
		return counterValue(t, e, "executor_tier_demotions_total", metrics.L("reason", "watermark"))
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.HostStats().Used > hostCap/2 || demotions() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("watermark demoter left host at %d bytes (watermark %d) with the demotion counter at %v, want >= 1",
				e.HostStats().Used, hostCap/2, demotions())
		}
		time.Sleep(time.Millisecond)
	}
	if e.TierUsed() == 0 {
		t.Fatal("tier empty after watermark demotion")
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

	if err := p.Swap(context.Background(), "batch-prefetch", ids, false, 0); err != nil {
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
