package executor

import (
	"testing"

	"cswap/internal/compress"
	"cswap/internal/faultinject"
	"cswap/internal/metrics"
	"cswap/internal/tensor"
)

func newObservedExecutor(t *testing.T, obs *metrics.Observer) *Executor {
	t.Helper()
	e, err := New(Config{
		DeviceCapacity: 1 << 22,
		HostCapacity:   1 << 22,
		Launch:         compress.Launch{Grid: 16, Block: 64},
		Verify:         true,
		Observer:       obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestObserverSeesSwapTraffic(t *testing.T) {
	obs := metrics.NewObserver()
	var events []metrics.Event
	obs.OnEvent = func(ev metrics.Event) { events = append(events, ev) }
	e := newObservedExecutor(t, obs)

	tn := tensor.NewGenerator(1).Uniform(50000, 0.6)
	h, err := e.Register("ReLU1", tn)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if err := e.SwapIn(h); err != nil {
		t.Fatal(err)
	}

	snap := obs.Metrics.Snapshot()
	if v, ok := snap.Counter("executor_swap_outs_total"); !ok || v != 1 {
		t.Fatalf("executor_swap_outs_total = %v, %v", v, ok)
	}
	if v, ok := snap.Counter("executor_swap_ins_total"); !ok || v != 1 {
		t.Fatalf("executor_swap_ins_total = %v, %v", v, ok)
	}
	moved, ok := snap.Counter("executor_moved_bytes_by_codec_total", metrics.L("codec", "ZVC"))
	if !ok || moved <= 0 || moved >= float64(h.Bytes()) {
		t.Fatalf("per-codec moved bytes = %v, %v (raw %d)", moved, ok, h.Bytes())
	}

	// The legacy Stats view and the registry must agree.
	st := e.Stats()
	if st.SwapOuts != 1 || st.SwapIns != 1 || st.CompressedTensors != 1 {
		t.Fatalf("stats view diverged from registry: %+v", st)
	}
	if int64(moved) != st.MovedBytes {
		t.Fatalf("per-codec bytes %v != Stats.MovedBytes %d", moved, st.MovedBytes)
	}

	// Both legs were timed under the payload's codec.
	zvc := metrics.L("codec", "ZVC")
	for _, name := range []string{"executor_encode_seconds", "executor_decode_seconds"} {
		if n := obs.Metrics.Histogram(name, zvc).Count(); n != 1 {
			t.Fatalf("%s{codec=ZVC} count = %d, want 1", name, n)
		}
	}
	if len(events) != 0 {
		t.Fatalf("clean round trip emitted events: %v", events)
	}
}

func TestObserverEmitsFallbackEvent(t *testing.T) {
	obs := metrics.NewObserver()
	var events []metrics.Event
	obs.OnEvent = func(ev metrics.Event) { events = append(events, ev) }
	e, err := New(Config{
		DeviceCapacity: 1 << 22,
		HostCapacity:   1 << 22,
		Launch:         compress.Launch{Grid: 16, Block: 64},
		Verify:         true,
		Observer:       obs,
		Faults: faultinject.New(faultinject.Fault{
			Site: faultinject.SiteEncode, Mode: faultinject.Fail,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}

	tn := tensor.NewGenerator(3).Uniform(20000, 0.6)
	h, err := e.Register("victim", tn)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatalf("encode failure must degrade, not error: %v", err)
	}

	snap := obs.Metrics.Snapshot()
	if v, ok := snap.Counter("executor_fallbacks_total", metrics.L("site", "encode")); !ok || v != 1 {
		t.Fatalf("encode fallback counter = %v, %v", v, ok)
	}
	// The raw fallback's bytes land under codec="raw".
	if v, ok := snap.Counter("executor_moved_bytes_by_codec_total", metrics.L("codec", "raw")); !ok || int64(v) != h.Bytes() {
		t.Fatalf("raw-codec moved bytes = %v, %v (want %d)", v, ok, h.Bytes())
	}
	found := false
	for _, ev := range events {
		if ev.Name == "executor.fallback" && ev.Attrs["tensor"] == "victim" && ev.Attrs["site"] == "encode" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no executor.fallback event for the degraded swap: %v", events)
	}
}

// BenchmarkSwapHotPath measures the unobserved swap round trip — the
// configuration the ~zero-cost-nil-Observer contract is about. Allocations
// here come from the codec and pool paths, not the metrics layer: the
// executor's counters are pre-resolved atomics.
func BenchmarkSwapHotPath(b *testing.B) {
	e, err := New(Config{
		DeviceCapacity: 1 << 24,
		HostCapacity:   1 << 24,
		Launch:         compress.Launch{Grid: 16, Block: 64},
	})
	if err != nil {
		b.Fatal(err)
	}
	tn := tensor.NewGenerator(1).Uniform(16384, 0.6)
	h, err := e.Register("bench", tn)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.SwapOut(h, true, compress.ZVC); err != nil {
			b.Fatal(err)
		}
		if err := e.SwapIn(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwapHotPathObserved is the same loop with a full Observer
// attached — the price of deep instrumentation, for comparison against
// BenchmarkSwapHotPath.
func BenchmarkSwapHotPathObserved(b *testing.B) {
	e, err := New(Config{
		DeviceCapacity: 1 << 24,
		HostCapacity:   1 << 24,
		Launch:         compress.Launch{Grid: 16, Block: 64},
		Observer:       metrics.NewObserver(),
	})
	if err != nil {
		b.Fatal(err)
	}
	tn := tensor.NewGenerator(1).Uniform(16384, 0.6)
	h, err := e.Register("bench", tn)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.SwapOut(h, true, compress.ZVC); err != nil {
			b.Fatal(err)
		}
		if err := e.SwapIn(h); err != nil {
			b.Fatal(err)
		}
	}
}
