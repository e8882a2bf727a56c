package metrics

import (
	"math"
	"sync"
	"testing"
)

// TestRegistryConcurrentStreams drives shared instruments from parallel
// goroutines the way concurrent swap streams drive the executor's
// registry; run under -race it also proves the lookup path and the
// atomic cells are data-race free.
func TestRegistryConcurrentStreams(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Re-resolve through the registry every time to stress the
				// map path, not just the atomic cells.
				r.Counter("swap_outs_total").Inc()
				r.Counter("moved_bytes_total", L("codec", "ZVC")).Add(4)
				r.Gauge("inflight").Add(1)
				r.Histogram("stall_seconds").Observe(float64(i%7) * 1e-4)
			}
		}(w)
	}
	wg.Wait()

	const total = workers * perWorker
	if got := r.Counter("swap_outs_total").Value(); got != total {
		t.Fatalf("swap_outs_total = %v, want %d", got, total)
	}
	if got := r.Counter("moved_bytes_total", L("codec", "ZVC")).Value(); got != 4*total {
		t.Fatalf("moved_bytes_total = %v, want %d", got, 4*total)
	}
	if got := r.Gauge("inflight").Value(); got != total {
		t.Fatalf("inflight = %v, want %d", got, total)
	}
	if got := r.Histogram("stall_seconds").Count(); got != total {
		t.Fatalf("stall_seconds count = %v, want %d", got, total)
	}
}

func TestCounterIgnoresNegativeAndLabelOrder(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("bytes", L("a", "1"), L("b", "2"))
	c.Add(-5)
	if c.Value() != 0 {
		t.Fatalf("negative delta applied: %v", c.Value())
	}
	c.Add(3)
	// Same labels in a different call-site order must hit the same series.
	if r.Counter("bytes", L("b", "2"), L("a", "1")) != c {
		t.Fatal("label order minted a new series")
	}
	if r.Counter("bytes", L("b", "2")) == c {
		t.Fatal("different label set aliased an existing series")
	}
}

// TestHistogramBucketBoundaries pins the placement rule: an observation
// lands in the first bucket whose upper bound is ≥ the value, with
// everything above the last bound in the +Inf overflow bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramWith("h", []float64{1, 10, 100})
	cases := []struct {
		v    float64
		want int // bucket index; 3 = +Inf overflow
	}{
		{-1, 0},
		{0, 0},
		{0.5, 0},
		{1, 0}, // on-boundary values belong to their bound's bucket (le semantics)
		{1.0001, 1},
		{10, 1},
		{99.9, 2},
		{100, 2},
		{100.0001, 3},
		{1e12, 3},
	}
	for _, tc := range cases {
		before := make([]int64, 4)
		for i := range before {
			before[i] = h.counts[i].Load()
		}
		h.Observe(tc.v)
		for i := range before {
			delta := h.counts[i].Load() - before[i]
			switch {
			case i == tc.want && delta != 1:
				t.Fatalf("Observe(%v): bucket %d delta %d, want 1", tc.v, i, delta)
			case i != tc.want && delta != 0:
				t.Fatalf("Observe(%v): bucket %d delta %d, want 0", tc.v, i, delta)
			}
		}
	}
	if got := h.Count(); got != int64(len(cases)) {
		t.Fatalf("Count = %d, want %d", got, len(cases))
	}
	h.Observe(math.NaN())
	if got := h.Count(); got != int64(len(cases)) {
		t.Fatal("NaN observation was counted")
	}
}

func TestExpBucketsLayouts(t *testing.T) {
	b := ExpBuckets(1, 2, 5)
	want := []float64{1, 2, 4, 8, 16}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets[%d] = %v, want %v", i, b[i], want[i])
		}
	}
	d := DefaultBuckets()
	if len(d) != 17 || d[0] != 1e-6 {
		t.Fatalf("DefaultBuckets = %v", d)
	}
	if math.Abs(d[16]-100) > 1e-9 {
		t.Fatalf("DefaultBuckets top = %v, want ~100", d[16])
	}
	for i := 1; i < len(d); i++ {
		if d[i] <= d[i-1] {
			t.Fatalf("DefaultBuckets not increasing at %d: %v", i, d)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid bucket spec accepted")
		}
	}()
	ExpBuckets(0, 2, 3)
}

// TestNilSafety proves the disabled-observability path: nil registries,
// instruments, and observers all no-op instead of crashing, which is what
// lets instrumented code run unguarded.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x").Observe(1)
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry produced series")
	}

	var o *Observer
	o.Emit("e", "k", "v")
	o.Reg().Counter("x").Inc()
}

func TestObserverEmit(t *testing.T) {
	var got []Event
	o := NewObserver()
	o.OnEvent = func(e Event) { got = append(got, e) }
	o.Emit("bo.probe", "grid", "128", "block", "64")
	o.Emit("plain")
	if len(got) != 2 {
		t.Fatalf("events = %d, want 2", len(got))
	}
	if got[0].Name != "bo.probe" || got[0].Attrs["grid"] != "128" || got[0].Attrs["block"] != "64" {
		t.Fatalf("event 0 = %+v", got[0])
	}
	if got[1].Attrs != nil {
		t.Fatalf("attr-less event got attrs %v", got[1].Attrs)
	}
}

// TestSubRegistryLabelsSeries: a Sub view stamps its base labels onto
// every series while sharing the root's backing store — distinct shards
// get distinct cells, and one snapshot sees them all.
func TestSubRegistryLabelsSeries(t *testing.T) {
	root := NewRegistry()
	s0 := root.Sub(L("shard", "0"))
	s1 := root.Sub(L("shard", "1"))

	s0.Counter("swaps_total").Add(3)
	s1.Counter("swaps_total").Add(5)
	s0.Counter("swaps_total", L("codec", "ZVC")).Inc()
	root.Counter("swaps_total").Add(7) // unlabeled root series is its own cell

	snap := root.Snapshot()
	if v, ok := snap.Counter("swaps_total", L("shard", "0")); !ok || v != 3 {
		t.Errorf("shard 0 series = %v (ok=%v), want 3", v, ok)
	}
	if v, ok := snap.Counter("swaps_total", L("shard", "1")); !ok || v != 5 {
		t.Errorf("shard 1 series = %v (ok=%v), want 5", v, ok)
	}
	if v, ok := snap.Counter("swaps_total", L("codec", "ZVC"), L("shard", "0")); !ok || v != 1 {
		t.Errorf("shard 0 codec series = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := snap.Counter("swaps_total"); !ok || v != 7 {
		t.Errorf("root series = %v (ok=%v), want 7", v, ok)
	}
	// A snapshot through a sub view is the same shared store.
	if v, ok := s1.Snapshot().Counter("swaps_total", L("shard", "0")); !ok || v != 3 {
		t.Errorf("snapshot via sub view: shard 0 = %v (ok=%v), want 3", v, ok)
	}
}

func TestSubRegistryBaseLabels(t *testing.T) {
	root := NewRegistry()
	if root.BaseLabels() != nil {
		t.Errorf("root BaseLabels = %v, want nil", root.BaseLabels())
	}
	sub := root.Sub(L("shard", "2")).Sub(L("tier", "hot"))
	base := sub.BaseLabels()
	if len(base) != 2 || base[0] != L("shard", "2") || base[1] != L("tier", "hot") {
		t.Errorf("nested BaseLabels = %v", base)
	}
	// Same (name, merged labels) resolves to the same cell from either path.
	a := sub.Counter("x_total")
	b := root.Counter("x_total", L("tier", "hot"), L("shard", "2"))
	if a != b {
		t.Error("sub view and explicit labels minted different cells")
	}
	var nilReg *Registry
	if nilReg.Sub(L("a", "b")) != nil {
		t.Error("nil registry Sub must stay nil")
	}
	if nilReg.Sub(L("a", "b")).Counter("x") != nil {
		t.Error("nil sub view must hand out nil instruments")
	}
}
