package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3} // unsorted on purpose: percentile must not reorder its input
	for _, c := range []struct{ p, want float64 }{{50, 3}, {90, 5}, {20, 1}, {21, 2}, {100, 5}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if s[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing should be 0")
	}
}

// The tail a workload reports is its nominal percentile only while at least
// ten samples lie beyond it; with fewer it steps down.
func TestTailPercentileTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		nominal float64
		want    float64
	}{
		{120, 90, 90},  // 12 beyond p90
		{100, 90, 90},  // exactly 10 beyond
		{99, 90, 75},   // 9 beyond p90: step down
		{1000, 99, 99}, // exactly 10 beyond p99
		{999, 99, 95},
		{4000, 99, 99},
		{20000, 99, 99},
		{39, 99, 50}, // nothing has ten beyond it: the median
		{40, 99, 75},
	} {
		if got := tailPercentile(c.n, c.nominal); got != c.want {
			t.Errorf("tailPercentile(%d, p%g) = p%g, want p%g", c.n, c.nominal, got, c.want)
		}
		if p := tailPercentile(c.n, c.nominal); p > 50 && c.n-rank(c.n, p) < minBeyond {
			t.Errorf("tailPercentile(%d) = p%g leaves fewer than %d samples beyond", c.n, p, minBeyond)
		}
	}
}

func TestPassMedian(t *testing.T) {
	// Three passes of 100 MB at 1 s, 2 s and 4 s: 100, 50, 25 MB/s.
	got := passMedian([]int64{100e6, 100e6, 100e6}, []float64{1, 2, 4})
	if got != 50 {
		t.Errorf("passMedian = %v, want 50", got)
	}
	if passMedian(nil, nil) != 0 {
		t.Error("no passes should give 0")
	}
}

// A layer's self time is its rung minus the rungs it calls, weighted by how
// often it calls them.
func TestSelfTimeDifferencing(t *testing.T) {
	// server rung 10 ms = executor 6 + wire 1.5 + sched 0.5 + own 2.
	if got := selfTime(10, once(6), once(1.5), once(0.5)); math.Abs(got-2) > 1e-12 {
		t.Errorf("self time = %v, want 2", got)
	}
	// executor rung 5 ms with a 1 ms tier put on 3 of 4 swap-outs and a 2 ms encode.
	if got := selfTime(5, once(2), weighted{1, 0.75}); math.Abs(got-2.25) > 1e-12 {
		t.Errorf("weighted self time = %v, want 2.25", got)
	}
	// The ladder telescopes: self times of nested rungs sum to the outermost.
	client, server, exec, codec := 20.0, 12.0, 7.0, 4.0
	sum := selfTime(client, once(server)) + selfTime(server, once(exec)) + selfTime(exec, once(codec)) + codec
	if math.Abs(sum-client) > 1e-12 {
		t.Errorf("self times sum to %v, want the client rung %v", sum, client)
	}
}

// spread must agree with Python's statistics.quantiles(values, n=4), which
// the acceptance rule is written in.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := spread(v); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := spread([]float64{1, 2}); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("two-value spread = %v, want 1", got)
	}
	if spread([]float64{3}) != 0 {
		t.Error("one value has no spread")
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := []float64{1, 10, math.Inf(1)}
	if got := histQuantile(bounds, []int64{100, 0, 0}, 0.5); got != 0.5 {
		t.Errorf("all in the first bucket: p50 = %v, want 0.5", got)
	}
	if got := histQuantile(bounds, []int64{90, 10, 0}, 0.99); math.Abs(got-9.1) > 1e-9 {
		t.Errorf("p99 = %v, want 9.1", got)
	}
	if got := histQuantile(bounds, []int64{0, 0, 5}, 0.5); got != 10 {
		t.Errorf("overflow bucket reports its lower bound: got %v", got)
	}
	if histQuantile(bounds, []int64{0, 0, 0}, 0.5) != 0 {
		t.Error("empty histogram should give 0")
	}
}

// BENCHMARK.json is the contract; the tables in the program must say the same.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the package:", err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %+v, program says %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		if doc.EndToEnd[i].Name != m.name || doc.EndToEnd[i].Unit != m.unit {
			t.Errorf("end-to-end %d: BENCHMARK.json says %+v, program says %+v", i, doc.EndToEnd[i], m)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if doc.PerLayer[i].Name != m.name || doc.PerLayer[i].Unit != m.unit {
			t.Errorf("per-layer %d: BENCHMARK.json says %+v, program says %+v", i, doc.PerLayer[i], m)
		}
	}
}

// tiny is a workload small enough for a unit test. It goes through the
// in-process executor's synchronous calls only, so it never parks a swap on
// the shared worker pool and is safe at any -cpu.
var tiny = &spec{
	name: "tiny", callers: 1,
	tensors: 4, tensorBytes: 64 * kib, sparsity: []float64{0.2, 0.8}, reverseIn: true,
	device: 4 * mib, host: 4 * mib, tailPct: 90,
}

func TestTinyWorkloadRunsCorrect(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		res, err := runEndToEnd(config{seed: seed, seconds: 0.05, workDir: t.TempDir()}, tiny)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("seed %d: %+v", seed, res)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
				t.Errorf("seed %d: metric %s = %+v", seed, m.name, v)
			}
		}
	}
}

// corruptOne flips one bit of one element.
func corruptOne(data []float32) {
	if len(data) > 0 {
		i := len(data) / 2
		data[i] = math.Float32frombits(math.Float32bits(data[i]) ^ 1)
	}
}

// Corrupting one element of every restored payload must fail the run: either
// the warm-up already refuses to go on, or the result is marked incorrect.
// main turns both into a non-zero exit.
func TestCorruptRestoreFailsRun(t *testing.T) {
	corruptRestore = func(p payload) { corruptOne(p.tensor) }
	defer func() { corruptRestore = nil }()
	res, err := runEndToEnd(config{seed: 1, seconds: 0.05, workDir: t.TempDir()}, tiny)
	if err == nil && (res.Correct || res.Failed == 0) {
		t.Fatalf("a corrupted restore went unnoticed: %+v", res)
	}
}

// The same seed must give the same inputs, and another seed other ones.
func TestInputsFollowSeed(t *testing.T) {
	a, b, c := genInputs(tiny, 7), genInputs(tiny, 7), genInputs(tiny, 8)
	for i := range a.tensors {
		if !bitsEqual(a.tensors[i], b.tensors[i]) {
			t.Fatalf("tensor %d differs between two generations from one seed", i)
		}
	}
	if bitsEqual(a.tensors[0], c.tensors[0]) {
		t.Fatal("two seeds gave the same tensor")
	}
}
