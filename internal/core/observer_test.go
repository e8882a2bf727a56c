package core

import (
	"testing"

	"cswap/internal/dnn"
	"cswap/internal/gpu"
	"cswap/internal/metrics"
	"cswap/internal/swap"
)

func newObservedFramework(t *testing.T, obs *metrics.Observer) *Framework {
	t.Helper()
	d, err := gpu.ByName("V100")
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnn.BuildConfigured("AlexNet", "V100", dnn.ImageNet)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Model: m, Device: d, Seed: 1, SamplesPerAlg: 300, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestObserverThreadedThroughDeployment(t *testing.T) {
	obs := metrics.NewObserver()
	f := newObservedFramework(t, obs)

	// New timed each setup phase once, and the BO search it ran recorded
	// its probes.
	for _, phase := range []string{"tune", "train-predictor", "profile"} {
		h := obs.Metrics.Histogram("core_setup_seconds", metrics.L("phase", phase))
		if h.Count() != 1 || h.Sum() <= 0 {
			t.Fatalf("core_setup_seconds{phase=%q}: count %d sum %v, want one positive observation",
				phase, h.Count(), h.Sum())
		}
	}
	if probes := obs.Metrics.Counter("bayesopt_probes_total").Value(); int(probes) != f.Overhead.BOEvaluations {
		t.Fatalf("bayesopt probes %v, BO evaluations %d", probes, f.Overhead.BOEvaluations)
	}

	// One simulated iteration produces simulator metrics plus the
	// iteration-level rollups, consistent with the returned result.
	res, err := f.SimulateIteration(0, swap.NewOptions(swap.WithSeed(1)))
	if err != nil {
		t.Fatal(err)
	}
	snap := obs.Metrics.Snapshot()
	if v, ok := snap.Counter("core_iterations_total"); !ok || v != 1 {
		t.Fatalf("core_iterations_total = %v, %v", v, ok)
	}
	if v, ok := snap.Counter("sim_iterations_total"); !ok || v != 1 {
		t.Fatalf("sim_iterations_total = %v, %v", v, ok)
	}
	if g := obs.Metrics.Gauge("core_throughput_samples_per_second").Value(); g != res.Throughput {
		t.Fatalf("throughput gauge %v, result %v", g, res.Throughput)
	}
	plan, err := f.PlanEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := snap.Counter("core_compressed_tensors_total"); int(v) != plan.CompressedCount() {
		t.Fatalf("compressed rollup %v, plan compresses %d", v, plan.CompressedCount())
	}

	// Planning went through the observed advisor: verdict counters exist.
	total := 0.0
	for _, c := range snap.Counters {
		if c.Name == "costmodel_decisions_total" {
			total += c.Value
		}
	}
	if total == 0 {
		t.Fatal("no advisor verdicts recorded")
	}
}

func TestDecisionAccuracyFeedsRealizedErrors(t *testing.T) {
	obs := metrics.NewObserver()
	d, err := gpu.ByName("V100")
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnn.BuildConfigured("AlexNet", "V100", dnn.ImageNet)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Model: m, Device: d, Seed: 1, SamplesPerAlg: 300,
		Epochs: 2, Observer: obs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.DecisionAccuracy(0); err != nil {
		t.Fatal(err)
	}
	if v := obs.Metrics.Counter("costmodel_realized_samples_total").Value(); v == 0 {
		t.Fatal("DecisionAccuracy recorded no realized samples")
	}
	h := obs.Metrics.HistogramWith("costmodel_time_error_ratio", metrics.ExpBuckets(0.001, 2, 12))
	if h.Count() == 0 {
		t.Fatal("no prediction-error observations")
	}
}
