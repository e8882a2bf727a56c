package swap

import (
	"math"
	"testing"

	"cswap/internal/metrics"
	"cswap/internal/trace"
)

func TestNewOptionsMatchesDefaults(t *testing.T) {
	if got, want := NewOptions(), DefaultOptions(0); got != want {
		t.Fatalf("NewOptions() = %+v, want %+v", got, want)
	}
	tl := &trace.Timeline{}
	obs := metrics.NewObserver()
	o := NewOptions(WithSeed(7), WithJitter(0.25), WithInterference(0.1),
		WithTrace(tl), WithObserver(obs), WithPipelinedCodec(true),
		WithEagerPrefetch(true), nil)
	if o.Seed != 7 || o.Jitter != 0.25 || o.Interference != 0.1 {
		t.Fatalf("scalar options not applied: %+v", o)
	}
	if o.Trace != tl || o.Observer != obs {
		t.Fatal("pointer options not applied")
	}
	if !o.PipelinedCodec || !o.EagerPrefetch {
		t.Fatalf("ablation toggles not applied: %+v", o)
	}
}

func TestSimulateRecordsStreamBusyTotals(t *testing.T) {
	m, d, np := testSetup(t, "VGG16", 0)
	plan := CSWAP{Predictor: fixedPredictor{c: 1e-3, dc: 1e-3}, Launch: d.DefaultLaunch()}.Plan(np, d)

	obs := metrics.NewObserver()
	res, err := Simulate(m, d, np, plan, NewOptions(WithSeed(1), WithObserver(obs)))
	if err != nil {
		t.Fatal(err)
	}

	snap := obs.Metrics.Snapshot()
	if v, ok := snap.Counter("sim_iterations_total"); !ok || v != 1 {
		t.Fatalf("sim_iterations_total = %v, %v", v, ok)
	}
	for _, tc := range []struct {
		stream string
		want   float64
	}{
		{"compute", res.ComputeBusy},
		{"kernel", res.KernelBusy},
		{"d2h", res.D2HBusy},
		{"h2d", res.H2DBusy},
	} {
		v, ok := snap.Counter("sim_stream_busy_seconds_total", metrics.L("stream", tc.stream))
		if !ok || math.Abs(v-tc.want) > 1e-12 {
			t.Fatalf("busy[%s] = %v, want %v (ok=%v)", tc.stream, v, tc.want, ok)
		}
	}
	if v, ok := snap.Counter("sim_exposed_seconds_total"); !ok || math.Abs(v-res.SwapExposed) > 1e-12 {
		t.Fatalf("exposed total = %v, want %v", v, res.SwapExposed)
	}

	// Decision counts cover every planned tensor.
	total := 0.0
	for _, c := range snap.Counters {
		if c.Name == "sim_decisions_total" {
			total += c.Value
		}
	}
	if int(total) != len(plan.Tensors) {
		t.Fatalf("decision counts %v, want %d", total, len(plan.Tensors))
	}
}

func TestSimulateRecordsOnExplicitTimeline(t *testing.T) {
	m, d, np := testSetup(t, "AlexNet", 0)
	plan := VDNN{}.Plan(np, d)

	tl := &trace.Timeline{}
	if _, err := Simulate(m, d, np, plan, NewOptions(WithTrace(tl), WithObserver(metrics.NewObserver()))); err != nil {
		t.Fatal(err)
	}
	if len(tl.Streams()) == 0 {
		t.Fatal("explicit timeline received no spans")
	}
}

func TestCSWAPPlanCountsAdvisorVerdicts(t *testing.T) {
	_, d, np := testSetup(t, "VGG16", 0)
	obs := metrics.NewObserver()
	plan := CSWAP{
		Predictor: fixedPredictor{c: 1e-3, dc: 1e-3},
		Launch:    d.DefaultLaunch(),
		Observer:  obs,
	}.Plan(np, d)

	snap := obs.Metrics.Snapshot()
	total := 0.0
	for _, c := range snap.Counters {
		if c.Name == "costmodel_decisions_total" {
			total += c.Value
		}
	}
	if int(total) != len(np.Tensors) {
		t.Fatalf("decision counter total %v, want one per tensor (%d)", total, len(np.Tensors))
	}
	compressed := 0.0
	for _, c := range snap.Counters {
		if c.Name == "costmodel_decisions_total" && c.Labels["verdict"] == "compress" {
			compressed += c.Value
		}
	}
	if int(compressed) != plan.CompressedCount() {
		t.Fatalf("compress verdicts %v, plan compresses %d", compressed, plan.CompressedCount())
	}
}
