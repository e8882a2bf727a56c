package core

import (
	"testing"

	"cswap/internal/dnn"
	"cswap/internal/faultinject"
	"cswap/internal/gpu"
	"cswap/internal/profiler"
	"cswap/internal/swap"
)

// newTestFramework builds a small-sample deployment for fast tests.
func newTestFramework(t *testing.T, model string, gpuName string, ds dnn.Dataset) *Framework {
	t.Helper()
	d, err := gpu.ByName(gpuName)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnn.BuildConfigured(model, gpuName, ds)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Model: m, Device: d, Seed: 1, SamplesPerAlg: 300})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestNewTunesLaunchAndTrainsPredictor(t *testing.T) {
	f := newTestFramework(t, "VGG16", "V100", dnn.ImageNet)
	if err := f.Launch.Validate(); err != nil {
		t.Fatalf("tuned launch invalid: %v", err)
	}
	if f.Predictor == nil || f.Profile == nil || f.Sparsity == nil {
		t.Fatal("components missing")
	}
	if f.Overhead.BOEvaluations != 35 {
		t.Fatalf("BO evaluations = %d, want 35 (s1=10 + s2=25)", f.Overhead.BOEvaluations)
	}
	if f.Overhead.BOModeledSeconds <= 0 {
		t.Fatal("BO modeled time missing")
	}
	// The tuned launch must beat the expert default on the calibration
	// workload.
	cal := gpu.KernelParams{SizeBytes: 500 << 20, Sparsity: 0.5}
	cal.Alg = 1 // ZVC
	tuned := cal
	tuned.Launch = f.Launch
	expert := cal
	expert.Launch = f.Config.Device.DefaultLaunch()
	if f.Config.Device.CompressionTimeTotal(tuned) >= f.Config.Device.CompressionTimeTotal(expert) {
		t.Fatal("BO-tuned launch not better than expert default")
	}
}

func TestSkipTuningUsesExpertLaunch(t *testing.T) {
	d := gpu.V100()
	m := dnn.MustBuild("AlexNet", dnn.ImageNet, 64)
	f, err := New(Config{Model: m, Device: d, Seed: 1, SamplesPerAlg: 200, SkipTuning: true})
	if err != nil {
		t.Fatal(err)
	}
	if f.Launch != d.DefaultLaunch() {
		t.Fatalf("launch = %v, want expert default %v", f.Launch, d.DefaultLaunch())
	}
	if f.Overhead.BOEvaluations != 0 {
		t.Fatal("BO should not have run")
	}
}

func TestProfilePersistedInDB(t *testing.T) {
	f := newTestFramework(t, "AlexNet", "V100", dnn.CIFAR10)
	np, ok, err := profiler.Load(f.DB, "AlexNet", "V100")
	if err != nil || !ok {
		t.Fatalf("profile not in memdb: %v %v", ok, err)
	}
	if len(np.Tensors) != len(f.Profile.Tensors) {
		t.Fatal("stored profile differs")
	}
}

func TestPlanEpochSelectiveAndValid(t *testing.T) {
	f := newTestFramework(t, "VGG16", "V100", dnn.ImageNet)
	early, err := f.PlanEpoch(0)
	if err != nil {
		t.Fatal(err)
	}
	late, err := f.PlanEpoch(49)
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Validate(f.Profile); err != nil {
		t.Fatal(err)
	}
	// Figure 8/9: the compressed-layer count grows as sparsity rises.
	if late.CompressedCount() <= early.CompressedCount() {
		t.Fatalf("compressed layers: epoch 0 = %d, epoch 49 = %d; expected growth",
			early.CompressedCount(), late.CompressedCount())
	}
}

func TestCompressedLayerCountMatchesPlan(t *testing.T) {
	f := newTestFramework(t, "AlexNet", "V100", dnn.CIFAR10)
	n, err := f.CompressedLayerCount(49)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := f.PlanEpoch(49)
	if err != nil {
		t.Fatal(err)
	}
	if n != plan.CompressedCount() {
		t.Fatalf("count %d != plan %d", n, plan.CompressedCount())
	}
}

func TestDecisionsAtNamesAndVerdicts(t *testing.T) {
	f := newTestFramework(t, "VGG16", "V100", dnn.ImageNet)
	decs, algs, names, err := f.DecisionsAt(49)
	if err != nil {
		t.Fatal(err)
	}
	if len(decs) != len(algs) || len(decs) != len(names) {
		t.Fatal("length mismatch")
	}
	if names[0] != "ReLU1" {
		t.Fatalf("first tensor = %s", names[0])
	}
	anyCompress := false
	for i, d := range decs {
		if d.Compress {
			anyCompress = true
			if _, err := algs[i], error(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !anyCompress {
		t.Fatal("no tensor compressed at epoch 49")
	}
}

func TestSimulateIterationBeatsVDNN(t *testing.T) {
	f := newTestFramework(t, "SqueezeNet", "V100", dnn.ImageNet)
	opt := swap.DefaultOptions(7)
	rc, err := f.SimulateIteration(49, opt)
	if err != nil {
		t.Fatal(err)
	}
	np, err := f.ProfileAt(49)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := swap.Simulate(f.Config.Model, f.Config.Device, np, swap.VDNN{}.Plan(np, f.Config.Device), opt)
	if err != nil {
		t.Fatal(err)
	}
	if rc.IterationTime >= rv.IterationTime {
		t.Fatalf("CSWAP %v not faster than vDNN %v", rc.IterationTime, rv.IterationTime)
	}
}

func TestDecisionAccuracyHigh(t *testing.T) {
	if testing.Short() {
		t.Skip("long: 50 epochs × 2 simulations")
	}
	f := newTestFramework(t, "VGG16", "V100", dnn.ImageNet)
	acc, err := f.DecisionAccuracy(0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 11: ≈94.2 % average. Accept anything clearly above
	// chance and below suspicious perfection... high but imperfect.
	if acc < 0.80 {
		t.Fatalf("decision accuracy %.3f, want ≥ 0.80", acc)
	}
	if acc > 0.999 {
		t.Fatalf("decision accuracy %.3f suspiciously perfect — jitter not biting?", acc)
	}
}

func TestEstimateTrainingProjection(t *testing.T) {
	f := newTestFramework(t, "SqueezeNet", "V100", dnn.ImageNet)
	te, err := f.EstimateTraining(10, swap.DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(te.Epochs) != f.Config.Epochs {
		t.Fatalf("epochs = %d, want %d", len(te.Epochs), f.Config.Epochs)
	}
	if te.TotalTime <= 0 || te.VDNNTotalTime <= te.TotalTime {
		t.Fatalf("totals: cswap %v, vdnn %v", te.TotalTime, te.VDNNTotalTime)
	}
	if te.Reduction() <= 0 || te.Reduction() > 0.6 {
		t.Fatalf("reduction %v out of plausible range", te.Reduction())
	}
	if te.TotalSwapSaved <= 0 {
		t.Fatal("no swap latency saved")
	}
	// Compressed-layer counts must not decrease over the run for a
	// rising-sparsity model (allowing wobble of one layer).
	first, last := te.Epochs[0].Compressed, te.Epochs[len(te.Epochs)-1].Compressed
	if last+1 < first {
		t.Fatalf("compressed layers fell from %d to %d", first, last)
	}
	// Totals scale linearly with itersPerEpoch.
	te2, err := f.EstimateTraining(20, swap.DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	ratio := te2.TotalTime / te.TotalTime
	if ratio < 1.99 || ratio > 2.01 {
		t.Fatalf("doubling iterations scaled time by %v", ratio)
	}
}

func TestEstimateTrainingValidatesInput(t *testing.T) {
	f := newTestFramework(t, "AlexNet", "V100", dnn.CIFAR10)
	if _, err := f.EstimateTraining(0, swap.DefaultOptions(1)); err == nil {
		t.Fatal("accepted zero iterations per epoch")
	}
}

func TestResumeFromDatabase(t *testing.T) {
	f := newTestFramework(t, "SqueezeNet", "V100", dnn.ImageNet)

	// Resume a second deployment purely from the stored state.
	g, err := Resume(f.DB, f.Config.Model, f.Config.Device, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Launch != f.Launch {
		t.Fatalf("resumed launch %v, want %v", g.Launch, f.Launch)
	}
	// The resumed advisor must make identical decisions.
	d1, a1, _, err := f.DecisionsAt(30)
	if err != nil {
		t.Fatal(err)
	}
	d2, a2, _, err := g.DecisionsAt(30)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1 {
		if d1[i].Compress != d2[i].Compress || a1[i] != a2[i] {
			t.Fatalf("decision %d differs after resume", i)
		}
	}
}

func TestResumeValidation(t *testing.T) {
	f := newTestFramework(t, "AlexNet", "V100", dnn.CIFAR10)
	if _, err := Resume(nil, f.Config.Model, f.Config.Device, Config{}); err == nil {
		t.Fatal("nil db accepted")
	}
	// Wrong model: no profile stored.
	other := dnn.MustBuild("VGG16", dnn.CIFAR10, 8)
	if _, err := Resume(f.DB, other, f.Config.Device, Config{}); err == nil {
		t.Fatal("missing profile accepted")
	}
	// Model mismatch against a stored profile of the same name: VGG16 on
	// CIFAR10 has 19 swappable tensors, on ImageNet 20.
	g := newTestFramework(t, "VGG16", "V100", dnn.ImageNet)
	mismatched := dnn.MustBuild("VGG16", dnn.CIFAR10, 8)
	if _, err := Resume(g.DB, mismatched, g.Config.Device, Config{}); err == nil {
		t.Fatal("tensor-count mismatch accepted")
	}
}

func TestNewExecutorWiresTunedLaunchAndFaults(t *testing.T) {
	f := newTestFramework(t, "AlexNet", "V100", dnn.ImageNet)
	inj := faultinject.New(
		faultinject.Fault{Site: faultinject.SiteEncode, Mode: faultinject.Fail, After: 2, Every: 50},
	)
	e, err := f.NewExecutor(4096, inj)
	if err != nil {
		t.Fatal(err)
	}
	// Drive one functional iteration under the deployment's own plan; the
	// injected encode failures must degrade to raw swaps, not abort.
	plan, err := f.PlanEpoch(10)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunIteration(e, f.Config.Model, plan, f.Sparsity, 10, 4096, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tensors == 0 {
		t.Fatal("iteration touched no tensors")
	}
	if st := e.Stats(); st.Verified != rep.Tensors {
		t.Fatalf("verified %d of %d tensors", st.Verified, rep.Tensors)
	}
}
