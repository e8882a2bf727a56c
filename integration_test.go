package cswap_test

// Cross-module integration tests: whole-system scenarios driven through
// the public API, asserting properties that only hold when the profiler,
// advisor, tuner, simulator, and executor agree with each other.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"cswap"
	"cswap/internal/experiments"
)

// TestIntegrationFullLifecycle walks one deployment through its whole life:
// deploy (tune + train + profile), estimate a training run, execute a
// functional iteration with real data under the advisor's plan, persist,
// resume, and verify the resumed deployment behaves identically.
func TestIntegrationFullLifecycle(t *testing.T) {
	model, err := cswap.BuildModel("SqueezeNet", cswap.ImageNet, 512)
	if err != nil {
		t.Fatal(err)
	}
	device := cswap.V100()
	fw, err := cswap.NewFramework(cswap.Config{
		Model: model, Device: device, Seed: 5, SamplesPerAlg: 400,
	})
	if err != nil {
		t.Fatal(err)
	}

	// 1. The tuned launch must beat the expert default on the calibration
	// workload (otherwise BO failed).
	tC, tDC := cswap.CompressionKernelTime(device, cswap.ZVC, 500<<20, 0.5, fw.Launch)
	eC, eDC := cswap.CompressionKernelTime(device, cswap.ZVC, 500<<20, 0.5, device.DefaultLaunch())
	if tC+tDC >= eC+eDC {
		t.Fatalf("tuned launch %v (%v) not better than expert (%v)", fw.Launch, tC+tDC, eC+eDC)
	}

	// 2. Whole-run estimate: CSWAP beats vDNN and the advantage grows as
	// sparsity rises across the run.
	te, err := fw.EstimateTraining(5, cswap.NewSimOptions(cswap.WithSeed(5)))
	if err != nil {
		t.Fatal(err)
	}
	if te.Reduction() <= 0 {
		t.Fatalf("no training-time reduction: %+v", te)
	}
	firstHalf, secondHalf := 0.0, 0.0
	for i, ep := range te.Epochs {
		gain := ep.VDNNIteration - ep.IterationTime
		if i < len(te.Epochs)/2 {
			firstHalf += gain
		} else {
			secondHalf += gain
		}
	}
	if secondHalf <= firstHalf {
		t.Fatalf("per-iteration gain did not grow with sparsity: %v then %v", firstHalf, secondHalf)
	}

	// 3. Functional execution of the advisor's plan moves fewer bytes than
	// raw swapping, at the ratio the advisor's size models predicted.
	plan, err := fw.PlanEpoch(45)
	if err != nil {
		t.Fatal(err)
	}
	const scale = 4096
	exec, err := cswap.NewExecutor(cswap.ExecutorConfig{
		DeviceCapacity: cswap.MinDeviceCapacity(model, scale),
		HostCapacity:   cswap.HostCapacityFor(model, scale),
		Verify:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cswap.RunFunctionalIteration(exec, model, plan, fw.Sparsity, 45, scale, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ratio() >= 1 {
		t.Fatalf("functional ratio %v", rep.Ratio())
	}
	// Predicted moved bytes from the plan's transfer ratios.
	var predicted, raw float64
	for i, tp := range plan.Tensors {
		b := float64(model.SwapTensors()[i].Bytes / scale)
		raw += b
		predicted += b * tp.TransferRatio
	}
	if got, want := rep.Ratio(), predicted/raw; math.Abs(got-want) > 0.06 {
		t.Fatalf("functional moved ratio %v, advisor predicted %v", got, want)
	}

	// 4. Resume from the database and reproduce the plan exactly.
	resumed, err := cswap.ResumeFramework(fw.DB, model, device, cswap.Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := resumed.PlanEpoch(45)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan2.Tensors) != len(plan.Tensors) {
		t.Fatal("resumed plan size differs")
	}
	for i := range plan.Tensors {
		if plan.Tensors[i].Compress != plan2.Tensors[i].Compress {
			t.Fatalf("resumed decision %d differs", i)
		}
	}
}

// TestIntegrationAsyncPipelineOverlap drives overlapped swap-out and
// prefetch streams through the public API: several tensors' swaps must be
// genuinely in flight at once (in-flight gauge observed above 1), every
// restore must be byte-exact under Verify, and concurrent misuse of a
// single handle must surface as ErrHandleBusy rather than corruption.
func TestIntegrationAsyncPipelineOverlap(t *testing.T) {
	// A per-chunk codec delay makes each swap far outlive its submission,
	// so the bounded window genuinely fills.
	inj := cswap.NewFaultInjector(
		cswap.Fault{Site: cswap.FaultSiteEncode, Mode: cswap.FaultDelay, Every: 1, Delay: 2 * time.Millisecond},
	)
	obs := cswap.NewObserver()
	exec, err := cswap.NewExecutor(cswap.ExecutorConfig{
		DeviceCapacity: 64 << 20,
		HostCapacity:   64 << 20,
		Verify:         true,
		MaxInFlight:    4,
		Faults:         inj,
		Observer:       obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()

	gen := cswap.NewTensorGenerator(11)
	const tensors = 6
	handles := make([]*cswap.TensorHandle, tensors)
	want := make([][]float32, tensors)
	for i := range handles {
		src := gen.Uniform(1<<14, 0.6)
		want[i] = append([]float32(nil), src.Data...)
		h, err := exec.Register("act", src)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}

	// Stream the swap-outs; misusing handle 0 while its swap is in flight
	// must be rejected, not interleaved.
	tickets := make([]*cswap.SwapTicket, tensors)
	for i, h := range handles {
		tickets[i] = exec.SwapOutAsyncCtx(context.Background(), h, true, cswap.ZVC)
		if i == 0 {
			if err := exec.SwapOut(h, true, cswap.ZVC); !errors.Is(err, cswap.ErrHandleBusy) {
				t.Fatalf("concurrent SwapOut on busy handle: %v", err)
			}
		}
	}
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("swap-out %d: %v", i, err)
		}
	}
	exec.Drain()

	// Prefetch everything back and verify byte-exact restores.
	for i, h := range handles {
		tickets[i] = exec.PrefetchCtx(context.Background(), h)
	}
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("prefetch %d: %v", i, err)
		}
	}
	for i, h := range handles {
		got, err := h.Data()
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != want[i][j] {
				t.Fatalf("tensor %d: restore differs at element %d", i, j)
			}
		}
	}

	snap := exec.Registry().Snapshot()
	peak, ok := snap.Gauge("executor_async_inflight_peak")
	if !ok || peak <= 1 {
		t.Fatalf("async in-flight peak = %v (present=%v); want > 1", peak, ok)
	}
	if cur, _ := snap.Gauge("executor_async_inflight"); cur != 0 {
		t.Fatalf("in-flight gauge %v after Drain", cur)
	}
	stats := exec.Stats()
	if stats.BusyRejections == 0 {
		t.Fatal("busy rejection not counted")
	}
	if stats.SwapOuts != tensors || stats.SwapIns != tensors {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestIntegrationExperimentsDeterministic re-runs the Figure 6 sweep and
// requires bit-identical results: the whole pipeline is seeded.
func TestIntegrationExperimentsDeterministic(t *testing.T) {
	cfg := experiments.Fast(3)
	a, err := experiments.Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := experiments.Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pa := range a.Platforms {
		pb := b.Platform(pa.GPU, pa.Dataset)
		for _, m := range pa.Models() {
			for _, fr := range experiments.FrameworkNames {
				if pa.Cells[m][fr] != pb.Cells[m][fr] {
					t.Fatalf("%s/%s %s %s differs between runs", pa.GPU, pa.Dataset, m, fr)
				}
			}
		}
	}
}

// TestIntegrationAdvisorConsistentWithSimulator spot-checks that when the
// advisor predicts a large gain for a tensor, flipping that tensor off in
// the simulator really does cost time.
func TestIntegrationAdvisorConsistentWithSimulator(t *testing.T) {
	model, err := cswap.BuildModel("VGG16", cswap.ImageNet, 128)
	if err != nil {
		t.Fatal(err)
	}
	device := cswap.V100()
	fw, err := cswap.NewFramework(cswap.Config{
		Model: model, Device: device, Seed: 2, SamplesPerAlg: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	np, err := fw.ProfileAt(49)
	if err != nil {
		t.Fatal(err)
	}
	decs, _, names, err := fw.DecisionsAt(49)
	if err != nil {
		t.Fatal(err)
	}
	// Find the compressed tensor with the largest predicted gain.
	best, gain := -1, 0.0
	for i, d := range decs {
		if d.Compress && d.Gain() > gain {
			best, gain = i, d.Gain()
		}
	}
	if best < 0 {
		t.Fatal("no compressed tensor at epoch 49")
	}
	plan, err := fw.PlanEpoch(49)
	if err != nil {
		t.Fatal(err)
	}
	with, err := cswap.Simulate(model, device, np, plan, cswap.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	flipped := &cswap.Plan{Framework: "flip", Tensors: append([]cswap.TensorPlan(nil), plan.Tensors...)}
	flipped.Tensors[best] = cswap.TensorPlan{TransferRatio: 1}
	without, err := cswap.Simulate(model, device, np, flipped, cswap.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if without.IterationTime <= with.IterationTime {
		t.Fatalf("dropping %s (predicted gain %.1f ms) did not slow the iteration (%v vs %v)",
			names[best], gain*1e3, without.IterationTime, with.IterationTime)
	}
}
