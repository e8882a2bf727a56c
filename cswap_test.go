package cswap_test

import (
	"math"
	"runtime"
	"testing"

	"cswap"
)

func TestPublicCodecRoundTrip(t *testing.T) {
	gen := cswap.NewTensorGenerator(1)
	tn := gen.Uniform(10000, 0.6)
	for _, a := range cswap.Algorithms() {
		c, err := cswap.NewCodec(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(c.Encode(tn.Data))
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(tn.Data[i]) {
				t.Fatalf("%s mismatch at %d", a, i)
			}
		}
	}
}

func TestPublicParallelLaunch(t *testing.T) {
	gen := cswap.NewTensorGenerator(2)
	tn := gen.Uniform(50000, 0.5)
	launch := cswap.Launch{Grid: 199, Block: 64}
	blob, err := cswap.ParallelEncode(cswap.ZVC, tn.Data, launch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cswap.ParallelDecode(blob, launch)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != tn.Len() {
		t.Fatal("length mismatch")
	}
	if r := float64(len(blob)) / float64(tn.SizeBytes()); r > 0.6 {
		t.Fatalf("ZVC ratio %v at 50%% sparsity", r)
	}
}

func TestPublicDeviceCatalog(t *testing.T) {
	if cswap.V100().Name != "V100" || cswap.RTX2080Ti().Name != "2080Ti" {
		t.Fatal("device names wrong")
	}
	if _, err := cswap.DeviceByName("V100"); err != nil {
		t.Fatal(err)
	}
	if len(cswap.ModelNames()) != 6 {
		t.Fatal("six models expected")
	}
}

func TestPublicModelAndBatch(t *testing.T) {
	b, err := cswap.BatchSize("VGG16", "V100", cswap.ImageNet)
	if err != nil || b != 128 {
		t.Fatalf("BatchSize = %d, %v", b, err)
	}
	m, err := cswap.BuildModel("VGG16", cswap.ImageNet, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.SwapTensors()) == 0 {
		t.Fatal("no swap tensors")
	}
}

func TestPublicEndToEndFramework(t *testing.T) {
	m, err := cswap.BuildModel("SqueezeNet", cswap.ImageNet, 512)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := cswap.NewFramework(cswap.Config{
		Model: m, Device: cswap.V100(), Seed: 1, SamplesPerAlg: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := fw.SimulateIteration(49, cswap.NewSimOptions(cswap.WithSeed(1)))
	if err != nil {
		t.Fatal(err)
	}
	if r.IterationTime <= 0 || r.Throughput <= 0 {
		t.Fatalf("bad result %+v", r)
	}
	// Compare against vDNN through the public API.
	np, err := fw.ProfileAt(49)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := cswap.Simulate(m, fw.Config.Device, np, cswap.VDNN{}.Plan(np, fw.Config.Device),
		cswap.NewSimOptions(cswap.WithSeed(1)))
	if err != nil {
		t.Fatal(err)
	}
	if r.IterationTime >= rv.IterationTime {
		t.Fatalf("CSWAP %v not faster than vDNN %v", r.IterationTime, rv.IterationTime)
	}
}

func TestPublicCostModel(t *testing.T) {
	d := cswap.Decide(cswap.CostParams{
		SizeBytes: 500 << 20, Sparsity: 0.8,
		BWd2h: 11.7e9, BWh2d: 10.6e9,
		HiddenF: 0.01, HiddenB: 0.01,
		TimeC: 0.012, TimeDC: 0.008,
	})
	if !d.Compress {
		t.Fatal("large sparse tensor should compress")
	}
}

func TestPublicBayesOpt(t *testing.T) {
	dev := cswap.V100()
	obj := func(l cswap.Launch) float64 {
		// A smooth valley at grid 100 suffices for the API test.
		g := float64(l.Grid)
		return (g-100)*(g-100)/1e4 + 1
	}
	res := (&cswap.BayesOpt{Seed: 3}).Search(obj)
	if res.Evaluations != 35 {
		t.Fatalf("evaluations = %d", res.Evaluations)
	}
	if err := res.Best.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = dev
}

func TestPublicEstimateRatio(t *testing.T) {
	if r := cswap.EstimateRatio(cswap.ZVC, 0.5); math.Abs(r-0.53125) > 1e-9 {
		t.Fatalf("ZVC ratio = %v", r)
	}
}

func TestPublicFunctionalExecutorPath(t *testing.T) {
	model, err := cswap.BuildModel("AlexNet", cswap.ImageNet, 64)
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
	sp := cswap.SparsityForModel(model, 50, 1)
	tensors := model.SwapTensors()
	plan := &cswap.Plan{Framework: "test"}
	for range tensors {
		plan.Tensors = append(plan.Tensors, cswap.TensorPlan{Compress: true, Alg: cswap.ZVC, TransferRatio: 0.5})
	}
	rep, err := cswap.RunFunctionalIteration(exec, model, plan, sp, 10, scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ratio() >= 1 || rep.Compressed != len(tensors) {
		t.Fatalf("report %+v", rep)
	}
}

// TestObservedExecutorHeapStaysFlat cycles one small tensor through a
// verifying executor with an Observer attached, as a long training run
// would: nothing the observer records may grow with the number of swaps, so
// the heap in use after 10⁵ round trips stays within a fixed bound of the
// heap after the first 10⁴.
func TestObservedExecutorHeapStaysFlat(t *testing.T) {
	exec, err := cswap.NewExecutor(cswap.ExecutorConfig{
		DeviceCapacity: 1 << 20,
		HostCapacity:   1 << 20,
		Verify:         true,
		Observer:       cswap.NewObserver(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	h, err := exec.Register("act", cswap.NewTensorGenerator(1).Uniform(4096, 0.6)) // 16 KiB
	if err != nil {
		t.Fatal(err)
	}
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			if err := exec.SwapOut(h, true, cswap.ZVC); err != nil {
				t.Fatal(err)
			}
			if err := exec.SwapIn(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	heapInUse := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse)
	}
	cycle(10_000)
	base := heapInUse()
	cycle(90_000)
	if grew := heapInUse() - base; grew > 512<<10 {
		t.Fatalf("heap in use grew %d KiB over 90 000 observed round trips, want ≤ 512 KiB", grew>>10)
	}
}

func TestPublicResumeFramework(t *testing.T) {
	model, err := cswap.BuildModel("AlexNet", cswap.ImageNet, 64)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := cswap.NewFramework(cswap.Config{
		Model: model, Device: cswap.V100(), Seed: 1, SamplesPerAlg: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := cswap.ResumeFramework(fw.DB, model, cswap.V100(), cswap.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Launch != fw.Launch {
		t.Fatal("resumed launch differs")
	}
	// Fresh empty DB has nothing to resume from.
	if _, err := cswap.ResumeFramework(cswap.NewDB(), model, cswap.V100(), cswap.Config{}); err == nil {
		t.Fatal("resume from empty DB accepted")
	}
}

func TestPublicMemoryAwareAndPeakBytes(t *testing.T) {
	model, err := cswap.BuildModel("AlexNet", cswap.ImageNet, 64)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := cswap.NewFramework(cswap.Config{
		Model: model, Device: cswap.V100(), Seed: 1, SamplesPerAlg: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	np, err := fw.ProfileAt(25)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, tp := range np.Tensors {
		total += tp.Bytes
	}
	ma := cswap.MemoryAware{Inner: fw.Planner(), BudgetBytes: total * 2, Model: model}
	plan := ma.Plan(np, fw.Config.Device)
	if got := cswap.PlanPeakBytes(np, plan); got != total {
		t.Fatalf("all-resident peak %d, want %d", got, total)
	}
}

func TestPublicExtendedAlgorithms(t *testing.T) {
	ext := cswap.ExtendedAlgorithms()
	if len(ext) != 5 || ext[4] != cswap.Huffman {
		t.Fatalf("ExtendedAlgorithms = %v", ext)
	}
	c, err := cswap.NewCodec(cswap.Huffman)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(c.Encode([]float32{1, 0, 0, 2}))
	if err != nil || len(got) != 4 {
		t.Fatal("huffman facade round-trip failed")
	}
}

func TestPublicFaultInjectionSurface(t *testing.T) {
	model, err := cswap.BuildModel("AlexNet", cswap.ImageNet, 64)
	if err != nil {
		t.Fatal(err)
	}
	const scale = 4096
	inj := cswap.NewFaultInjector(
		cswap.Fault{Site: cswap.FaultSiteEncode, Mode: cswap.FaultFail, After: 2, Every: 30},
		cswap.Fault{Site: cswap.FaultSiteTransferIn, Mode: cswap.FaultCorrupt, After: 1, Every: 4},
	)
	exec, err := cswap.NewExecutor(cswap.ExecutorConfig{
		DeviceCapacity: cswap.MinDeviceCapacity(model, scale),
		HostCapacity:   cswap.HostCapacityFor(model, scale),
		Verify:         true,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := cswap.SparsityForModel(model, 50, 1)
	plan := &cswap.Plan{Framework: "test"}
	for range model.SwapTensors() {
		plan.Tensors = append(plan.Tensors, cswap.TensorPlan{Compress: true, Alg: cswap.ZVC, TransferRatio: 0.5})
	}
	rep, err := cswap.RunFunctionalIteration(exec, model, plan, sp, 10, scale, 1)
	if err != nil {
		t.Fatalf("iteration must survive injected faults: %v", err)
	}
	st := exec.Stats()
	if st.EncodeFallbacks == 0 || st.DecodeRecoveries == 0 {
		t.Fatalf("faults never fired: %+v", st)
	}
	if st.Verified != rep.Tensors {
		t.Fatalf("verified %d of %d", st.Verified, rep.Tensors)
	}
	if fs := exec.FaultStats(); fs.Total() == 0 {
		t.Fatalf("fault stats %+v", fs)
	}
	// The error taxonomy is visible at the surface.
	if !cswap.RecoverableError(cswap.ErrCorrupt) || cswap.RecoverableError(cswap.ErrAlgorithmMismatch) {
		t.Fatal("RecoverableError taxonomy wrong")
	}
}
