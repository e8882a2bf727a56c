package core

import (
	"testing"

	"cswap/internal/compress"
	"cswap/internal/dnn"
	"cswap/internal/executor"
	"cswap/internal/faultinject"
	"cswap/internal/sparsity"
	"cswap/internal/swap"
)

func TestRunIterationFunctionalTrainingLoop(t *testing.T) {
	m := dnn.MustBuild("AlexNet", dnn.ImageNet, 64)
	sp := sparsity.ForModel(m, 50, 1)
	const scale = 4096

	// Plan: compress every other tensor with ZVC.
	tensors := m.SwapTensors()
	plan := &swap.Plan{Framework: "test", Tensors: make([]swap.TensorPlan, len(tensors))}
	for i := range plan.Tensors {
		plan.Tensors[i] = swap.TensorPlan{TransferRatio: 1}
		if i%2 == 0 {
			plan.Tensors[i] = swap.TensorPlan{
				Compress: true, Alg: compress.ZVC,
				TransferRatio: 0.5,
			}
		}
	}
	e, err := executor.New(executor.Config{
		DeviceCapacity: MinDeviceCapacity(m, scale),
		HostCapacity:   HostCapacityFor(m, scale),
		Launch:         compress.Launch{Grid: 8, Block: 64},
		Verify:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunIteration(e, m, plan, sp, 25, scale, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tensors != len(tensors) {
		t.Fatalf("tensors = %d", rep.Tensors)
	}
	if rep.Compressed != (len(tensors)+1)/2 {
		t.Fatalf("compressed = %d, want %d", rep.Compressed, (len(tensors)+1)/2)
	}
	if rep.Ratio() >= 1 {
		t.Fatalf("iteration ratio %v, compression should reduce moved bytes", rep.Ratio())
	}
	if rep.PeakDeviceBytes > MinDeviceCapacity(m, scale) {
		t.Fatal("device pool exceeded capacity")
	}
	// Everything cleaned up.
	if e.Live() != 0 || e.DeviceStats().Used != 0 || e.HostStats().Used != 0 {
		t.Fatalf("leaked: live=%d dev=%d host=%d",
			e.Live(), e.DeviceStats().Used, e.HostStats().Used)
	}
	if st := e.Stats(); st.Verified != len(tensors) {
		t.Fatalf("verified %d of %d", st.Verified, len(tensors))
	}
	if rep.MeanSparsity < 0.2 || rep.MeanSparsity > 0.9 {
		t.Fatalf("mean sparsity %v", rep.MeanSparsity)
	}
}

func TestRunIterationMemoryRelief(t *testing.T) {
	// The point of swapping: peak device usage stays near the two largest
	// tensors even though the sum of activations is far larger.
	m := dnn.MustBuild("VGG16", dnn.ImageNet, 32)
	sp := sparsity.ForModel(m, 50, 1)
	const scale = 8192
	plan := &swap.Plan{Framework: "vDNN", Tensors: make([]swap.TensorPlan, len(m.SwapTensors()))}
	for i := range plan.Tensors {
		plan.Tensors[i] = swap.TensorPlan{TransferRatio: 1}
	}
	cap := MinDeviceCapacity(m, scale)
	e, err := executor.New(executor.Config{DeviceCapacity: cap, HostCapacity: HostCapacityFor(m, scale), Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunIteration(e, m, plan, sp, 0, scale, 3)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, st := range m.SwapTensors() {
		total += st.Bytes / scale
	}
	if rep.PeakDeviceBytes >= total/2 {
		t.Fatalf("peak %d not far below total %d — swapping bought no relief",
			rep.PeakDeviceBytes, total)
	}
}

func TestRunIterationRejectsMismatchedPlan(t *testing.T) {
	m := dnn.MustBuild("AlexNet", dnn.ImageNet, 64)
	sp := sparsity.ForModel(m, 50, 1)
	e, err := executor.New(executor.Config{DeviceCapacity: 1 << 24, HostCapacity: 1 << 24})
	if err != nil {
		t.Fatal(err)
	}
	plan := &swap.Plan{Framework: "bad", Tensors: make([]swap.TensorPlan, 1)}
	if _, err := RunIteration(e, m, plan, sp, 0, 1024, 1); err == nil {
		t.Fatal("mismatched plan accepted")
	}
}

func TestCapacityHelpers(t *testing.T) {
	m := dnn.MustBuild("VGG16", dnn.ImageNet, 128)
	devCap := MinDeviceCapacity(m, 1024)
	hostCap := HostCapacityFor(m, 1024)
	if devCap <= 0 || hostCap <= devCap {
		t.Fatalf("capacities dev=%d host=%d", devCap, hostCap)
	}
	// Unscaled capacity must cover the two largest tensors (2×1568 MiB).
	full := MinDeviceCapacity(m, 1)
	if full < 2*1568<<20 {
		t.Fatalf("full-scale capacity %d too small", full)
	}
	if MinDeviceCapacity(m, 0) != full {
		t.Fatal("scaleDiv<1 should clamp to 1")
	}
}

func TestEncodeFallbackIterationCompletesBitExactly(t *testing.T) {
	// The acceptance scenario: codec failures mid-iteration degrade to raw
	// swaps and the training iteration still completes with every tensor
	// restored bit-exactly (Verify is on, so each swap-in is checksummed).
	m := dnn.MustBuild("AlexNet", dnn.ImageNet, 64)
	sp := sparsity.ForModel(m, 50, 1)
	const scale = 4096
	tensors := m.SwapTensors()
	plan := &swap.Plan{Framework: "test", Tensors: make([]swap.TensorPlan, len(tensors))}
	for i := range plan.Tensors {
		plan.Tensors[i] = swap.TensorPlan{Compress: true, Alg: compress.ZVC, TransferRatio: 0.5}
	}
	inj := faultinject.New(
		faultinject.Fault{Site: faultinject.SiteEncode, Mode: faultinject.Fail, After: 2, Every: 40},
	)
	e, err := executor.New(executor.Config{
		DeviceCapacity: MinDeviceCapacity(m, scale),
		HostCapacity:   HostCapacityFor(m, scale),
		Launch:         compress.Launch{Grid: 8, Block: 64},
		Verify:         true,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunIteration(e, m, plan, sp, 25, scale, 7)
	if err != nil {
		t.Fatalf("iteration must survive injected encode failures: %v", err)
	}
	st := e.Stats()
	if st.EncodeFallbacks == 0 {
		t.Fatal("no encode fallbacks recorded — fault never fired")
	}
	if st.Verified != len(tensors) {
		t.Fatalf("verified %d of %d tensors", st.Verified, len(tensors))
	}
	if rep.Compressed+st.EncodeFallbacks != len(tensors) {
		t.Fatalf("compressed %d + fallbacks %d != %d tensors",
			rep.Compressed, st.EncodeFallbacks, len(tensors))
	}
	if e.Live() != 0 || e.DeviceStats().Used != 0 || e.HostStats().Used != 0 {
		t.Fatal("iteration with fallbacks leaked memory")
	}
}
