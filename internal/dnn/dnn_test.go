package dnn

import (
	"math"
	"testing"

	"cswap/internal/gpu"
	"cswap/internal/stats"
)

func TestAllModelsBuildOnBothDatasets(t *testing.T) {
	for _, name := range ModelNames() {
		for _, ds := range []Dataset{CIFAR10, ImageNet} {
			m, err := Build(name, ds, 8)
			if err != nil {
				t.Fatalf("Build(%s, %s): %v", name, ds.Name, err)
			}
			if len(m.Layers) == 0 {
				t.Fatalf("%s/%s has no layers", name, ds.Name)
			}
			// Every layer must have a valid inferred shape.
			for i := range m.Layers {
				l := &m.Layers[i]
				if l.OutH <= 0 || l.OutW <= 0 || l.OutCh <= 0 {
					t.Fatalf("%s/%s layer %s has shape %dx%dx%d",
						name, ds.Name, l.Name, l.OutH, l.OutW, l.OutCh)
				}
			}
			// Final layer must be the classifier output.
			lastFC := -1
			for i := range m.Layers {
				if m.Layers[i].Op == OpFC || (m.Layers[i].Op == OpConv && m.Layers[i].OutC == ds.Classes) {
					lastFC = i
				}
			}
			if lastFC < 0 || m.Layers[lastFC].OutCh != ds.Classes {
				t.Fatalf("%s/%s classifier emits %d classes, want %d",
					name, ds.Name, m.Layers[lastFC].OutCh, ds.Classes)
			}
		}
	}
}

func TestBuildUnknownModel(t *testing.T) {
	if _, err := Build("LeNet", CIFAR10, 8); err == nil {
		t.Fatal("unknown model should error")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild should panic")
		}
	}()
	MustBuild("LeNet", CIFAR10, 8)
}

func TestLinearityFlags(t *testing.T) {
	// Paper Section V: AlexNet, Plain20, VGG16, MobileNet are linear;
	// ResNet and SqueezeNet are non-linear.
	linear := map[string]bool{
		"AlexNet": true, "VGG16": true, "MobileNet": true, "Plain20": true,
		"ResNet": false, "SqueezeNet": false,
	}
	for name, want := range linear {
		m := MustBuild(name, ImageNet, 8)
		if m.Linear != want {
			t.Errorf("%s.Linear = %v, want %v", name, m.Linear, want)
		}
	}
}

func TestVGG16Figure1TensorSizes(t *testing.T) {
	// Figure 1: at batch 128 on ImageNet the first ReLU output is 1568 MB
	// and the last conv-block ReLU is 49 MB.
	m := MustBuild("VGG16", ImageNet, 128)
	sw := m.SwapTensors()
	if len(sw) == 0 {
		t.Fatal("no swap tensors")
	}
	firstMB := float64(sw[0].Bytes) / (1 << 20)
	if math.Abs(firstMB-1568) > 1 {
		t.Errorf("first ReLU = %.1f MiB, want 1568", firstMB)
	}
	// ReLU13 is the last conv-block activation.
	var relu13 *SwapTensor
	for i := range sw {
		if sw[i].Name == "ReLU13" {
			relu13 = &sw[i]
		}
	}
	if relu13 == nil {
		t.Fatal("ReLU13 missing")
	}
	if got := float64(relu13.Bytes) / (1 << 20); math.Abs(got-49) > 0.5 {
		t.Errorf("ReLU13 = %.1f MiB, want 49", got)
	}
}

func TestVGG16LayerStructure(t *testing.T) {
	m := MustBuild("VGG16", ImageNet, 128)
	sw := m.SwapTensors()
	relu, max := 0, 0
	for _, s := range sw {
		switch s.Kind {
		case OpReLU:
			relu++
		case OpMaxPool:
			max++
		}
	}
	// 13 conv ReLUs + 2 FC ReLUs, 5 max pools.
	if relu != 15 || max != 5 {
		t.Fatalf("VGG16 swap tensors: %d ReLU, %d MAX; want 15, 5", relu, max)
	}
	// Seq must be strictly increasing and match slice order.
	for i, s := range sw {
		if s.Seq != i {
			t.Fatalf("Seq[%d] = %d", i, s.Seq)
		}
	}
}

func TestSwapTensorNames(t *testing.T) {
	m := MustBuild("VGG16", ImageNet, 8)
	sw := m.SwapTensors()
	if sw[0].Name != "ReLU1" {
		t.Errorf("first tensor = %s, want ReLU1", sw[0].Name)
	}
	foundMax := false
	for _, s := range sw {
		if s.Name == "MAX1" {
			foundMax = true
			if s.Kind != OpMaxPool {
				t.Error("MAX1 is not a pool layer")
			}
		}
	}
	if !foundMax {
		t.Error("MAX1 missing")
	}
}

func TestFLOPsAndBytesPositive(t *testing.T) {
	for _, name := range ModelNames() {
		m := MustBuild(name, ImageNet, 8)
		for i := range m.Layers {
			if m.Layers[i].Op == OpConcat {
				continue // pure data movement, zero FLOPs by design
			}
			if m.FLOPs(i) <= 0 {
				t.Errorf("%s layer %s FLOPs = %v", name, m.Layers[i].Name, m.FLOPs(i))
			}
			if m.MemBytes(i) <= 0 {
				t.Errorf("%s layer %s MemBytes = %v", name, m.Layers[i].Name, m.MemBytes(i))
			}
		}
	}
}

func TestVGG16FLOPsMagnitude(t *testing.T) {
	// VGG16 forward is ≈15.5 GFLOPs (multiply-accumulate ×2) per 224×224
	// image.
	m := MustBuild("VGG16", ImageNet, 1)
	var total float64
	for i := range m.Layers {
		total += m.FLOPs(i)
	}
	if total < 28e9 || total > 34e9 {
		t.Fatalf("VGG16 forward FLOPs = %.2e, want ≈3.1e10", total)
	}
}

func TestResNetHasResidualAdds(t *testing.T) {
	m := MustBuild("ResNet", ImageNet, 8)
	adds := 0
	for i := range m.Layers {
		if m.Layers[i].Op == OpAdd {
			adds++
			if len(m.Layers[i].Inputs) != 2 {
				t.Error("residual add without two inputs")
			}
		}
	}
	if adds != 8 {
		t.Fatalf("ResNet-18 has %d residual adds, want 8", adds)
	}
}

func TestSqueezeNetFireConcat(t *testing.T) {
	m := MustBuild("SqueezeNet", ImageNet, 8)
	concats := 0
	for i := range m.Layers {
		l := &m.Layers[i]
		if l.Op == OpConcat {
			concats++
			in1 := &m.Layers[l.Inputs[0]]
			in2 := &m.Layers[l.Inputs[1]]
			if l.OutCh != in1.OutCh+in2.OutCh {
				t.Errorf("%s concat channels %d != %d+%d", l.Name, l.OutCh, in1.OutCh, in2.OutCh)
			}
		}
	}
	if concats != 8 {
		t.Fatalf("SqueezeNet has %d fire concats, want 8", concats)
	}
}

func TestMobileNetDepthwiseStructure(t *testing.T) {
	m := MustBuild("MobileNet", ImageNet, 8)
	dw, pw := 0, 0
	for i := range m.Layers {
		switch {
		case m.Layers[i].Op == OpDWConv:
			dw++
		case m.Layers[i].Op == OpConv && m.Layers[i].K == 1:
			pw++
		}
	}
	if dw != 13 || pw != 13 {
		t.Fatalf("MobileNet has %d dw / %d pw convs, want 13/13", dw, pw)
	}
	// Depthwise FLOPs must be far below a dense conv of the same shape.
	for i := range m.Layers {
		if m.Layers[i].Op == OpDWConv {
			dense := 2 * float64(m.Layers[i].K*m.Layers[i].K*m.Layers[i].InC) * float64(m.OutputElems(i))
			if m.FLOPs(i) >= dense/8 {
				t.Errorf("depthwise conv %s FLOPs not reduced", m.Layers[i].Name)
			}
			break
		}
	}
}

func TestForwardBackwardTimes(t *testing.T) {
	d := gpu.V100()
	m := MustBuild("VGG16", ImageNet, 128)
	for i := range m.Layers {
		f, b := m.ForwardTime(d, i), m.BackwardTime(d, i)
		if f <= 0 || b <= 0 {
			t.Fatalf("layer %s times f=%v b=%v", m.Layers[i].Name, f, b)
		}
		switch m.Layers[i].Op {
		case OpConv, OpDWConv, OpFC:
			if math.Abs(b-2*f) > 1e-12 {
				t.Fatalf("conv backward should be 2x forward")
			}
		}
	}
	it := m.IterationComputeTime(d)
	if it <= 0 {
		t.Fatal("iteration time must be positive")
	}
	// 2080Ti must be slower than V100 for the same model.
	if m.IterationComputeTime(gpu.RTX2080Ti()) <= it {
		t.Fatal("2080Ti should be slower than V100")
	}
}

func TestActivationFootprintMotivatesSwapping(t *testing.T) {
	// The premise of swapping: the training working set exceeds GPU
	// memory. Forward activations alone for VGG16@128 are ≈13 GiB; with
	// activation gradients and cuDNN workspace (≈2–3× activations) the
	// footprint exceeds the V100's 32 GiB.
	m := MustBuild("VGG16", ImageNet, 128)
	act := m.TotalActivationBytes()
	if act < 12<<30 {
		t.Fatalf("VGG16@128 activations = %d GiB, expected ≥ 12 GiB", act>>30)
	}
	if 3*act < 32<<30 {
		t.Fatalf("training footprint 3×%d GiB should exceed V100 memory", act>>30)
	}
}

func TestBatchSizeTableIII(t *testing.T) {
	cases := []struct {
		model, gpu string
		ds         Dataset
		want       int
	}{
		{"AlexNet", "V100", CIFAR10, 2560},
		{"AlexNet", "V100", ImageNet, 512},
		{"VGG16", "2080Ti", ImageNet, 32},
		{"ResNet", "2080Ti", ImageNet, 16},
		{"SqueezeNet", "V100", ImageNet, 512},
		{"Plain20", "2080Ti", CIFAR10, 1024},
	}
	for _, c := range cases {
		got, err := BatchSize(c.model, c.gpu, c.ds)
		if err != nil || got != c.want {
			t.Errorf("BatchSize(%s,%s,%s) = %d,%v; want %d",
				c.model, c.gpu, c.ds.Name, got, err, c.want)
		}
	}
}

func TestBatchSizePlain20OOMOn2080TiImageNet(t *testing.T) {
	if _, err := BatchSize("Plain20", "2080Ti", ImageNet); err != ErrOutOfMemory {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if _, err := BuildConfigured("Plain20", "2080Ti", ImageNet); err != ErrOutOfMemory {
		t.Fatalf("BuildConfigured err = %v, want ErrOutOfMemory", err)
	}
}

func TestBatchSizeUnknownKeys(t *testing.T) {
	if _, err := BatchSize("VGG16", "A100", ImageNet); err == nil {
		t.Error("unknown GPU should error")
	}
	if _, err := BatchSize("LeNet", "V100", ImageNet); err == nil {
		t.Error("unknown model should error")
	}
	if _, err := BatchSize("VGG16", "V100", Dataset{Name: "MNIST"}); err == nil {
		t.Error("unknown dataset should error")
	}
}

func TestBuildConfigured(t *testing.T) {
	m, err := BuildConfigured("VGG16", "V100", ImageNet)
	if err != nil {
		t.Fatal(err)
	}
	if m.Batch != 128 {
		t.Fatalf("batch = %d, want 128", m.Batch)
	}
}

func TestBuilderPanicsOnBadBatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newBuilder("x", CIFAR10, 0, true)
}

func TestOpStrings(t *testing.T) {
	if OpConv.String() != "CONV" || OpReLU.String() != "ReLU" || OpMaxPool.String() != "MAX" {
		t.Fatal("op names wrong")
	}
	if Op(99).String() != "Op(99)" {
		t.Fatal("unknown op format")
	}
}

func TestVGG16ParameterCount(t *testing.T) {
	// The canonical VGG16 has ≈138 M parameters.
	m := MustBuild("VGG16", ImageNet, 1)
	params := m.WeightElems()
	if params < 130e6 || params > 145e6 {
		t.Fatalf("VGG16 parameters = %d, want ≈138 M", params)
	}
}

func TestFeatureToWeightRatioSection3Claim(t *testing.T) {
	// Section III: feature maps of VGG16 at batch 256 are ≈50× the weight
	// matrices.
	m := MustBuild("VGG16", ImageNet, 256)
	ratio := m.FeatureToWeightRatio()
	if ratio < 40 || ratio > 60 {
		t.Fatalf("feature/weight ratio = %.1f, paper says ≈50", ratio)
	}
	// The ratio scales with batch size.
	small := MustBuild("VGG16", ImageNet, 32)
	if small.FeatureToWeightRatio() >= ratio {
		t.Fatal("ratio should grow with batch size")
	}
}

func TestWeightElemsPerLayerClass(t *testing.T) {
	m := MustBuild("MobileNet", ImageNet, 8)
	for i := range m.Layers {
		w := m.LayerWeightElems(i)
		switch m.Layers[i].Op {
		case OpReLU, OpMaxPool, OpAvgPool, OpAdd, OpConcat, OpSoftmax:
			if w != 0 {
				t.Errorf("%s should have no weights, got %d", m.Layers[i].Name, w)
			}
		case OpConv, OpDWConv, OpFC, OpBatchNorm:
			if w <= 0 {
				t.Errorf("%s should have weights", m.Layers[i].Name)
			}
		}
	}
	// MobileNet v1 has ≈4.2 M parameters.
	p := m.WeightElems()
	if p < 3.5e6 || p > 5e6 {
		t.Errorf("MobileNet parameters = %d, want ≈4.2 M", p)
	}
}

func TestTrainingFootprintModel(t *testing.T) {
	v100 := gpu.V100()
	// VGG16 at the paper's batch 128 fills most of the V100; at batch 256
	// it cannot train without swapping.
	vgg128 := MustBuild("VGG16", ImageNet, 128)
	if f := vgg128.TrainingFootprint().Total(); f < v100.MemBytes/2 {
		t.Fatalf("VGG16@128 footprint %d GiB, want > half of V100", f>>30)
	}
	vgg256 := MustBuild("VGG16", ImageNet, 256)
	if !vgg256.NeedsSwapping(v100) {
		t.Fatalf("VGG16@256 footprint %d GiB should exceed V100 memory",
			vgg256.TrainingFootprint().Total()>>30)
	}
	// A small-batch run fits comfortably.
	small := MustBuild("VGG16", ImageNet, 8)
	if small.NeedsSwapping(v100) {
		t.Fatalf("VGG16@8 footprint %d GiB should fit",
			small.TrainingFootprint().Total()>>30)
	}
	// Breakdown sums and is activation-dominated for feature-map-heavy
	// training (the Section III argument).
	f := vgg128.TrainingFootprint()
	sum := f.Activations + f.Gradients + f.Weights + f.WeightGradients +
		f.OptimizerState + f.Workspace
	if f.Total() != sum {
		t.Fatal("Total() != sum of parts")
	}
	if f.Activations < f.Weights*10 {
		t.Fatalf("activations (%d) should dwarf weights (%d) at batch 128",
			f.Activations, f.Weights)
	}
	// Footprint grows monotonically with batch size.
	if vgg256.TrainingFootprint().Total() <= vgg128.TrainingFootprint().Total() {
		t.Fatal("footprint not monotone in batch")
	}
}

func TestShapeInferencePropertyRandomConvChains(t *testing.T) {
	// Random conv/pool chains: inferred shapes must match the closed-form
	// formula applied step by step, and every intermediate must be valid.
	rng := stats.NewRNG(33)
	for trial := 0; trial < 40; trial++ {
		b := newBuilder("prop", ImageNet, 4, true)
		h, w := ImageNet.H, ImageNet.W
		for layer := 0; layer < 6 && h >= 8 && w >= 8; layer++ {
			k := []int{1, 3, 5, 7}[rng.Intn(4)]
			stride := 1 + rng.Intn(2)
			pad := rng.Intn(k)
			outC := 8 << rng.Intn(4)
			var idx int
			if rng.Intn(2) == 0 {
				idx = b.conv("c", outC, k, stride, pad)
			} else {
				idx = b.maxPool("p", k, stride)
				pad = 0
			}
			wantH := (h+2*pad-k)/stride + 1
			wantW := (w+2*pad-k)/stride + 1
			got := b.m.Layers[idx]
			if got.OutH != wantH || got.OutW != wantW {
				t.Fatalf("trial %d layer %d: got %dx%d, want %dx%d",
					trial, layer, got.OutH, got.OutW, wantH, wantW)
			}
			h, w = wantH, wantW
		}
	}
}
