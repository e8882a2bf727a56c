package gpu

import (
	"math"
	"testing"

	"cswap/internal/compress"
	"cswap/internal/stats"
)

func TestDeviceCatalog(t *testing.T) {
	v := V100()
	r := RTX2080Ti()
	if v.PeakFLOPS <= r.PeakFLOPS {
		t.Error("V100 should have higher peak FLOPS than 2080Ti")
	}
	if v.MemBytes != 32<<30 || r.MemBytes != 11<<30 {
		t.Error("memory capacities wrong")
	}
	// Paper Section V-A: 2080Ti has *higher* effective PCIe bandwidth.
	if r.Link.H2D <= v.Link.H2D || r.Link.D2H <= v.Link.D2H {
		t.Error("2080Ti effective PCIe bandwidth should exceed V100's")
	}
	if len(Devices()) != 2 {
		t.Error("Devices() should list both GPUs")
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("V100")
	if err != nil || d.Name != "V100" {
		t.Fatalf("ByName(V100) = %v, %v", d, err)
	}
	if _, err := ByName("A100"); err == nil {
		t.Fatal("unknown device should error")
	}
}

func TestComputeTimeRoofline(t *testing.T) {
	d := V100()
	// Compute-bound: 1 TFLOP at 65 % of 15.7 TFLOPS ≈ 98 ms.
	tc := d.ComputeTime(ClassConv, 1e12, 1e6)
	want := 1e12 / (15.7e12 * 0.65)
	if math.Abs(tc-want) > 1e-4 {
		t.Fatalf("conv time = %v, want ≈%v", tc, want)
	}
	// Memory-bound: ReLU over 1 GB (read+write) at 900 GB/s.
	tm := d.ComputeTime(ClassActivation, 1e9, 2e9)
	wantM := 2e9 / 900e9
	if math.Abs(tm-wantM) > 1e-4 {
		t.Fatalf("activation time = %v, want ≈%v", tm, wantM)
	}
	// Launch overhead floors tiny kernels.
	if tiny := d.ComputeTime(ClassPool, 0, 0); tiny < 5e-6 {
		t.Fatalf("tiny kernel = %v, want ≥ launch overhead", tiny)
	}
}

func fig5Params(grid, block int) KernelParams {
	return KernelParams{
		Alg:       compress.ZVC,
		SizeBytes: 500 << 20,
		Sparsity:  0.5,
		Launch:    compress.Launch{Grid: grid, Block: block},
	}
}

func TestKernelModelMatchesFigure5Anchors(t *testing.T) {
	d := V100()
	anchors := []struct {
		grid   int
		wantMS float64
	}{
		{10, 146}, {197, 44}, {1024, 150},
	}
	for _, a := range anchors {
		got := d.CompressionTimeTotal(fig5Params(a.grid, 64)) * 1e3
		// Within the ±4 % ripple plus a little slack.
		if math.Abs(got-a.wantMS)/a.wantMS > 0.06 {
			t.Errorf("grid %d: %v ms, paper anchor %v ms", a.grid, got, a.wantMS)
		}
	}
}

func TestKernelSurfaceIsUShaped(t *testing.T) {
	d := V100()
	small := d.CompressionTimeTotal(fig5Params(4, 64))
	mid := d.CompressionTimeTotal(fig5Params(128, 64))
	large := d.CompressionTimeTotal(fig5Params(4096, 64))
	if !(mid < small && mid < large) {
		t.Fatalf("surface not U-shaped: t(4)=%v t(128)=%v t(4096)=%v", small, mid, large)
	}
}

func TestKernelBlock128SimilarTrendSlightlyWorseOptimum(t *testing.T) {
	d := V100()
	best := func(block int) float64 {
		m := math.Inf(1)
		for g := 1; g <= 4096; g++ {
			if v := d.CompressionTimeTotal(fig5Params(g, block)); v < m {
				m = v
			}
		}
		return m
	}
	b64, b128 := best(64), best(128)
	if b64 >= b128 {
		t.Fatalf("block-64 optimum (%v) should beat block-128 (%v), per Figure 12's (199,64)", b64, b128)
	}
	if b128 > 1.5*b64 {
		t.Fatalf("block-128 should be a 'similar trend', got %vx worse", b128/b64)
	}
}

func TestKernelTimeScalesWithSizeAndAlgorithm(t *testing.T) {
	d := V100()
	base := fig5Params(197, 64)
	small := base
	small.SizeBytes = 50 << 20
	if d.CompressionTimeTotal(small) >= d.CompressionTimeTotal(base) {
		t.Error("smaller tensor should compress faster")
	}
	for _, a := range []compress.Algorithm{compress.CSR, compress.RLE, compress.LZ4} {
		p := base
		p.Alg = a
		if d.CompressionTimeTotal(p) <= d.CompressionTimeTotal(base) {
			t.Errorf("%s should be slower than ZVC", a)
		}
	}
	lz4 := base
	lz4.Alg = compress.LZ4
	if d.CompressionTimeTotal(lz4) < 2*d.CompressionTimeTotal(base) {
		t.Error("LZ4 should be much slower than ZVC")
	}
}

func TestKernelTimeSparsityEffect(t *testing.T) {
	d := V100()
	dense := fig5Params(197, 64)
	dense.Sparsity = 0.2
	sparse := fig5Params(197, 64)
	sparse.Sparsity = 0.8
	if d.CompressionTimeTotal(sparse) >= d.CompressionTimeTotal(dense) {
		t.Error("sparser tensors should (de)compress faster: fewer values to pack/scatter")
	}
}

func TestKernelDeviceScale(t *testing.T) {
	p := fig5Params(197, 64)
	if RTX2080Ti().CompressionTimeTotal(p) <= V100().CompressionTimeTotal(p) {
		t.Error("2080Ti kernels should be slower than V100")
	}
}

func TestKernelNoisyIsCloseToMean(t *testing.T) {
	d := V100()
	rng := stats.NewRNG(3)
	p := fig5Params(197, 64)
	mc, md := d.CompressionTime(p)
	var sumC, sumD float64
	const n = 5000
	for i := 0; i < n; i++ {
		c, dc := d.CompressionTimeNoisy(rng, p)
		sumC += c
		sumD += dc
	}
	if math.Abs(sumC/n-mc)/mc > 0.02 || math.Abs(sumD/n-md)/md > 0.02 {
		t.Fatalf("noisy mean drifted: %v/%v vs %v/%v", sumC/n, sumD/n, mc, md)
	}
}

func TestKernelRippleDeterministicAndBounded(t *testing.T) {
	for g := 1; g <= 4096; g += 37 {
		for _, b := range []int{64, 128} {
			l := compress.Launch{Grid: g, Block: b}
			r1 := kernelRipple(l, compress.ZVC)
			r2 := kernelRipple(l, compress.ZVC)
			if r1 != r2 {
				t.Fatal("ripple not deterministic")
			}
			if r1 < 0.96 || r1 > 1.04 {
				t.Fatalf("ripple %v out of bounds", r1)
			}
		}
	}
}

func TestDefaultLaunchValid(t *testing.T) {
	for _, d := range Devices() {
		if err := d.DefaultLaunch().Validate(); err != nil {
			t.Errorf("%s default launch invalid: %v", d.Name, err)
		}
	}
}

func TestCompressionTimeNoisyDeterministicPerStream(t *testing.T) {
	d := V100()
	p := fig5Params(197, 64)
	a1, b1 := d.CompressionTimeNoisy(stats.NewRNG(5), p)
	a2, b2 := d.CompressionTimeNoisy(stats.NewRNG(5), p)
	if a1 != a2 || b1 != b2 {
		t.Fatal("noisy sampling not reproducible for the same RNG state")
	}
}

func TestCompressionTimeMonotoneInSize(t *testing.T) {
	d := V100()
	prev := 0.0
	for _, mb := range []int64{20, 100, 500, 1000, 2000} {
		p := fig5Params(197, 64)
		p.SizeBytes = mb << 20
		total := d.CompressionTimeTotal(p)
		if total <= prev {
			t.Fatalf("kernel time not increasing at %d MB", mb)
		}
		prev = total
	}
}

func TestSetKernelScale(t *testing.T) {
	d := V100()
	base := d.CompressionTimeTotal(fig5Params(197, 64))
	d.SetKernelScale(0.5)
	if d.KernelScale() != 0.5 {
		t.Fatal("scale not stored")
	}
	if got := d.CompressionTimeTotal(fig5Params(197, 64)); got >= base {
		t.Fatal("faster kernel scale did not speed kernels")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-positive scale")
		}
	}()
	d.SetKernelScale(0)
}
