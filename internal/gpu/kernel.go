package gpu

import (
	"math/rand"

	"cswap/internal/compress"
	"cswap/internal/stats"
)

// Compression-kernel wall-clock model.
//
// The paper's Figure 5 measures the sum of ZVC compression + decompression
// time for a 500 MB tensor at 50 % sparsity as the launch geometry varies,
// and reports three anchors for block 64: t(grid=10) = 146 ms,
// t(197) = 44 ms, t(1024) = 150 ms — a non-convex U-shape (too few blocks
// under-utilise the SMs; too many add scheduling overhead and cache
// contention). Solving t(g) = A/g + B·g + C through those anchors gives
//
//	A = 1340.5 ms·blocks   (parallelisable work)
//	B = 0.1348 ms/block    (per-block scheduling cost)
//	C = 10.6 ms            (fixed launch/teardown overhead)
//
// which this model uses as its block-64 calibration, scaled by tensor size,
// sparsity, algorithm, and device. Block 128 follows the paper's "similar
// trend": higher per-block parallelism (the A term shrinks) but more
// scheduler pressure (the B term grows), leaving its optimum slightly worse
// than block 64's — consistent with BO selecting (199, 64) in Figure 12.
//
// A deterministic ±4 % per-point ripple makes the surface rugged the way
// real kernel timing is, so grid search retains a small edge over model-led
// search and Bayesian optimization has a genuinely non-convex objective.
const (
	kernelA = 1340.5e-3 // seconds·blocks at the calibration point
	kernelB = 0.1348e-3 // seconds per block
	kernelC = 10.6e-3   // seconds

	calibrationBytes    = 500 << 20 // 500 MB tensor
	calibrationSparsity = 0.5
)

// KernelParams identifies one (de)compression kernel execution.
type KernelParams struct {
	Alg       compress.Algorithm
	SizeBytes int64
	Sparsity  float64
	Launch    compress.Launch
}

// algWorkFactor is the relative per-byte work of each codec's kernels
// (ZVC's bitmap scan is the cheapest; LZ4's dictionary matching by far the
// most expensive — the computation/compressibility trade-off of
// Section IV-E).
func algWorkFactor(a compress.Algorithm) float64 {
	switch a {
	case compress.ZVC:
		return 1.0
	case compress.CSR:
		return 1.25
	case compress.RLE:
		return 1.35
	case compress.LZ4:
		return 2.60
	case compress.Huffman:
		// Entropy coding is branch- and dependency-heavy on GPUs.
		return 3.20
	default:
		return 1.0
	}
}

// CompressionTime returns the modeled wall-clock seconds for compressing
// and decompressing a tensor under the given parameters. It is
// deterministic; use CompressionTimeNoisy for measurement-like samples.
func (d *Device) CompressionTime(p KernelParams) (comp, decomp float64) {
	g := float64(p.Launch.Grid)
	if g < 1 {
		g = 1
	}
	a, b := kernelA, kernelB
	c0 := 0.5e-3 // true fixed launch/teardown cost
	if p.Launch.Block == 128 {
		// Twice the threads per block: more work per block retired
		// (smaller A) but heavier per-block scheduling (larger B) and a
		// slightly costlier launch.
		a /= 1.6
		b *= 1.8
		c0 += 2e-3
	}
	sizeFactor := float64(p.SizeBytes) / float64(calibrationBytes)
	// The fitted C bundles a small launch constant with grid-independent
	// per-byte passes (bitmap scan, output sizing), so all but c0 of it
	// scales with the tensor.
	c := c0 + (kernelC-0.5e-3)*sizeFactor
	s := stats.Clamp(p.Sparsity, 0, 1)
	// Compression scans everything and writes non-zeros; decompression is
	// dominated by scattering non-zeros. Both normalise to 1 at the 50 %
	// calibration sparsity.
	compWork := 0.7 + 0.6*(1-s)
	decompWork := 0.4 + 1.2*(1-s)

	// Split the calibrated totals 55/45 between the two kernels. Both the
	// parallelisable work (A/g) and the per-block contention term (B·g)
	// scale with the tensor size — oversubscribing the scheduler only
	// hurts in proportion to the work each block carries — while the
	// launch/teardown constant C does not. This keeps kernel time close
	// to linear in size (the relationship Section IV-C observes and the
	// LR model relies on) while preserving the Figure 5 anchors at the
	// 500 MB calibration point.
	comp = 0.55 * (sizeFactor*(a*compWork/g+b*g) + c)
	decomp = 0.45 * (sizeFactor*(a*decompWork/g+b*g) + c)

	ripple := kernelRipple(p.Launch, p.Alg)
	scale := algWorkFactor(p.Alg) * d.kernelScale * ripple
	return comp * scale, decomp * scale
}

// CompressionTimeTotal is the comp+decomp sum (the Figure 5 quantity and
// the Bayesian-optimization objective).
func (d *Device) CompressionTimeTotal(p KernelParams) float64 {
	c, dc := d.CompressionTime(p)
	return c + dc
}

// CompressionTimeNoisy samples the model with log-normal measurement noise
// (σ = 2 %), emulating a real timed kernel execution.
func (d *Device) CompressionTimeNoisy(rng *rand.Rand, p KernelParams) (comp, decomp float64) {
	c, dc := d.CompressionTime(p)
	return stats.LogNormalJitter(rng, c, 0.02), stats.LogNormalJitter(rng, dc, 0.02)
}

// DefaultLaunch is the untuned geometry the framework uses before Bayesian
// optimization runs: the "expert knowledge" configuration from Figure 12
// (block 128 to saturate the four warp schedulers, enough blocks for four
// per SM).
func (d *Device) DefaultLaunch() compress.Launch {
	return compress.Launch{Grid: 4 * d.SMs, Block: 128}
}

// kernelRipple returns a deterministic multiplicative perturbation in
// [0.96, 1.04] keyed on the launch point and algorithm. It models the
// reproducible fine structure of kernel timing (occupancy cliffs, cache-set
// effects) that makes the objective non-convex.
func kernelRipple(l compress.Launch, a compress.Algorithm) float64 {
	h := splitmix64(uint64(l.Grid)<<20 ^ uint64(l.Block)<<8 ^ uint64(a))
	u := float64(h>>11) / float64(1<<53) // [0,1)
	return 1 + 0.04*(2*u-1)
}

// splitmix64 is the standard 64-bit mixing function.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
