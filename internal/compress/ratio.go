package compress

// Analytic compressed-size models for tensors with uniformly scattered
// zeros, used by the swapping simulator and execution advisor to estimate
// post-compression transfer sizes without materialising multi-GB tensors.
// ratio_test.go validates each model against the real codec on synthetic
// tensors.
//
// All models return the expected ratio compressed/original in (0, +inf);
// values above 1 mean the codec expands the data (the paper's RLE caveat).

// EstimateRatio predicts compressed bytes / original bytes for a tensor
// with the given zero fraction under the given algorithm, assuming the
// uniformly-scattered-zero layout of ReLU/MAX activations. sparsity is
// clamped to [0, 1].
func EstimateRatio(a Algorithm, sparsity float64) float64 {
	s := sparsity
	if s < 0 {
		s = 0
	}
	if s > 1 {
		s = 1
	}
	switch a {
	case ZVC:
		// Non-zero payload + 1 bitmap bit per element (1/32 of a float).
		return (1 - s) + 1.0/32
	case CSR:
		// 4-byte value + 4-byte column index per non-zero, plus row
		// pointers every csrRowWidth elements.
		return 2*(1-s) + 1.0/csrRowWidth
	case RLE:
		// Each maximal zero run costs one 4-byte token that also carries
		// the following literal run; for i.i.d. zeros the expected number
		// of zero runs is n·s·(1−s), giving ratio (1−s) + s(1−s) = 1−s².
		return 1 - s*s
	case LZ4:
		// Literals (non-zero floats, essentially incompressible) dominate;
		// zero runs become matches costing ~3 bytes per run plus length
		// continuation bytes (~4/255 per zero element). Calibrated against
		// the real codec in ratio_test.go.
		return (1-s)*1.0 + 0.75*s*(1-s) + 0.016*s
	case Huffman:
		// Entropy of the byte stream: the exponent byte of activation
		// floats is highly redundant even at zero sparsity, and zeros
		// shrink to one bit per byte. Quadratic fit to measured ratios
		// (huffman_test.go validates it).
		return 0.895 - 0.534*s - 0.236*s*s
	default:
		return 1
	}
}

// BestRatioAlgorithm returns the algorithm with the smallest estimated
// ratio at the given sparsity, over the full extended codec set — Huffman
// is the only codec that beats 1.0 on dense tensors, so excluding it (as
// an earlier version did by slicing the base set) froze dense profiles out
// of compression entirely. Ties break in favour of the cheaper codec: the
// strict `<` keeps the earlier entry, and ExtendedAlgorithms() is ordered
// by ascending modeled kernel time.
//
// Huffman wins below ≈ 0.36 sparsity and ZVC above it. The benchmark's
// train-* workloads cycle sparsities 0.2, 0.5 and 0.8, and kv-decode and
// tier-spill run at 0.5, so only the s = 0.2 tensors go to Huffman: 4 of
// train-*'s 12, and none elsewhere. That is why a Huffman kernel's speed
// shows in the train-* tails and nowhere else.
func BestRatioAlgorithm(sparsity float64) Algorithm {
	algs := ExtendedAlgorithms()
	best := algs[0]
	bestR := EstimateRatio(best, sparsity)
	for _, a := range algs[1:] {
		if r := EstimateRatio(a, sparsity); r < bestR {
			best, bestR = a, r
		}
	}
	return best
}
