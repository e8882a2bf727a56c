package compress

import (
	"testing"

	"cswap/internal/tensor"
)

// Allocation-regression gates for the pooled hot paths. Budgets are pinned
// deliberately tight: the zero-copy contract promises allocation-free
// encode/decode for every codec once buffers are provided, and the
// parallel container recycles its bookkeeping (the encoder and its chunk
// table, the decoder's directory and per-chunk errors, the job functions),
// so it allocates nothing either. A failure here means a regression
// re-introduced per-call garbage on the swap path.
//
// testing.AllocsPerRun runs with GOMAXPROCS(1), so the parallel budgets
// measure the serial fast path deterministically — goroutine-count jitter
// cannot leak into the gate.

// allocBudgets: encode = AppendEncode into a pre-sized buffer,
// decode = DecodeInto a pre-sized destination.
var allocBudgets = map[Algorithm]struct{ encode, decode float64 }{
	ZVC: {0, 0},
	RLE: {0, 0},
	CSR: {0, 0},
	LZ4: {0, 0},
	// Huffman's histogram, tree and code tables are arrays on the stack and
	// its decoder workspace is recycled through a sync.Pool, so steady state
	// is allocation-free too.
	Huffman: {0, 0},
}

func TestAllocsPerRunCodecHotPaths(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomises sync.Pool reuse; alloc counts are meaningless")
	}
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	gen := tensor.NewGenerator(211)
	src := gen.Uniform(8192, 0.6).Data
	for _, a := range ExtendedAlgorithms() {
		c, err := New(a)
		if err != nil {
			t.Fatal(err)
		}
		budget := allocBudgets[a]
		buf := make([]byte, 0, c.MaxEncodedLen(len(src)))
		if got := testing.AllocsPerRun(50, func() {
			buf = c.AppendEncode(buf[:0], src)
		}); got > budget.encode {
			t.Errorf("%s AppendEncode: %.1f allocs/op, budget %.0f", a, got, budget.encode)
		}
		blob := c.Encode(src)
		dst := make([]float32, len(src))
		if got := testing.AllocsPerRun(50, func() {
			if err := c.DecodeInto(dst, blob); err != nil {
				t.Fatal(err)
			}
		}); got > budget.decode {
			t.Errorf("%s DecodeInto: %.1f allocs/op, budget %.0f", a, got, budget.decode)
		}
	}
}

// A tensor of one digest segment or less — the 64 KiB hot-path size and
// every paged-KV block run below it — is verified without touching the
// worker pool, so its digest allocates nothing.
func TestAllocsPerRunChecksumSingleSegment(t *testing.T) {
	for _, n := range []int{0, 1024, checksumSegment} {
		src := tensor.NewGenerator(227).Uniform(n, 0.6).Data
		if got := testing.AllocsPerRun(50, func() { checksumSink = Checksum(src) }); got != 0 {
			t.Errorf("Checksum of %d elements: %.1f allocs/op, want 0", n, got)
		}
	}
}

func TestAllocsPerRunParallelContainer(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomises sync.Pool reuse; alloc counts are meaningless")
	}
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	gen := tensor.NewGenerator(223)
	src := gen.Uniform(16384, 0.6).Data
	launch := Launch{Grid: 16, Block: 64}
	bound, err := MaxParallelEncodedLen(ZVC, len(src), launch)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, bound)
	// The encoder, its chunk table and its job function come from a pool.
	const encodeBudget = 0
	if got := testing.AllocsPerRun(50, func() {
		out, err := AppendParallelEncode(buf[:0], ZVC, src, launch)
		if err != nil {
			t.Fatal(err)
		}
		buf = out[:0]
	}); got > encodeBudget {
		t.Errorf("AppendParallelEncode: %.1f allocs/op, budget %d", got, encodeBudget)
	}

	blob, err := ParallelEncode(ZVC, src, launch)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float32, len(src))
	// So do the decoder's offsets, bounds, errors and job functions.
	const decodeBudget = 0
	if got := testing.AllocsPerRun(50, func() {
		if err := ParallelDecodeInto(dst, blob, launch); err != nil {
			t.Fatal(err)
		}
	}); got > decodeBudget {
		t.Errorf("ParallelDecodeInto: %.1f allocs/op, budget %d", got, decodeBudget)
	}
}
