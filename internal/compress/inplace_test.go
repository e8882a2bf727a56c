package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"cswap/internal/tensor"
)

// allExtendedCodecs returns a codec per extended algorithm (the paper's
// four plus Huffman).
func allExtendedCodecs(t *testing.T) []Codec {
	t.Helper()
	var cs []Codec
	for _, a := range ExtendedAlgorithms() {
		c, err := New(a)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	return cs
}

// sparsityLadder spans the paper's evaluated activation sparsity range.
var sparsityLadder = []float64{0.2, 0.3, 0.5, 0.7, 0.8, 0.9}

// dirtyFloats returns an n-element buffer pre-filled with NaN garbage, to
// prove DecodeInto overwrites every element of a recycled destination.
func dirtyFloats(n int) []float32 {
	d := make([]float32, n)
	for i := range d {
		d[i] = float32(math.NaN())
	}
	return d
}

// TestAppendEncodeParityWithEncode pins the in-place contract to the legacy
// one: for every algorithm and sparsity, AppendEncode produces exactly the
// bytes Encode produces — both appended to nil and appended after an
// existing prefix, which must survive untouched.
func TestAppendEncodeParityWithEncode(t *testing.T) {
	gen := tensor.NewGenerator(101)
	prefix := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	for _, c := range allExtendedCodecs(t) {
		for _, s := range sparsityLadder {
			for _, src := range [][]float32{
				gen.Uniform(4096, s).Data,
				gen.Runs(4096, s, 32).Data,
				nil,
				{0}, {1.5},
			} {
				want := c.Encode(src)
				if got := c.AppendEncode(nil, src); !bytes.Equal(got, want) {
					t.Fatalf("%s sparsity %.1f: AppendEncode(nil) differs from Encode", c.Algorithm(), s)
				}
				got := c.AppendEncode(append([]byte(nil), prefix...), src)
				if !bytes.Equal(got[:len(prefix)], prefix) {
					t.Fatalf("%s: AppendEncode clobbered the existing prefix", c.Algorithm())
				}
				if !bytes.Equal(got[len(prefix):], want) {
					t.Fatalf("%s sparsity %.1f: AppendEncode after prefix differs from Encode", c.Algorithm(), s)
				}
			}
		}
	}
}

// TestDecodeIntoParityWithDecode pins DecodeInto against Decode across the
// sparsity ladder, decoding into a dirty recycled buffer: every element must
// come out bit-identical to the legacy path.
func TestDecodeIntoParityWithDecode(t *testing.T) {
	gen := tensor.NewGenerator(103)
	for _, c := range allExtendedCodecs(t) {
		for _, s := range sparsityLadder {
			src := gen.Uniform(4096, s).Data
			blob := c.Encode(src)
			want, err := c.Decode(blob)
			if err != nil {
				t.Fatal(err)
			}
			dst := dirtyFloats(len(src))
			if err := c.DecodeInto(dst, blob); err != nil {
				t.Fatalf("%s DecodeInto: %v", c.Algorithm(), err)
			}
			for i := range want {
				if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%s sparsity %.1f: DecodeInto[%d] = %x, Decode = %x",
						c.Algorithm(), s, i, math.Float32bits(dst[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestDecodeIntoRejectsWrongDstSize pins the structural-misuse contract: a
// destination of the wrong length fails with ErrDstSize, which is not
// recoverable (a retry cannot fix a caller bug).
func TestDecodeIntoRejectsWrongDstSize(t *testing.T) {
	src := []float32{1, 0, 2, 0, 3}
	for _, c := range allExtendedCodecs(t) {
		blob := c.Encode(src)
		for _, bad := range []int{0, len(src) - 1, len(src) + 1} {
			err := c.DecodeInto(make([]float32, bad), blob)
			if !errors.Is(err, ErrDstSize) {
				t.Fatalf("%s dst len %d: err = %v, want ErrDstSize", c.Algorithm(), bad, err)
			}
			if Recoverable(err) {
				t.Fatalf("%s: ErrDstSize must not be Recoverable", c.Algorithm())
			}
		}
	}
}

// TestMaxEncodedLenBoundsActualSize is the property the zero-copy encode
// path depends on: no encoding, at any sparsity (including fully dense and
// adversarial alternating data), exceeds the codec's arithmetic bound.
func TestMaxEncodedLenBoundsActualSize(t *testing.T) {
	gen := tensor.NewGenerator(107)
	inputs := [][]float32{nil, {0}, {1}, dirtyFloats(33)}
	for _, s := range []float64{0, 0.2, 0.5, 0.9, 1} {
		inputs = append(inputs, gen.Uniform(5000, s).Data, gen.Runs(5000, s, 16).Data)
	}
	alternating := make([]float32, 4096)
	for i := range alternating {
		if i%2 == 0 {
			alternating[i] = float32(i)
		}
	}
	inputs = append(inputs, alternating)
	for _, c := range allExtendedCodecs(t) {
		for _, src := range inputs {
			if got, bound := len(c.Encode(src)), c.MaxEncodedLen(len(src)); got > bound {
				t.Fatalf("%s: encoded %d elements to %d bytes, MaxEncodedLen says %d",
					c.Algorithm(), len(src), got, bound)
			}
		}
	}
}

// TestAppendParallelEncodeParity pins the zero-copy container path to the
// legacy one byte-for-byte, and MaxParallelEncodedLen as a true bound.
func TestAppendParallelEncodeParity(t *testing.T) {
	gen := tensor.NewGenerator(109)
	prefix := []byte{1, 2, 3}
	for _, alg := range ExtendedAlgorithms() {
		for _, launch := range []Launch{{1, 64}, {4, 64}, {16, 128}, {4096, 128}} {
			src := gen.Uniform(10000, 0.6).Data
			want, err := ParallelEncode(alg, src, launch)
			if err != nil {
				t.Fatal(err)
			}
			bound, err := MaxParallelEncodedLen(alg, len(src), launch)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) > bound {
				t.Fatalf("%s %v: container is %d bytes, MaxParallelEncodedLen says %d",
					alg, launch, len(want), bound)
			}
			got, err := AppendParallelEncode(append([]byte(nil), prefix...), alg, src, launch)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("%s %v: AppendParallelEncode differs from ParallelEncode", alg, launch)
			}

			// And the scatter path reads it back bit-exactly into a dirty
			// destination.
			dst := dirtyFloats(len(src))
			if err := ParallelDecodeInto(dst, want, launch); err != nil {
				t.Fatal(err)
			}
			for i := range src {
				if math.Float32bits(dst[i]) != math.Float32bits(src[i]) {
					t.Fatalf("%s %v: ParallelDecodeInto[%d] mismatch", alg, launch, i)
				}
			}
		}
	}
}

// TestParallelDecodeIntoRejectsWrongDstSize mirrors the per-codec contract
// at the container level.
func TestParallelDecodeIntoRejectsWrongDstSize(t *testing.T) {
	src := make([]float32, 100)
	blob, err := ParallelEncode(ZVC, src, Launch{2, 64})
	if err != nil {
		t.Fatal(err)
	}
	err = ParallelDecodeInto(make([]float32, 99), blob, Launch{2, 64})
	if !errors.Is(err, ErrDstSize) {
		t.Fatalf("err = %v, want ErrDstSize", err)
	}
}

// TestChunkBoundsSpanCounts pins the 32-alignment shape at the edges: span
// counts and boundaries for tensors around one bitmap word, and a grid far
// larger than the number of alignable spans.
func TestChunkBoundsSpanCounts(t *testing.T) {
	cases := []struct {
		n, grid int
		want    []span
	}{
		{0, 4, []span{{0, 0}}},                // empty tensor: one empty span
		{31, 4, []span{{0, 31}}},              // under one word: one span
		{32, 4, []span{{0, 32}}},              // exactly one word
		{33, 4, []span{{0, 32}, {32, 33}}},    // one word + remainder
		{33, 4096, []span{{0, 32}, {32, 33}}}, // grid >> n/32: capped at alignable spans
		{100, 4096, []span{{0, 32}, {32, 64}, {64, 96}, {96, 100}}},
		{128, 2, []span{{0, 64}, {64, 128}}},
	}
	for _, tc := range cases {
		got := chunkBounds(nil, tc.n, tc.grid)
		if len(got) != len(tc.want) {
			t.Fatalf("chunkBounds(nil, %d,%d) = %v spans, want %v", tc.n, tc.grid, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("chunkBounds(nil, %d,%d)[%d] = %v, want %v", tc.n, tc.grid, i, got[i], tc.want[i])
			}
			if got[i].lo%32 != 0 {
				t.Fatalf("chunkBounds(nil, %d,%d)[%d] starts at unaligned %d", tc.n, tc.grid, i, got[i].lo)
			}
		}
	}
}

// TestWorkerCountBlockScalingCapped pins that Block carries no occupancy
// factor: a launch's host parallelism is its chunk count capped at
// GOMAXPROCS, so Block 64 and Block 128 launches of one grid ask for the
// same worker count, at the cap and below it.
func TestWorkerCountBlockScalingCapped(t *testing.T) {
	maxW := runtime.GOMAXPROCS(0)
	n := 4 * maxW * 32 // enough aligned chunks that the jobs clamp is not the binding one
	for _, l := range []Launch{{Grid: 4 * maxW, Block: 64}, {Grid: 4 * maxW, Block: 128}} {
		if w := workerCount(len(chunkBounds(nil, n, l.Grid))); w != maxW {
			t.Fatalf("workerCount(%+v) = %d, want GOMAXPROCS cap %d", l, w, maxW)
		}
	}
	// Below the cap the jobs clamp binds identically for both blocks.
	for _, l := range []Launch{{Grid: 1, Block: 64}, {Grid: 1, Block: 128}} {
		if w := workerCount(len(chunkBounds(nil, n, l.Grid))); w != 1 {
			t.Fatalf("workerCount(%+v) = %d, want 1", l, w)
		}
	}
}

// TestChunkMovesStopAtAnEscapedBlob drives the chunk mover by hand over
// four spans of 8 bytes: chunk 1's blob escaped its span (12 bytes, held
// elsewhere), so moving it would overwrite chunk 2's span. The moves stop
// there, and finish appends chunk 1 and every chunk after it into a copy,
// leaving each blob and directory slot exactly once, in order.
func TestChunkMovesStopAtAnEscapedBlob(t *testing.T) {
	const dir, dirEnd, maxPer = 0, 32, 8
	dst := make([]byte, dirEnd+4*maxPer)
	blobs := [][]byte{
		[]byte("aaaaa"),
		[]byte("bbbbbbbbbbbb"),
		[]byte("ccccccc"),
		[]byte("dd"),
	}
	c := &chunkEncoder{dst: dst, dir: dir, dirEnd: dirEnd, maxPer: maxPer, w: dirEnd, out: make([]chunkOut, 4)}
	for i, b := range blobs {
		if i == 1 {
			c.out[i].blob = b
		} else {
			c.out[i].blob = append(dst[dirEnd+i*maxPer:dirEnd+i*maxPer], b...)
		}
	}
	for c.front < len(c.out) && c.place(c.front) {
		c.front++
	}
	if c.front != 1 {
		t.Fatalf("moves stopped before chunk %d, want 1", c.front)
	}
	got := c.finish()
	want := []byte("aaaaabbbbbbbbbbbbcccccccdd")
	if !bytes.Equal(got[dirEnd:], want) {
		t.Fatalf("payload %q, want %q", got[dirEnd:], want)
	}
	for i, b := range blobs {
		if n := binary.LittleEndian.Uint64(got[dir+8*i:]); n != uint64(len(b)) {
			t.Fatalf("directory slot %d = %d, want %d", i, n, len(b))
		}
	}
}
