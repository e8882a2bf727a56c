package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"cswap/internal/tensor"
)

func TestLaunchValidate(t *testing.T) {
	valid := []Launch{{1, 64}, {4096, 128}, {197, 64}}
	for _, l := range valid {
		if err := l.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v, want nil", l, err)
		}
	}
	invalid := []Launch{{0, 64}, {4097, 64}, {10, 32}, {10, 256}, {-1, 128}}
	for _, l := range invalid {
		if err := l.Validate(); err == nil {
			t.Errorf("Validate(%v) = nil, want error", l)
		}
	}
	if (Launch{2, 64}).Threads() != 128 {
		t.Error("Threads() wrong")
	}
	if (Launch{197, 64}).String() != "(197,64)" {
		t.Errorf("String = %q", Launch{197, 64}.String())
	}
}

func TestParallelRoundTripAllAlgorithms(t *testing.T) {
	gen := tensor.NewGenerator(31)
	launches := []Launch{{1, 64}, {7, 64}, {64, 128}, {1024, 64}}
	for _, a := range Algorithms() {
		for _, l := range launches {
			tn := gen.Uniform(50000, 0.5)
			blob, err := ParallelEncode(a, tn.Data, l)
			if err != nil {
				t.Fatalf("%s %v encode: %v", a, l, err)
			}
			got, err := ParallelDecode(blob, l)
			if err != nil {
				t.Fatalf("%s %v decode: %v", a, l, err)
			}
			for i := range tn.Data {
				if math.Float32bits(got[i]) != math.Float32bits(tn.Data[i]) {
					t.Fatalf("%s %v mismatch at %d", a, l, i)
				}
			}
		}
	}
}

func TestParallelEncodeDeterministicAcrossWorkerCounts(t *testing.T) {
	// The blob must depend only on the launch geometry, not on scheduling.
	gen := tensor.NewGenerator(37)
	tn := gen.Uniform(100000, 0.6)
	l := Launch{128, 64}
	a, err := ParallelEncode(ZVC, tn.Data, l)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b, err := ParallelEncode(ZVC, tn.Data, l)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatal("non-deterministic parallel encode length")
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatal("non-deterministic parallel encode bytes")
			}
		}
	}
}

func TestParallelSmallTensorFewerChunksThanGrid(t *testing.T) {
	tn := tensor.NewGenerator(41).Uniform(100, 0.5)
	blob, err := ParallelEncode(ZVC, tn.Data, Launch{4096, 64})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParallelDecode(blob, Launch{4096, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("len = %d, want 100", len(got))
	}
}

func TestParallelEmptyTensor(t *testing.T) {
	blob, err := ParallelEncode(RLE, nil, Launch{16, 64})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParallelDecode(blob, Launch{16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("len = %d, want 0", len(got))
	}
}

func TestParallelRejectsBadLaunch(t *testing.T) {
	if _, err := ParallelEncode(ZVC, []float32{1}, Launch{0, 64}); err == nil {
		t.Fatal("accepted invalid launch")
	}
}

func TestParallelDecodeRejectsCorruptContainer(t *testing.T) {
	tn := tensor.NewGenerator(43).Uniform(1000, 0.5)
	blob, err := ParallelEncode(CSR, tn.Data, Launch{8, 64})
	if err != nil {
		t.Fatal(err)
	}
	l := Launch{8, 64}
	if _, err := ParallelDecode(nil, l); err == nil {
		t.Error("accepted nil blob")
	}
	if _, err := ParallelDecode(blob[:10], l); err == nil {
		t.Error("accepted truncated header")
	}
	notContainer := append([]byte{0x00}, blob[1:]...)
	if _, err := ParallelDecode(notContainer, l); err == nil {
		t.Error("accepted wrong container marker")
	}
	truncated := blob[:len(blob)-3]
	if _, err := ParallelDecode(truncated, l); err == nil {
		t.Error("accepted truncated payload")
	}
}

func TestParallelDecodeValidatesLaunch(t *testing.T) {
	blob, err := ParallelEncode(ZVC, []float32{1, 0, 2}, Launch{4, 64})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []Launch{{0, 64}, {4097, 64}, {8, 32}, {-1, 128}} {
		if _, err := ParallelDecode(blob, l); err == nil {
			t.Errorf("ParallelDecode accepted invalid launch %v", l)
		}
	}
}

// TestBlockIsInert pins what Block does on the CPU: nothing. Block 64 and
// Block 128 give byte-identical blobs at the same grid for every codec.
func TestBlockIsInert(t *testing.T) {
	gen := tensor.NewGenerator(61)
	for _, alg := range ExtendedAlgorithms() {
		for _, n := range []int{1000, 16 << 10, 64 << 10} {
			src := gen.Uniform(n, 0.5).Data
			for _, grid := range []int{1, 7, 128} {
				b64, err := ParallelEncode(alg, src, Launch{grid, 64})
				if err != nil {
					t.Fatal(err)
				}
				b128, err := ParallelEncode(alg, src, Launch{grid, 128})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(b64, b128) {
					t.Fatalf("%s n=%d grid %d: Block 64 and Block 128 blobs differ", alg, n, grid)
				}
			}
		}
	}
}

// TestWorkerCountNeverOversubscribes pins that the worker count depends on
// the chunk count and GOMAXPROCS alone: never more CPU-bound workers than
// Ps or than chunks, and at least one (`make test` runs this at -cpu 1,2,4).
func TestWorkerCountNeverOversubscribes(t *testing.T) {
	maxW := runtime.GOMAXPROCS(0)
	for _, jobs := range []int{0, 1, 2, maxW, 4 * maxW, 1 << 20} {
		if got, want := workerCount(jobs), max(1, min(maxW, jobs)); got != want {
			t.Errorf("workerCount(%d) = %d, want %d at GOMAXPROCS %d", jobs, got, want, maxW)
		}
	}
}

func TestParallelDecodeRejectsExcessChunkClaim(t *testing.T) {
	tn := tensor.NewGenerator(51).Uniform(1000, 0.5)
	blob, err := ParallelEncode(ZVC, tn.Data, Launch{8, 64})
	if err != nil {
		t.Fatal(err)
	}
	// 1000 elements support at most ceil(1000/32)=32 chunks; claim 33.
	bad := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(bad[10:14], 33)
	if _, err := ParallelDecode(bad, Launch{8, 64}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("excess chunk claim: err = %v, want ErrCorrupt", err)
	}
	// A zero chunk count is equally corrupt.
	binary.LittleEndian.PutUint32(bad[10:14], 0)
	if _, err := ParallelDecode(bad, Launch{8, 64}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero chunk claim: err = %v, want ErrCorrupt", err)
	}
}

func TestParallelDecodeRejectsHostileElementCount(t *testing.T) {
	tn := tensor.NewGenerator(53).Uniform(1000, 0.5)
	blob, err := ParallelEncode(RLE, tn.Data, Launch{4, 64})
	if err != nil {
		t.Fatal(err)
	}
	// A container header claiming 2^62 elements must be rejected before any
	// allocation happens.
	bad := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint64(bad[2:10], 1<<62)
	if _, err := ParallelDecode(bad, Launch{4, 64}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("hostile n: err = %v, want ErrCorrupt", err)
	}
	// A plausible-but-wrong count disagrees with the per-chunk headers and
	// is caught by the pre-allocation cross-check.
	binary.LittleEndian.PutUint64(bad[2:10], 1000+32)
	if _, err := ParallelDecode(bad, Launch{4, 64}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("inconsistent n: err = %v, want ErrCorrupt", err)
	}
}

func TestParallelDecodeRejectsUnknownAlgorithmByte(t *testing.T) {
	blob, err := ParallelEncode(ZVC, []float32{1, 0, 2, 0}, Launch{1, 64})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[1] = 0xEE
	if _, err := ParallelDecode(bad, Launch{1, 64}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown algorithm byte: err = %v, want ErrCorrupt", err)
	}
}

func TestParallelDecodeChunkErrorContext(t *testing.T) {
	// A chunk whose own algorithm byte disagrees with the container must
	// surface a ChunkError naming the codec and chunk. The encoder body cuts
	// 200 elements into 4 chunks, below the floor ParallelEncode applies: the
	// decoder must keep accepting such directories, so they stay under test.
	tn := tensor.NewGenerator(57).Uniform(200, 0.5)
	blob, err := appendParallelChunks(nil, CSR, tn.Data, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	numChunks := int(binary.LittleEndian.Uint32(blob[10:14]))
	dirEnd := 14 + 8*numChunks
	secondOff := dirEnd + int(binary.LittleEndian.Uint64(blob[14:22]))
	bad := append([]byte(nil), blob...)
	bad[secondOff] = byte(ZVC) // chunk 1 claims ZVC inside a CSR container
	_, err = ParallelDecode(bad, Launch{4, 64})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	var ce *ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ChunkError", err)
	}
	if ce.Alg != CSR || ce.Chunk != 1 || ce.Chunks != numChunks {
		t.Fatalf("chunk context = %+v", ce)
	}
}

// The truncation and bit-flip sweeps run over 4-chunk containers of a few
// hundred elements, built by the encoder body so that hostile and legacy
// small-chunk directories stay covered.
func TestParallelTruncationEveryBoundary(t *testing.T) {
	l := Launch{4, 64}
	for _, a := range ExtendedAlgorithms() {
		tn := tensor.NewGenerator(61).Uniform(500, 0.5)
		blob, err := appendParallelChunks(nil, a, tn.Data, l.Grid, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(blob); i++ {
			got, err := ParallelDecode(blob[:i], l)
			if err == nil {
				t.Fatalf("%s: truncation to %d of %d bytes accepted (decoded %d elements)",
					a, i, len(blob), len(got))
			}
			if !Recoverable(err) {
				t.Fatalf("%s: truncation to %d: err %v not classified recoverable", a, i, err)
			}
		}
	}
}

func TestParallelDirectoryBitFlips(t *testing.T) {
	l := Launch{4, 64}
	for _, a := range ExtendedAlgorithms() {
		tn := tensor.NewGenerator(67).Uniform(200, 0.5)
		blob, err := appendParallelChunks(nil, a, tn.Data, l.Grid, nil)
		if err != nil {
			t.Fatal(err)
		}
		numChunks := int(binary.LittleEndian.Uint32(blob[10:14]))
		dirEnd := 14 + 8*numChunks
		for pos := 0; pos < dirEnd; pos++ {
			for bit := 0; bit < 8; bit++ {
				bad := append([]byte(nil), blob...)
				bad[pos] ^= 1 << uint(bit)
				got, err := ParallelDecode(bad, l)
				if err != nil {
					continue // rejected: fine
				}
				// A flip the framing tolerates must still round-trip
				// bit-exactly — silent wrong data is the one forbidden
				// outcome.
				if len(got) != len(tn.Data) {
					t.Fatalf("%s: flip %d.%d silently changed length", a, pos, bit)
				}
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(tn.Data[i]) {
						t.Fatalf("%s: flip %d.%d silently corrupted data", a, pos, bit)
					}
				}
			}
		}
	}
}

// A hook failure on chunk 1 of a 4-chunk body encode carries its chunk.
func TestParallelEncodeHookFailureCarriesChunkContext(t *testing.T) {
	tn := tensor.NewGenerator(71).Uniform(300, 0.5)
	boom := fmt.Errorf("boom")
	hooks := &Hooks{ChunkEncode: func(a Algorithm, chunk int) error {
		if chunk == 1 {
			return boom
		}
		return nil
	}}
	_, err := appendParallelChunks(nil, ZVC, tn.Data, 4, hooks)
	var ce *ChunkError
	if !errors.As(err, &ce) || ce.Chunk != 1 || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want ChunkError for chunk 1 wrapping the hook error", err)
	}
}

func TestRecoverableTaxonomy(t *testing.T) {
	if Recoverable(nil) {
		t.Fatal("nil error recoverable")
	}
	if !Recoverable(ErrTruncated) || !Recoverable(ErrCorrupt) {
		t.Fatal("data-level errors must be recoverable")
	}
	if !Recoverable(&ChunkError{Alg: ZVC, Chunk: 0, Chunks: 1, Err: ErrCorrupt}) {
		t.Fatal("wrapped data-level error must stay recoverable")
	}
	if Recoverable(ErrAlgorithmMismatch) {
		t.Fatal("structural misuse must not be recoverable")
	}
	if Recoverable(fmt.Errorf("%w: blob is ZVC, codec is RLE", ErrAlgorithmMismatch)) {
		t.Fatal("wrapped structural misuse must not be recoverable")
	}
}

func TestChunkBoundsAlignment(t *testing.T) {
	for _, tc := range []struct{ n, grid int }{
		{0, 4}, {1, 4}, {31, 4}, {32, 4}, {33, 4}, {1000, 7}, {1 << 20, 4096},
	} {
		spans := chunkBounds(nil, tc.n, tc.grid)
		prev := 0
		for i, sp := range spans {
			if sp.lo != prev {
				t.Fatalf("n=%d grid=%d: span %d starts at %d, want %d", tc.n, tc.grid, i, sp.lo, prev)
			}
			if sp.lo%32 != 0 {
				t.Fatalf("n=%d grid=%d: span %d not 32-aligned", tc.n, tc.grid, i)
			}
			if sp.hi <= sp.lo && tc.n > 0 {
				t.Fatalf("n=%d grid=%d: empty span %d", tc.n, tc.grid, i)
			}
			prev = sp.hi
		}
		if prev != tc.n {
			t.Fatalf("n=%d grid=%d: spans cover %d", tc.n, tc.grid, prev)
		}
		if len(spans) > tc.grid && tc.n > 0 {
			t.Fatalf("n=%d grid=%d: %d spans exceed grid", tc.n, tc.grid, len(spans))
		}
	}
}

// TestChunkFloor pins the container's chunk floor: the encoder cuts a tensor
// into at most grid chunks and never into chunks below 16 Ki elements, a
// tensor smaller than that being one chunk.
func TestChunkFloor(t *testing.T) {
	grids := []int{1, 2, 7, 128, 4096}
	cases := []struct {
		n    int
		want []int // chunk count per grid above
	}{
		{0, []int{1, 1, 1, 1, 1}},
		{1, []int{1, 1, 1, 1, 1}},
		{32, []int{1, 1, 1, 1, 1}},
		{16383, []int{1, 1, 1, 1, 1}},
		{16384, []int{1, 1, 1, 1, 1}},
		{16385, []int{1, 1, 1, 1, 1}}, // two chunks would hold ~8 Ki each
		{32767, []int{1, 1, 1, 1, 1}},
		{32768, []int{1, 2, 2, 2, 2}},
		{65536, []int{1, 2, 4, 4, 4}},
		{262144, []int{1, 2, 7, 16, 16}},
		{2 << 20, []int{1, 2, 7, 128, 128}},
	}
	gen := tensor.NewGenerator(73)
	for _, tc := range cases {
		src := gen.Uniform(tc.n, 0.5).Data
		for j, grid := range grids {
			k := ChunkCount(tc.n, grid)
			if k != tc.want[j] {
				t.Errorf("ChunkCount(%d, %d) = %d, want %d", tc.n, grid, k, tc.want[j])
			}
			launch := Launch{grid, 64}
			blob, err := ParallelEncode(ZVC, src, launch)
			if err != nil {
				t.Fatal(err)
			}
			if got := int(binary.LittleEndian.Uint32(blob[10:14])); got != k {
				t.Errorf("n=%d grid %d: container has %d chunks, ChunkCount says %d", tc.n, grid, got, k)
			}
			// The bound is the arithmetic over exactly the encoder's spans,
			// so an arena sized by it always holds the container.
			for _, alg := range ExtendedAlgorithms() {
				bound, err := MaxParallelEncodedLen(alg, tc.n, launch)
				if err != nil {
					t.Fatal(err)
				}
				want := parHeaderSize
				for _, sp := range chunkBounds(nil, tc.n, k) {
					want += 8 + MustNew(alg).MaxEncodedLen(sp.hi-sp.lo)
				}
				if bound != want {
					t.Errorf("%s n=%d grid %d: MaxParallelEncodedLen = %d, encoder's spans need %d",
						alg, tc.n, grid, bound, want)
				}
			}
			if bound, _ := MaxParallelEncodedLen(ZVC, tc.n, launch); len(blob) > bound {
				t.Errorf("n=%d grid %d: container is %d bytes, bound %d", tc.n, grid, len(blob), bound)
			}
		}
	}

	// 8 MiB at grid 128 is already 128 chunks of exactly the floor: the
	// training workloads' blobs are the ones the floorless body writes.
	big := gen.Uniform(2<<20, 0.5).Data
	for _, alg := range ExtendedAlgorithms() {
		got, err := ParallelEncode(alg, big, Launch{128, 64})
		if err != nil {
			t.Fatal(err)
		}
		want, err := appendParallelChunks(nil, alg, big, 128, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: 8 MiB at grid 128 differs from the 128-chunk body encode", alg)
		}
	}

	// A 4 KiB block as grid 128 cut it before the floor (32 chunks of 32
	// elements) still decodes bit-exactly.
	block := gen.Uniform(1024, 0.5).Data
	for _, alg := range ExtendedAlgorithms() {
		legacy, err := appendParallelChunks(nil, alg, block, 128, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint32(legacy[10:14]); got != 32 {
			t.Fatalf("%s: legacy 4 KiB container has %d chunks, want 32", alg, got)
		}
		dst := dirtyFloats(len(block))
		if err := ParallelDecodeInto(dst, legacy, Launch{128, 64}); err != nil {
			t.Fatalf("%s: legacy 4 KiB container: %v", alg, err)
		}
		if !sameBits(dst, block) {
			t.Fatalf("%s: legacy 4 KiB container not bit-exact", alg)
		}
	}
}
