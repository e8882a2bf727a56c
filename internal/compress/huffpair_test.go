package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"cswap/internal/tensor"
)

// raceStride is the step through the exhaustive pair tests' cases: every
// case normally, one in 16 under the race detector, which slows the
// decoders some 40-fold. What the race build adds — the workers'
// concurrency, and checkptr on the paired loop's pointer cursors — any
// sampled case exercises.
func raceStride() int {
	if raceEnabled {
		return 16
	}
	return 1
}

// hufPairMember is one side of a paired decode: a blob and the reference
// decoder's verdict on it.
type hufPairMember struct {
	name string
	blob []byte
	want []float32 // the reference's restore, as long as the destination
	err  error
}

func newHUFPairMember(name string, blob []byte, dstLen int) hufPairMember {
	want := dirtyFloats(dstLen)
	err := refHUFDecodeInto(want, blob)
	return hufPairMember{name, blob, want, err}
}

// check holds one member's paired decode to the reference: the same class
// and, where the reference decodes, the same elements.
func (m hufPairMember) check(t *testing.T, what string, got []float32, err error) {
	t.Helper()
	if decodeClass(err) != decodeClass(m.err) {
		t.Fatalf("%s: %s: paired decode says %q, reference %q", what, m.name, decodeClass(err), decodeClass(m.err))
	}
	if m.err == nil && !sameBits(got, m.want) {
		t.Fatalf("%s: %s: paired decode differs from the reference", what, m.name)
	}
}

// TestHUFPairMatchesScalarReference decodes every ordered pair of the
// kernel cases — so every pair in both member orders, into dirty
// destinations of unequal lengths — and holds both restores to the scalar
// reference. The length-limited Fibonacci table's codes outgrow the
// decoder's table, so its stream leaves the paired loop first, and often.
func TestHUFPairMatchesScalarReference(t *testing.T) {
	var members []hufPairMember
	cases := hufKernelCases()
	var names []string
	for name := range cases {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		members = append(members, newHUFPairMember(name, refHUFEncode(cases[name]), len(cases[name])))
	}
	raw := make([]byte, 4*4096)
	for i := range raw {
		raw[i] = byte(i * 7 % 90)
	}
	members = append(members, newHUFPairMember("fibonacci table", hufFibonacciBlob(raw), len(raw)/4))
	for _, m := range members {
		if m.err != nil {
			t.Fatalf("%s: reference: %v", m.name, m.err)
		}
	}
	for i, a := range members {
		for j, b := range members {
			if (i*len(members)+j)%raceStride() != 0 {
				continue
			}
			dA, dB := dirtyFloats(len(a.want)), dirtyFloats(len(b.want))
			errA, errB := huffDecodePair(dA, a.blob, dB, b.blob)
			what := a.name + " | " + b.name
			a.check(t, what, dA, errA)
			b.check(t, what, dB, errB)
		}
	}
}

// TestHUFPairMalformedMatchesScalarReference pairs every damaged blob of
// hufMalformedCases with a valid partner, in both member orders: the
// damaged member must land in the reference's class, and the partner must
// decode bit-exact whatever its partner does.
func TestHUFPairMalformedMatchesScalarReference(t *testing.T) {
	partner := newHUFPairMember("partner", refHUFEncode(tensor.NewGenerator(53).Uniform(517, 0.3).Data), 517)
	for i, c := range hufMalformedCases() {
		if i%raceStride() != 0 {
			continue
		}
		bad := newHUFPairMember(c.name, c.blob, c.dstLen)
		dBad, dGood := dirtyFloats(c.dstLen), dirtyFloats(len(partner.want))
		errBad, errGood := huffDecodePair(dBad, c.blob, dGood, partner.blob)
		bad.check(t, "first", dBad, errBad)
		partner.check(t, "first "+c.name, dGood, errGood)

		dBad, dGood = dirtyFloats(c.dstLen), dirtyFloats(len(partner.want))
		errGood, errBad = huffDecodePair(dGood, partner.blob, dBad, c.blob)
		bad.check(t, "second", dBad, errBad)
		partner.check(t, "second "+c.name, dGood, errGood)
	}
}

// pairedChunkCounts returns an even and an odd chunk count at which the
// container decodes HUF chunks in pairs on this host: at least two pairs
// per worker.
func pairedChunkCounts() []int {
	k := 4 * runtime.GOMAXPROCS(0)
	return []int{k, k + 1}
}

// hufContainerChunks returns a HUF container of k chunks of per elements
// each, its source, and each chunk's codec blob.
func hufContainerChunks(t *testing.T, k, per int) (blob []byte, src []float32, chunks [][]byte) {
	t.Helper()
	src = tensor.NewGenerator(59).Uniform(k*per, 0.2).Data
	blob, err := appendParallelChunks(nil, Huffman, src, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	var pc parContainer
	if err := pc.parse(blob); err != nil {
		t.Fatal(err)
	}
	if len(pc.bounds) != k {
		t.Fatalf("container has %d chunks, want %d", len(pc.bounds), k)
	}
	for i := range k {
		chunks = append(chunks, blob[pc.offsets[i]:pc.offsets[i+1]])
	}
	return blob, src, chunks
}

// containerOf frames chunk blobs as a HUF container for n elements.
func containerOf(n int, chunks [][]byte) []byte {
	blob := binary.LittleEndian.AppendUint64([]byte{parallelMarker, byte(Huffman)}, uint64(n))
	blob = binary.LittleEndian.AppendUint32(blob, uint32(len(chunks)))
	for _, c := range chunks {
		blob = binary.LittleEndian.AppendUint64(blob, uint64(len(c)))
	}
	for _, c := range chunks {
		blob = append(blob, c...)
	}
	return blob
}

// TestParallelHUFPairChunkError damages one chunk of a paired container —
// the first member of a pair, then the second — with every damage of
// hufDamage that leaves the chunk's header, which the container checks,
// as it was: the error must be a ChunkError naming that chunk, in the
// reference's class, and where the reference decodes the chunk the
// container must restore bit-exact.
func TestParallelHUFPairChunkError(t *testing.T) {
	const per = 320
	k := pairedChunkCounts()[0]
	_, src, chunks := hufContainerChunks(t, k, per)
	for _, bad := range []int{2, 3} {
		pristine := chunks[bad]
		tried := 0
		for i, c := range hufDamage(fmt.Sprint("chunk ", bad), pristine) {
			if len(c.blob) < headerSize || !bytes.Equal(c.blob[:headerSize], pristine[:headerSize]) || i%raceStride() != 0 {
				continue
			}
			tried++
			damaged := slices.Clone(chunks)
			damaged[bad] = c.blob
			ref := dirtyFloats(per)
			want := refHUFDecodeInto(ref, c.blob)
			dst := dirtyFloats(len(src))
			err := ParallelDecodeInto(dst, containerOf(len(src), damaged), Launch{Grid: k, Block: 64})
			if decodeClass(err) != decodeClass(want) {
				t.Fatalf("chunk %d %s: container says %q, reference %q", bad, c.name, decodeClass(err), decodeClass(want))
			}
			if want == nil {
				if !sameBits(dst[bad*per:(bad+1)*per], ref) || !sameBits(dst[:bad*per], src[:bad*per]) {
					t.Fatalf("chunk %d %s: restore differs from the reference", bad, c.name)
				}
				continue
			}
			var ce *ChunkError
			if !errors.As(err, &ce) || ce.Chunk != bad || ce.Chunks != k {
				t.Fatalf("chunk %d %s: err = %v, want a ChunkError naming chunk %d of %d", bad, c.name, err, bad, k)
			}
		}
		if tried < 1000/raceStride() {
			t.Fatalf("chunk %d: only %d damaged blobs kept the header", bad, tried)
		}
	}
}

// TestParallelHUFPairHooks: on paired containers of an even and an odd
// chunk count, Hooks.ChunkDecode fires exactly once per chunk index, and a
// fault injected into either member of a pair surfaces as that chunk's
// error while every other chunk still restores.
func TestParallelHUFPairHooks(t *testing.T) {
	const per = 1024
	for _, k := range pairedChunkCounts() {
		blob, src, _ := hufContainerChunks(t, k, per)
		var mu sync.Mutex
		calls := make([]int, k)
		hooks := &Hooks{ChunkDecode: func(alg Algorithm, chunk int) error {
			mu.Lock()
			defer mu.Unlock()
			calls[chunk]++
			return nil
		}}
		dst := dirtyFloats(len(src))
		if err := ParallelDecodeIntoWith(dst, blob, hooks); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !sameBits(dst, src) {
			t.Fatalf("k=%d: restore not bit-exact", k)
		}
		for i, c := range calls {
			if c != 1 {
				t.Fatalf("k=%d: ChunkDecode fired %d times for chunk %d", k, c, i)
			}
		}

		fault := errors.New("injected")
		for _, bad := range []int{0, 1, k - 1} {
			dst := dirtyFloats(len(src))
			err := ParallelDecodeIntoWith(dst, blob, &Hooks{ChunkDecode: func(alg Algorithm, chunk int) error {
				if chunk == bad {
					return fault
				}
				return nil
			}})
			var ce *ChunkError
			if !errors.Is(err, fault) || !errors.As(err, &ce) || ce.Chunk != bad {
				t.Fatalf("k=%d: fault on chunk %d surfaced as %v", k, bad, err)
			}
			for i := range k {
				if i != bad && !sameBits(dst[i*per:(i+1)*per], src[i*per:(i+1)*per]) {
					t.Fatalf("k=%d: fault on chunk %d: chunk %d not restored", k, bad, i)
				}
			}
		}
	}
}

// TestHUFBigEndianFixup runs the decoders with the big-endian fix-up
// forced, as a big-endian host runs them. On this host the fix-up is the
// identity, so every restore must still be bit-exact: single, paired and
// through a paired container.
func TestHUFBigEndianFixup(t *testing.T) {
	defer func(was bool) { hostLE = was }(hostLE)
	hostLE = false
	src := tensor.NewGenerator(61).Uniform(3000, 0.2).Data
	blob := refHUFEncode(src)
	dst := dirtyFloats(len(src))
	if err := (huffmanCodec{}).DecodeInto(dst, blob); err != nil || !sameBits(dst, src) {
		t.Fatalf("single decode: err %v, bit-exact %v", err, sameBits(dst, src))
	}
	other := tensor.NewGenerator(67).Uniform(2500, 0.5).Data
	dA, dB := dirtyFloats(len(src)), dirtyFloats(len(other))
	errA, errB := huffDecodePair(dA, blob, dB, refHUFEncode(other))
	if errA != nil || errB != nil || !sameBits(dA, src) || !sameBits(dB, other) {
		t.Fatalf("paired decode: %v, %v", errA, errB)
	}
	container, whole, _ := hufContainerChunks(t, pairedChunkCounts()[1], 512)
	got := dirtyFloats(len(whole))
	if err := ParallelDecodeInto(got, container, Launch{Grid: 1, Block: 64}); err != nil || !sameBits(got, whole) {
		t.Fatalf("paired container: err %v, bit-exact %v", err, sameBits(got, whole))
	}
}

// TestFixByteOrder: the fix-up turns each word's little-endian layout into
// the host's float, whichever host this is.
func TestFixByteOrder(t *testing.T) {
	b := []byte{0x00, 0x00, 0xc0, 0x3f, 0x01, 0x00, 0x00, 0x80}
	f := make([]float32, 2)
	copy(FloatBytes(f), b)
	fixByteOrder(FloatBytes(f))
	if f[0] != 1.5 || math.Float32bits(f[1]) != 0x80000001 {
		t.Fatalf("fixed words %v %#x", f[0], math.Float32bits(f[1]))
	}
}
