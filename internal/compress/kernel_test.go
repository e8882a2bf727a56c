package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"testing"

	"cswap/internal/tensor"
)

// The scalar ZVC encoder and decoder the word-wide kernels in zvc.go
// replaced, kept as the reference the kernels are held to: two passes and
// an append per value on encode, one branch and one bounds test per element
// on decode. Zero is the all-zero bit pattern, as in the kernels.

func refZVCEncode(src []float32) []byte {
	dst := putHeader(nil, ZVC, len(src))
	groups := (len(src) + 31) / 32
	for g := 0; g < groups; g++ {
		start := g * 32
		end := min(start+32, len(src))
		var bitmap uint32
		for i := start; i < end; i++ {
			if math.Float32bits(src[i]) != 0 {
				bitmap |= 1 << uint(i-start)
			}
		}
		dst = appendUint32(dst, bitmap)
		for i := start; i < end; i++ {
			if math.Float32bits(src[i]) != 0 {
				dst = appendFloat32(dst, src[i])
			}
		}
	}
	return dst
}

func refZVCDecodeInto(dst []float32, blob []byte) error {
	n, payload, err := parseHeader(blob, ZVC)
	if err != nil {
		return err
	}
	if err := checkDst(dst, n); err != nil {
		return err
	}
	groups := (n + 31) / 32
	pos := 0
	for g := 0; g < groups; g++ {
		if pos+4 > len(payload) {
			return ErrTruncated
		}
		bitmap := binary.LittleEndian.Uint32(payload[pos:])
		pos += 4
		start := g * 32
		end := start + 32
		if end > n {
			end = n
			if bitmap>>(uint(end-start)) != 0 {
				return ErrCorrupt
			}
		}
		for i := start; i < end; i++ {
			if bitmap&(1<<uint(i-start)) != 0 {
				if pos+4 > len(payload) {
					return ErrTruncated
				}
				dst[i] = readFloat32(payload[pos:])
				pos += 4
			} else {
				dst[i] = 0
			}
		}
	}
	if pos != len(payload) {
		return ErrCorrupt
	}
	return nil
}

// decodeClass names the outcome classes a ZVC decode can have.
func decodeClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrDstSize):
		return "dst-size"
	case errors.Is(err, ErrAlgorithmMismatch):
		return "algorithm"
	}
	return "other: " + err.Error()
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestZVCKernelsMatchScalarReference(t *testing.T) {
	gen := tensor.NewGenerator(29)
	c := zvcCodec{}
	for _, s := range []float64{0, 0.2, 0.5, 0.8, 0.95, 1} {
		for _, n := range []int{0, 1, 31, 32, 33, 16384, 16385} {
			src := gen.Uniform(n, s).Data
			if n > 2 {
				// The bit patterns a numeric zero test would mishandle.
				src[0] = math.Float32frombits(0x80000000)
				src[n/2] = math.Float32frombits(0x7FC00001)
			}
			want := refZVCEncode(src)
			// Appended after a prefix, into exactly the promised capacity.
			buf := append(make([]byte, 0, 3+c.MaxEncodedLen(n)), "pre"...)
			got := c.AppendEncode(buf, src)
			if !bytes.Equal(got[3:], want) || string(got[:3]) != "pre" {
				t.Fatalf("s=%v n=%d: blob differs from the scalar reference", s, n)
			}
			if &got[0] != &buf[0] {
				t.Fatalf("s=%v n=%d: AppendEncode reallocated a sufficient buffer", s, n)
			}
			if grown := c.AppendEncode([]byte("pre"), src); !bytes.Equal(grown, got) {
				t.Fatalf("s=%v n=%d: growing append differs", s, n)
			}
			dst, ref := dirtyFloats(n), dirtyFloats(n)
			if err := c.DecodeInto(dst, want); err != nil {
				t.Fatalf("s=%v n=%d: %v", s, n, err)
			}
			if err := refZVCDecodeInto(ref, want); err != nil {
				t.Fatalf("s=%v n=%d: reference: %v", s, n, err)
			}
			if !sameBits(dst, ref) || !sameBits(dst, src) {
				t.Fatalf("s=%v n=%d: decode differs from the scalar reference", s, n)
			}
		}
	}
}

// TestZVCMalformedMatchesScalarReference holds the kernels to the
// reference's verdict on damaged input: every prefix of a blob, every
// single-bit flip of its bitmap words, a wrong destination and trailing
// bytes must land in the same class — and, where the damaged blob still
// decodes, produce the same elements — never panic.
func TestZVCMalformedMatchesScalarReference(t *testing.T) {
	// Long enough that the unchecked loop runs for several groups before
	// the checked one takes over, with a tail group at the end.
	const n = 32*9 + 7
	for _, s := range []float64{0, 0.3, 0.9, 1} {
		src := tensor.NewGenerator(31).Uniform(n, s).Data
		blob := refZVCEncode(src)
		check := func(what string, dstLen int, damaged []byte) {
			t.Helper()
			// An exact-capacity copy: a read past the end cannot land in
			// spare capacity unnoticed.
			damaged = append(make([]byte, 0, len(damaged)), damaged...)
			dst, ref := dirtyFloats(dstLen), dirtyFloats(dstLen)
			got, want := zvcCodec{}.DecodeInto(dst, damaged), refZVCDecodeInto(ref, damaged)
			if decodeClass(got) != decodeClass(want) {
				t.Fatalf("s=%v %s: kernel says %q, reference %q", s, what, decodeClass(got), decodeClass(want))
			}
			if want == nil && !sameBits(dst, ref) {
				t.Fatalf("s=%v %s: decodes differ", s, what)
			}
		}
		for cut := 0; cut <= len(blob); cut++ {
			check(fmt.Sprintf("prefix %d", cut), n, blob[:cut])
		}
		pos := headerSize
		for g := 0; g < (n+31)/32; g++ {
			for bit := 0; bit < 32; bit++ {
				flipped := append([]byte(nil), blob...)
				flipped[pos+bit/8] ^= 1 << (bit % 8)
				check(fmt.Sprintf("group %d bit %d", g, bit), n, flipped)
			}
			pos += 4 + 4*bits.OnesCount32(binary.LittleEndian.Uint32(blob[pos:]))
		}
		check("trailing bytes", n, append(append([]byte(nil), blob...), 0, 0, 0, 0))
		check("short dst", n-1, blob)
		check("long dst", n+1, blob)
	}
}

// checksumSerial is Checksum's definition computed on one goroutine with
// per-segment storage: the value the pooled computation must reproduce.
func checksumSerial(data []float32) uint64 {
	var keyed []uint64
	for i := 0; i == 0 || i*checksumSegment < len(data); i++ {
		seg := data[i*checksumSegment:]
		seg = seg[:min(len(seg), checksumSegment)]
		keyed = append(keyed, csMix(segmentDigest(seg), uint64(i)))
	}
	var sum uint64
	for i := len(keyed) - 1; i >= 0; i-- { // reversed: the sum has no order
		sum += keyed[i]
	}
	return csMix(sum, uint64(len(data)))
}

// lcgFloats fills n elements from a fixed generator, roughly half of them
// zero, independent of the tensor package so the pinned digests below
// cannot move with it.
func lcgFloats(n int) []float32 {
	out := make([]float32, n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		if x>>63 == 0 {
			out[i] = math.Float32frombits(uint32(x >> 20))
		}
	}
	return out
}

func TestChecksumDetectsEverySingleBitFlip(t *testing.T) {
	block := lcgFloats(1024) // 4 KiB
	want := Checksum(block)
	for i := range block {
		orig := block[i]
		for bit := 0; bit < 32; bit++ {
			block[i] = math.Float32frombits(math.Float32bits(orig) ^ 1<<uint(bit))
			if Checksum(block) == want {
				t.Fatalf("flipping bit %d of element %d left the digest unchanged", bit, i)
			}
		}
		block[i] = orig
	}
	if Checksum(block) != want {
		t.Fatal("digest not restored with the data")
	}
}

func TestChecksumOrderLengthAndSign(t *testing.T) {
	data := lcgFloats(3*checksumSegment + 100)
	for i := range data {
		if data[i] == 0 {
			data[i] = float32(i + 1) // no equal words below
		}
	}
	want := Checksum(data)
	// Same lane, neighbouring lanes, halves of one word, across the tail,
	// across segments.
	for _, p := range [][2]int{{0, 8}, {0, 2}, {0, 1}, {7, len(data) - 1}, {5, checksumSegment + 5},
		{checksumSegment - 1, checksumSegment}, {2 * checksumSegment, 3*checksumSegment + 99}} {
		data[p[0]], data[p[1]] = data[p[1]], data[p[0]]
		if Checksum(data) == want {
			t.Fatalf("swapping elements %d and %d left the digest unchanged", p[0], p[1])
		}
		data[p[0]], data[p[1]] = data[p[1]], data[p[0]]
	}
	// Whole segments exchanged.
	swapped := append([]float32(nil), data...)
	copy(swapped, data[checksumSegment:2*checksumSegment])
	copy(swapped[checksumSegment:], data[:checksumSegment])
	if Checksum(swapped) == want {
		t.Fatal("exchanging two segments left the digest unchanged")
	}

	// Appended zeros change it, at every alignment and for all-zero input.
	for _, base := range [][]float32{nil, {0}, make([]float32, 7), make([]float32, 8), lcgFloats(33),
		make([]float32, checksumSegment), lcgFloats(checksumSegment)} {
		seen := map[uint64]int{Checksum(base): 0}
		grown := base
		for k := 1; k <= 17; k++ {
			grown = append(grown, 0)
			h := Checksum(grown)
			if prev, dup := seen[h]; dup {
				t.Fatalf("len %d + %d zeros digests like + %d zeros", len(base), k, prev)
			}
			seen[h] = k
		}
	}

	// −0 and +0, and two NaN payloads, are different data.
	pair := func(a, b uint32) {
		t.Helper()
		x, y := lcgFloats(64), lcgFloats(64)
		x[10], y[10] = math.Float32frombits(a), math.Float32frombits(b)
		if Checksum(x) == Checksum(y) {
			t.Fatalf("%08x and %08x digest alike", a, b)
		}
	}
	pair(0, 0x80000000)
	pair(0x7FC00000, 0x7FC00001)
}

func TestChecksumSameAtAnyCoreCount(t *testing.T) {
	// Pinned values: a redefinition of the digest must be deliberate, and
	// the `-cpu 1,2,4` gate runs hold every core count to the same numbers.
	for _, pin := range []struct {
		n    int
		want uint64
	}{
		{0, 0x5e72994b099447d1},
		{1000, 0x52b71dfbbc06e46c},
		{5*checksumSegment + 3, 0x3bce9d00c8361825},
	} {
		if got := Checksum(lcgFloats(pin.n)); got != pin.want {
			t.Errorf("Checksum of %d elements = %#x, pinned %#x", pin.n, got, pin.want)
		}
	}
	// Around every segment boundary, at explicit pool widths on top of the
	// gate's: the pooled value is the serial definition's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 7, 8, 9, checksumSegment - 1, checksumSegment, checksumSegment + 1,
			2*checksumSegment - 1, 2 * checksumSegment, 2*checksumSegment + 1, 9*checksumSegment + 5} {
			data := lcgFloats(n)
			if got, want := Checksum(data), checksumSerial(data); got != want {
				t.Fatalf("GOMAXPROCS %d, %d elements: pooled %#x, serial %#x", procs, n, got, want)
			}
		}
	}
}
