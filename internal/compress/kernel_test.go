package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
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

// The scalar Huffman coder the word-wide kernels in huffman.go replaced,
// kept as the reference the kernels are held to: a raw-byte staging pass,
// one append per stream byte on encode; a freshly allocated decoder whose
// table is filled one store per slot, one symbol and one byte load at a
// time on decode.

// refHUFPack bit-packs raw under the code for lengths after a Huffman header
// for n elements: the scalar encoder's output stage.
func refHUFPack(n int, lengths [256]byte, raw []byte) []byte {
	codes := canonicalCodes(lengths)
	dst := putHeader(nil, Huffman, n)
	dst = append(dst, lengths[:]...)
	var acc uint64
	var nbits uint
	for _, b := range raw {
		c := codes[b]
		acc = acc<<uint64(c.len) | uint64(c.code)
		nbits += uint(c.len)
		for nbits >= 8 {
			nbits -= 8
			dst = append(dst, byte(acc>>nbits))
		}
	}
	if nbits > 0 {
		dst = append(dst, byte(acc<<(8-nbits)))
	}
	return dst
}

func refHUFEncode(src []float32) []byte {
	if len(src) == 0 {
		return putHeader(nil, Huffman, 0)
	}
	raw := make([]byte, len(src)*4)
	for i, v := range src {
		binary.LittleEndian.PutUint32(raw[i*4:], float32bits(v))
	}
	var freq [256]int64
	for _, b := range raw {
		freq[b]++
	}
	return refHUFPack(len(src), huffmanCodeLengths(freq[:]), raw)
}

// refHuffmanDecoder is the decoder the scalar loop ran on: a single-symbol
// primary table (len<<8 | symbol) over the per-length fallback tables.
type refHuffmanDecoder struct {
	maxLen    byte
	firstCode [huffMaxCodeLen + 2]uint64
	count     [huffMaxCodeLen + 2]int
	offset    [huffMaxCodeLen + 2]int
	nsyms     int
	symbols   [256]byte
	table     [1 << huffTableBits]uint16
}

func refNewHuffmanDecoder(lengths [256]byte) (*refHuffmanDecoder, error) {
	d := &refHuffmanDecoder{}
	for _, ln := range lengths {
		if ln == 0 {
			continue
		}
		if ln > huffMaxCodeLen {
			return nil, fmt.Errorf("%w: code length %d", ErrCorrupt, ln)
		}
		if ln > d.maxLen {
			d.maxLen = ln
		}
		d.count[ln]++
		d.nsyms++
	}
	if d.nsyms == 0 {
		return nil, fmt.Errorf("%w: empty code table", ErrCorrupt)
	}
	code := uint64(0)
	idx := 0
	var kraft float64
	for ln := byte(1); ln <= d.maxLen; ln++ {
		code <<= 1
		d.firstCode[ln] = code
		d.offset[ln] = idx
		code += uint64(d.count[ln])
		idx += d.count[ln]
		kraft += float64(d.count[ln]) / float64(uint64(1)<<uint(ln))
	}
	if d.nsyms > 1 && kraft > 1.0000001 {
		return nil, fmt.Errorf("%w: over-subscribed code table", ErrCorrupt)
	}
	var fill [huffMaxCodeLen + 2]int
	copy(fill[:], d.offset[:])
	for sym, ln := range lengths {
		if ln == 0 {
			continue
		}
		rank := fill[ln] - d.offset[ln]
		d.symbols[fill[ln]] = byte(sym)
		fill[ln]++
		if ln <= huffTableBits {
			e := uint16(ln)<<8 | uint16(sym)
			base := (d.firstCode[ln] + uint64(rank)) << (huffTableBits - uint(ln))
			span := uint64(1) << (huffTableBits - uint(ln))
			for j := uint64(0); j < span; j++ {
				d.table[base+j] = e
			}
		}
	}
	return d, nil
}

func (d *refHuffmanDecoder) next(acc uint64, nbits uint) (sym byte, consumed uint, ok bool) {
	if nbits > 0 {
		var idx uint64
		if nbits >= huffTableBits {
			idx = acc >> (nbits - huffTableBits)
		} else {
			idx = acc << (huffTableBits - nbits) & (1<<huffTableBits - 1)
		}
		if e := d.table[idx]; e != 0 {
			if ln := uint(e >> 8); ln <= nbits {
				return byte(e), ln, true
			}
			return 0, 0, false
		}
		if nbits <= huffTableBits {
			return 0, 0, false
		}
	}
	for ln := byte(huffTableBits + 1); ln <= d.maxLen && uint(ln) <= nbits; ln++ {
		if d.count[ln] == 0 {
			continue
		}
		prefix := acc >> (nbits - uint(ln))
		if prefix >= d.firstCode[ln] && prefix < d.firstCode[ln]+uint64(d.count[ln]) {
			return d.symbols[d.offset[ln]+int(prefix-d.firstCode[ln])], uint(ln), true
		}
	}
	return 0, 0, false
}

func refHUFDecodeInto(dst []float32, blob []byte) error {
	n, payload, err := parseHeader(blob, Huffman)
	if err != nil {
		return err
	}
	if err := checkDst(dst, n); err != nil {
		return err
	}
	if n == 0 {
		if len(payload) != 0 {
			return ErrCorrupt
		}
		return nil
	}
	if len(payload) < 256 {
		return ErrTruncated
	}
	var lengths [256]byte
	copy(lengths[:], payload[:256])
	data := payload[256:]
	dec, err := refNewHuffmanDecoder(lengths)
	if err != nil {
		return err
	}
	raw := make([]byte, n*4)
	var acc uint64
	var nbits uint
	pos := 0
	for i := range raw {
		sym, consumed, ok := dec.next(acc, nbits)
		for !ok {
			if pos >= len(data) {
				return ErrTruncated
			}
			acc = acc<<8 | uint64(data[pos])
			nbits += 8
			pos++
			if nbits > 64-8 {
				return fmt.Errorf("%w: oversized huffman code", ErrCorrupt)
			}
			sym, consumed, ok = dec.next(acc, nbits)
		}
		raw[i] = sym
		nbits -= consumed
		acc &= (1 << nbits) - 1
	}
	if pos != len(data) || nbits >= 8 {
		return ErrCorrupt
	}
	for i := range dst {
		dst[i] = readFloat32(raw[i*4:])
	}
	return nil
}

// hufSingleSymbol is a tensor of one byte value: a one-code table, half of
// whose windows are holes.
var hufSingleSymbol = []float32{math.Float32frombits(0x41414141), math.Float32frombits(0x41414141), math.Float32frombits(0x41414141)}

// hufKernelCases returns the tensors both Huffman parity tests run over,
// by name: random tensors across sparsity and length, the float classes a
// numeric treatment would mishandle, and a one-symbol tensor.
func hufKernelCases() map[string][]float32 {
	cases := map[string][]float32{
		"single symbol": hufSingleSymbol,
		"special values": {
			math.Float32frombits(0x80000000), float32(math.NaN()), math.Float32frombits(0x7FC00001),
			float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(1), math.Float32frombits(0x807FFFFF), 0, 1.5,
		},
	}
	cases["fibonacci bytes"] = hufFibonacciTensor(26)
	gen := tensor.NewGenerator(37)
	for _, s := range []float64{0, 0.2, 0.5, 0.9, 1} {
		for _, n := range []int{0, 1, 2, 3, 5, 31, 16384, 16385} {
			cases[fmt.Sprintf("s=%v n=%d", s, n)] = gen.Uniform(n, s).Data
		}
	}
	return cases
}

// hufFibonacciTensor returns a tensor whose byte values 0..syms-1 occur in
// Fibonacci proportions, shuffled: the encoder's optimal tree for it is
// syms-1 deep, past the decoder's table and the packer's one flush per
// element, with the long codes scattered through the stream.
func hufFibonacciTensor(syms int) []float32 {
	var raw []byte
	for sym, a, b := 0, 1, 1; sym < syms; sym, a, b = sym+1, b, a+b {
		raw = append(raw, bytes.Repeat([]byte{byte(sym)}, a)...)
	}
	raw = raw[:len(raw)&^3]
	rand.New(rand.NewSource(37)).Shuffle(len(raw), func(i, j int) { raw[i], raw[j] = raw[j], raw[i] })
	src := make([]float32, len(raw)/4)
	for i := range src {
		src[i] = readFloat32(raw[i*4:])
	}
	return src
}

// hufFibonacciBlob packs raw (a whole number of elements) under the
// length-limited Fibonacci table, whose codes run to huffMaxCodeLen.
func hufFibonacciBlob(raw []byte) []byte {
	return refHUFPack(len(raw)/4, huffmanCodeLengths(fibonacciFreq()), raw)
}

func TestHUFKernelsMatchScalarReference(t *testing.T) {
	c := huffmanCodec{}
	decodeBoth := func(name string, blob []byte, n int) []float32 {
		t.Helper()
		dst, ref := dirtyFloats(n), dirtyFloats(n)
		if err := c.DecodeInto(dst, blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := refHUFDecodeInto(ref, blob); err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !sameBits(dst, ref) {
			t.Fatalf("%s: decode differs from the scalar reference", name)
		}
		return dst
	}
	for name, src := range hufKernelCases() {
		n := len(src)
		want := refHUFEncode(src)
		if name == "fibonacci bytes" && slices.Max(want[headerSize:headerSize+256]) <= 2*huffTableBits {
			t.Fatal("the Fibonacci tensor no longer outgrows the decoder's table")
		}
		// Appended after a prefix, into exactly the promised capacity.
		buf := append(make([]byte, 0, 3+c.MaxEncodedLen(n)), "pre"...)
		got := c.AppendEncode(buf, src)
		if !bytes.Equal(got[3:], want) || string(got[:3]) != "pre" {
			t.Fatalf("%s: blob differs from the scalar reference", name)
		}
		if &got[0] != &buf[0] {
			t.Fatalf("%s: AppendEncode reallocated a sufficient buffer", name)
		}
		if grown := c.AppendEncode([]byte("pre"), src); !bytes.Equal(grown, got) {
			t.Fatalf("%s: growing append differs", name)
		}
		if !sameBits(decodeBoth(name, want, n), src) {
			t.Fatalf("%s: decode differs from the source", name)
		}
	}

	// The length-limited Fibonacci table: codes up to huffMaxCodeLen, far
	// past the decoder's table.
	raw := make([]byte, 4*90)
	for i := range raw {
		raw[i] = byte(i % 90)
	}
	blob := hufFibonacciBlob(raw)
	lengths := (*[256]byte)(blob[headerSize:])
	if slices.Max(lengths[:]) <= 2*huffTableBits {
		t.Fatal("the Fibonacci table no longer outgrows the decoder's table")
	}
	src := decodeBoth("fibonacci", blob, len(raw)/4)
	for i, v := range src {
		if math.Float32bits(v) != binary.LittleEndian.Uint32(raw[i*4:]) {
			t.Fatalf("fibonacci: element %d restored wrong", i)
		}
	}
}

// TestHUFPackerFlushCadences drives the bit writer at the code lengths where
// its flush cadence changes and at the longest it takes: elements made of
// four longest codes, behind every count of pending bits, must pack as the
// scalar reference packs them.
func TestHUFPackerFlushCadences(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, long := range []byte{56 / 4, 56/4 + 1, 56 / 2, 56/2 + 1, huffMaxCodeLen} {
		// Symbols 0–3 are the first four codes of the long length; the two-
		// and three-bit symbols 4 and 5 between them leave every count of
		// pending bits.
		lengths := [256]byte{long, long, long, long, 2, 3}
		var packed [256]uint64
		for s, c := range canonicalCodes(lengths) {
			packed[s] = c.code<<8 | uint64(c.len)
		}
		raw := make([]byte, 4*512)
		for i := range raw {
			raw[i] = byte(rng.Intn(6))
		}
		for i := 0; i < len(raw); i += 64 {
			copy(raw[i:], []byte{0, 1, 2, 3, 3, 2, 1, 0})
		}
		src := make([]float32, len(raw)/4)
		for i := range src {
			src[i] = readFloat32(raw[i*4:])
		}
		want := refHUFPack(len(src), lengths, raw)[headerSize+256:]
		stream := make([]byte, len(want)+huffSlack)
		huffPack(stream, src, &packed, long)
		if !bytes.Equal(stream[:len(want)], want) {
			t.Fatalf("longest code %d bits: packed stream differs from the scalar reference", long)
		}
	}
}

// hufMalformedCase is a damaged Huffman blob and the destination length a
// decode of it is given.
type hufMalformedCase struct {
	name   string
	blob   []byte
	dstLen int
}

// hufMalformedCases returns every prefix of a few blobs, every single-bit
// flip of their header, their length table and the first and last 16
// stream bytes, and the blobs with one byte appended. Each blob is an
// exact-capacity copy, so a read past its end cannot land in spare
// capacity unnoticed, and a flip in the element count gives the
// destination the length it asks for.
func hufMalformedCases() []hufMalformedCase {
	blobs := map[string][]byte{}
	gen := tensor.NewGenerator(41)
	for _, s := range []float64{0, 0.2, 0.9} {
		blobs[fmt.Sprintf("s=%v", s)] = refHUFEncode(gen.Uniform(301, s).Data)
	}
	blobs["single symbol"] = refHUFEncode(hufSingleSymbol)
	raw := make([]byte, 4*90)
	for i := range raw {
		raw[i] = byte(i * 7 % 90)
	}
	blobs["fibonacci"] = hufFibonacciBlob(raw)

	var cases []hufMalformedCase
	for name, blob := range blobs {
		cases = append(cases, hufDamage(name, blob)...)
	}
	return cases
}

// hufDamage returns the damaged copies of blob that hufMalformedCases
// makes, named after name.
func hufDamage(name string, blob []byte) []hufMalformedCase {
	var cases []hufMalformedCase
	n := int(binary.LittleEndian.Uint64(blob[1:]))
	add := func(what string, damaged []byte) {
		damaged = append(make([]byte, 0, len(damaged)), damaged...)
		dstLen := n
		if len(damaged) >= headerSize {
			if claimed := binary.LittleEndian.Uint64(damaged[1:]); claimed < 1<<16 {
				dstLen = int(claimed)
			}
		}
		cases = append(cases, hufMalformedCase{name + " " + what, damaged, dstLen})
	}
	for cut := 0; cut <= len(blob); cut++ {
		add(fmt.Sprintf("prefix %d", cut), blob[:cut])
	}
	stream := headerSize + 256
	for i := range blob {
		if i >= stream+16 && i < len(blob)-16 {
			continue
		}
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), blob...)
			flipped[i] ^= 1 << bit
			add(fmt.Sprintf("byte %d bit %d", i, bit), flipped)
		}
	}
	add("appended byte", append(append([]byte(nil), blob...), 0))
	add("appended set byte", append(append([]byte(nil), blob...), 0xff))
	return cases
}

// TestHUFMalformedMatchesScalarReference holds the kernels to the
// reference's verdict on damaged input: every case of hufMalformedCases
// must land in the same class — and, where the damaged blob still decodes,
// produce the same elements — never panic.
func TestHUFMalformedMatchesScalarReference(t *testing.T) {
	for _, c := range hufMalformedCases() {
		dst, ref := dirtyFloats(c.dstLen), dirtyFloats(c.dstLen)
		got, want := huffmanCodec{}.DecodeInto(dst, c.blob), refHUFDecodeInto(ref, c.blob)
		if decodeClass(got) != decodeClass(want) {
			t.Fatalf("%s: kernel says %q, reference %q", c.name, decodeClass(got), decodeClass(want))
		}
		if want == nil && !sameBits(dst, ref) {
			t.Fatalf("%s: decodes differ", c.name)
		}
	}

	// A table with a hole in its code space — "0" is the only code — and a
	// stream that runs into it after 0 to 7 symbols: corrupt once 56 bits
	// match nothing, truncated if the stream ends first, and which comes
	// first depends on the bits pending and the bytes left.
	for lead := 0; lead < 8; lead++ {
		for size := 5; size <= 10; size++ {
			blob := putHeader(nil, Huffman, 3)
			blob = append(blob, make([]byte, 256)...)
			blob[headerSize+0x41] = 1
			blob = append(blob, bytes.Repeat([]byte{0xff}, size)...)
			blob[headerSize+256] >>= lead
			dst, ref := dirtyFloats(3), dirtyFloats(3)
			got, want := huffmanCodec{}.DecodeInto(dst, blob), refHUFDecodeInto(ref, blob)
			if decodeClass(got) != decodeClass(want) || want == nil {
				t.Fatalf("hole after %d symbols, %d stream bytes: kernel says %q, reference %q",
					lead, size, decodeClass(got), decodeClass(want))
			}
		}
	}
}

// The pooled workspace is rebuilt per blob. Whatever it decoded before,
// every window of the rebuilt table must hold exactly the whole codes the
// reference decoder finds in it one at a time, up to three, and next must
// agree with the reference's on codes of every length.
func TestHuffmanDecoderBuildMatchesReference(t *testing.T) {
	d := new(huffmanDecoder)
	gen := tensor.NewGenerator(43)
	tables := [][256]byte{huffmanCodeLengths(fibonacciFreq())}
	for _, s := range []float64{0, 0.3, 0.95, 1} {
		blob := refHUFEncode(gen.Uniform(4096, s).Data)
		tables = append(tables, *(*[256]byte)(blob[headerSize:]))
	}
	var under [256]byte // codes, but holes in the code space
	under[3], under[200] = 2, 9
	tables = append(tables, under)
	for ti, lengths := range tables {
		ref, err := refNewHuffmanDecoder(lengths)
		if err != nil {
			t.Fatalf("table %d: reference: %v", ti, err)
		}
		if err := d.build(&lengths); err != nil {
			t.Fatalf("table %d: %v", ti, err)
		}
		for w := 0; w < 1<<huffTableBits; w++ {
			var want uint32
			acc, nbits := uint64(w), uint(huffTableBits)
			for k := 0; k < 3; k++ {
				sym, consumed, ok := ref.next(acc, nbits)
				if !ok {
					break
				}
				want += uint32(sym)<<(huffEntrySyms+8*k) + 1<<huffEntryCount + uint32(consumed)
				nbits -= consumed
				acc &= 1<<nbits - 1
			}
			if d.table[w] != want {
				t.Fatalf("table %d window %011b: entry %#x, want %#x", ti, w, d.table[w], want)
			}
		}
		for sym, c := range canonicalCodes(lengths) {
			if c.len == 0 {
				continue
			}
			// The code followed by set bits, and the code one bit short.
			acc, nbits := c.code<<3|7, uint(c.len)+3
			if got, n, ok := d.next(acc, nbits); !ok || int(got) != sym || n != uint(c.len) {
				t.Fatalf("table %d symbol %d: next = %d, %d, %v", ti, sym, got, n, ok)
			}
			if _, _, ok := d.next(c.code>>1, uint(c.len)-1); ok {
				t.Fatalf("table %d symbol %d: next matched a code one bit short", ti, sym)
			}
		}
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
