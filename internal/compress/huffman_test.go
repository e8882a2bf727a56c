package compress

import (
	"math"
	"testing"
	"testing/quick"

	"cswap/internal/tensor"
)

func huffRoundTrip(t *testing.T, src []float32) []byte {
	t.Helper()
	c := MustNew(Huffman)
	blob := c.Encode(src)
	got, err := c.Decode(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(src) {
		t.Fatalf("length %d, want %d", len(got), len(src))
	}
	for i := range src {
		if math.Float32bits(got[i]) != math.Float32bits(src[i]) {
			t.Fatalf("mismatch at %d", i)
		}
	}
	return blob
}

func TestHuffmanRoundTripEdgeCases(t *testing.T) {
	cases := map[string][]float32{
		"empty":        {},
		"single zero":  {0},
		"single value": {3.25},
		"all zeros":    make([]float32, 1000),
		"all same":     {7, 7, 7, 7, 7, 7},
		"two values":   {1, 2, 1, 2, 2, 1, 1, 1},
		"dense random": tensor.NewGenerator(1).Uniform(5000, 0).Data,
		"sparse":       tensor.NewGenerator(2).Uniform(5000, 0.7).Data,
		"nan and inf":  {float32(math.NaN()), float32(math.Inf(1)), 0, -1},
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) { huffRoundTrip(t, src) })
	}
}

func TestHuffmanRegisteredInDispatch(t *testing.T) {
	blob := huffRoundTrip(t, []float32{0, 1, 0, 2})
	a, err := BlobAlgorithm(blob)
	if err != nil || a != Huffman {
		t.Fatalf("BlobAlgorithm = %v, %v", a, err)
	}
	if _, err := Decode(blob); err != nil {
		t.Fatal(err)
	}
	if Huffman.String() != "HUF" {
		t.Fatalf("String = %q", Huffman.String())
	}
	ext := ExtendedAlgorithms()
	if len(ext) != 5 || ext[4] != Huffman {
		t.Fatalf("ExtendedAlgorithms = %v", ext)
	}
	// The paper set stays the paper set.
	if len(Algorithms()) != 4 {
		t.Fatal("Algorithms() must remain the paper's four")
	}
}

func TestHuffmanCompressesAllZeroToOneBitPerByte(t *testing.T) {
	src := make([]float32, 100000)
	blob := huffRoundTrip(t, src)
	// 1 bit per raw byte plus table/header: ratio ≈ 1/8 of bytes ⇒ 0.125.
	if r := Ratio(blob, len(src)); r > 0.13 {
		t.Fatalf("all-zero ratio %v, want ≈0.125", r)
	}
}

func TestHuffmanBeatsRawOnDenseActivations(t *testing.T) {
	// Unlike the sparsity codecs, Huffman helps even at sparsity 0 thanks
	// to the skewed exponent byte.
	tn := tensor.NewGenerator(3).Uniform(100000, 0)
	blob := huffRoundTrip(t, tn.Data)
	if r := Ratio(blob, tn.Len()); r > 0.95 {
		t.Fatalf("dense ratio %v, want < 0.95", r)
	}
	zvc := Ratio(MustNew(ZVC).Encode(tn.Data), tn.Len())
	if Ratio(blob, tn.Len()) >= zvc {
		t.Fatalf("Huffman should beat ZVC on dense data (%v vs %v)",
			Ratio(blob, tn.Len()), zvc)
	}
}

func TestHuffmanRatioModel(t *testing.T) {
	gen := tensor.NewGenerator(4)
	for _, s := range []float64{0.2, 0.35, 0.5, 0.65, 0.8, 0.9} {
		tn := gen.Uniform(200000, s)
		real := Ratio(MustNew(Huffman).Encode(tn.Data), tn.Len())
		est := EstimateRatio(Huffman, tn.Sparsity())
		if math.Abs(real-est) > 0.04 {
			t.Errorf("sparsity %.2f: real %v, model %v", s, real, est)
		}
	}
}

func TestHuffmanDeterministic(t *testing.T) {
	tn := tensor.NewGenerator(5).Uniform(10000, 0.5)
	a := MustNew(Huffman).Encode(tn.Data)
	b := MustNew(Huffman).Encode(tn.Data)
	if len(a) != len(b) {
		t.Fatal("non-deterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic bytes")
		}
	}
}

func TestHuffmanRejectsTruncatedAndCorrupt(t *testing.T) {
	c := MustNew(Huffman)
	blob := c.Encode(tensor.NewGenerator(6).Uniform(1000, 0.5).Data)
	for cut := 0; cut < len(blob); cut += 7 {
		if _, err := c.Decode(blob[:cut]); err == nil {
			t.Fatalf("accepted truncation at %d", cut)
		}
	}
	// Flipping bytes must never panic; it may error or decode to a
	// different tensor (bit flips inside the payload can be valid codes).
	bad := append([]byte(nil), blob...)
	for i := headerSize; i < len(bad); i += 3 {
		orig := bad[i]
		bad[i] ^= 0xA5
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on corrupt byte %d: %v", i, r)
				}
			}()
			_, _ = c.Decode(bad)
		}()
		bad[i] = orig
	}
	// An over-subscribed code table must be rejected.
	oversub := append([]byte(nil), blob...)
	for i := headerSize; i < headerSize+256; i++ {
		oversub[i] = 1 // 256 symbols of length 1
	}
	if _, err := c.Decode(oversub); err == nil {
		t.Fatal("accepted over-subscribed code table")
	}
	// An empty code table with n > 0 must be rejected.
	empty := append([]byte(nil), blob...)
	for i := headerSize; i < headerSize+256; i++ {
		empty[i] = 0
	}
	if _, err := c.Decode(empty); err == nil {
		t.Fatal("accepted empty code table")
	}
}

func TestHuffmanParallelContainer(t *testing.T) {
	tn := tensor.NewGenerator(7).Uniform(50000, 0.6)
	launch := Launch{Grid: 32, Block: 64}
	blob, err := ParallelEncode(Huffman, tn.Data, launch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParallelDecode(blob, launch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != tn.Data[i] {
			t.Fatal("parallel round-trip mismatch")
		}
	}
}

func TestHuffmanQuickProperty(t *testing.T) {
	gen := tensor.NewGenerator(8)
	f := func(n uint16, sp uint8) bool {
		size := int(n%2048) + 1
		tn := gen.Uniform(size, float64(sp)/255)
		c := MustNew(Huffman)
		got, err := c.Decode(c.Encode(tn.Data))
		if err != nil || len(got) != len(tn.Data) {
			return false
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(tn.Data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// fibonacciFreq returns a frequency table whose optimal Huffman tree is a
// maximally skewed vine: symbol i lands at depth ≈ n-i, so n live symbols
// need codes up to ~n-1 bits. 90 symbols stay within int64 yet demand
// codes far beyond huffMaxCodeLen without the length-limit fallback.
func fibonacciFreq() []int64 {
	freq := make([]int64, 256)
	a, b := int64(1), int64(1)
	for i := 0; i < 90; i++ {
		freq[i] = a
		a, b = b, a+b
	}
	return freq
}

func TestHuffmanDepthGuardFibonacci(t *testing.T) {
	freq := fibonacciFreq()
	lengths := huffmanCodeLengths(freq)
	var kraft float64
	for i := 0; i < 90; i++ {
		ln := lengths[i]
		if ln == 0 {
			t.Fatalf("symbol %d lost its code", i)
		}
		if ln > huffMaxCodeLen {
			t.Fatalf("symbol %d got a %d-bit code, limit %d", i, ln, huffMaxCodeLen)
		}
		kraft += 1 / float64(uint64(1)<<uint(ln))
	}
	for i := 90; i < 256; i++ {
		if lengths[i] != 0 {
			t.Fatalf("absent symbol %d got length %d", i, lengths[i])
		}
	}
	// The dampened rebuild is still a true Huffman tree: complete code.
	if math.Abs(kraft-1) > 1e-9 {
		t.Fatalf("Kraft sum %v, want 1", kraft)
	}
	if err := new(huffmanDecoder).build(&lengths); err != nil {
		t.Fatalf("decoder rejects the length-limited table: %v", err)
	}
}

func TestHuffmanFibonacciTableRoundTrips(t *testing.T) {
	// Bit-pack a byte stream under the length-limited Fibonacci table and
	// decode it through the public path: before the depth guard this blob
	// shape was self-rejecting (encoder emitted >56-bit codes its own
	// decoder refused as ErrCorrupt).
	freq := fibonacciFreq()
	lengths := huffmanCodeLengths(freq)
	codes := canonicalCodes(lengths)

	const n = 64 // elements → 256 raw bytes
	raw := make([]byte, n*4)
	for i := range raw {
		raw[i] = byte(i % 90)
	}
	blob := putHeader(nil, Huffman, n)
	blob = append(blob, lengths[:]...)
	var acc uint64
	var nbits uint
	for _, b := range raw {
		c := codes[b]
		acc = acc<<uint64(c.len) | uint64(c.code)
		nbits += uint(c.len)
		for nbits >= 8 {
			nbits -= 8
			blob = append(blob, byte(acc>>nbits))
		}
	}
	if nbits > 0 {
		blob = append(blob, byte(acc<<(8-nbits)))
	}

	got, err := MustNew(Huffman).Decode(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	for i := 0; i < n; i++ {
		if math.Float32bits(got[i]) != math.Float32bits(readFloat32(raw[i*4:])) {
			t.Fatalf("mismatch at element %d", i)
		}
	}
}

func TestHuffmanDecoderRefusesOverSubscribedTable(t *testing.T) {
	var bad [256]byte
	for i := range bad {
		bad[i] = 1
	}
	if err := new(huffmanDecoder).build(&bad); err == nil {
		t.Fatal("over-subscribed table accepted")
	}
}

func TestCanonicalCodesPrefixFree(t *testing.T) {
	// Build codes from a skewed distribution and verify the prefix-free
	// property exhaustively.
	freq := make([]int64, 256)
	for i := range freq {
		freq[i] = int64(1 + i*i)
	}
	lengths := huffmanCodeLengths(freq)
	codes := canonicalCodes(lengths)
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if a == b || codes[a].len == 0 || codes[b].len == 0 {
				continue
			}
			if codes[a].len <= codes[b].len {
				prefix := codes[b].code >> uint(codes[b].len-codes[a].len)
				if prefix == codes[a].code {
					t.Fatalf("code %d is a prefix of %d", a, b)
				}
			}
		}
	}
	// Kraft equality for a complete code.
	var kraft float64
	for _, c := range codes {
		if c.len > 0 {
			kraft += 1 / float64(uint64(1)<<uint(c.len))
		}
	}
	if math.Abs(kraft-1) > 1e-9 {
		t.Fatalf("Kraft sum %v, want 1", kraft)
	}
}

// TestHuffPackBoundedByStream: a stream too short for the bytes under the
// code — half the length they pack to, or a valid but over-long code in
// which nearly every symbol takes 40 bits, whose packing takes the checked
// general loop — makes huffPack return -1 without writing past the stream
// and its slack, and never panics. A stream of the packed length packs to
// exactly that length.
func TestHuffPackBoundedByStream(t *testing.T) {
	src := tensor.NewGenerator(331).Uniform(4096, 0.2).Data
	var freq [256]int64
	huffHistogram(&freq, src)
	lengths := huffmanCodeLengths(freq[:])
	size := huffStreamLen(&freq, &lengths)
	long := lengths
	for s := range long {
		long[s] = 40
	}
	long[0], long[1] = 8, 8
	for _, tc := range []struct {
		name         string
		lengths      [256]byte
		stream, want int
	}{
		{"exact stream", lengths, size, size},
		{"short stream", lengths, size / 2, -1},
		{"long codes", long, size, -1},
	} {
		var codes huffCodeTable
		maxLen := codes.set(tc.lengths)
		end := tc.stream + huffSlack
		buf := make([]byte, end+64)
		for i := range buf {
			buf[i] = 0xEE
		}
		if got := huffPack(buf[:end], src, &codes, maxLen); got != tc.want {
			t.Fatalf("%s: packed length %d, want %d", tc.name, got, tc.want)
		}
		for i, v := range buf[end:] {
			if v != 0xEE {
				t.Fatalf("%s: wrote byte %d past the stream and its slack", tc.name, i)
			}
		}
	}
}
