package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cswap/internal/tensor"
)

// FuzzRoundTrip drives every codec with arbitrary byte-derived tensors.
// Under plain `go test` the seed corpus runs as regression tests; under
// `go test -fuzz=FuzzRoundTrip` the engine explores further.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // NaN then zero
	f.Add([]byte{0, 0, 0, 0x80, 0, 0, 0, 0})          // -0 then +0
	f.Add(make([]byte, 256))
	seed := make([]byte, 1024)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed)

	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 4
		src := make([]float32, n)
		zeroish := 0
		for i := 0; i < n; i++ {
			bits := binary.LittleEndian.Uint32(raw[i*4:])
			// Sparsify: map small mantissas to exact zero so the
			// sparsity paths get exercised.
			if bits%3 == 0 {
				bits = 0
				zeroish++
			}
			src[i] = math.Float32frombits(bits)
		}
		for _, a := range ExtendedAlgorithms() {
			c := MustNew(a)
			blob := c.Encode(src)
			got, err := c.Decode(blob)
			if err != nil {
				t.Fatalf("%s: decode own output: %v", a, err)
			}
			if len(got) != len(src) {
				t.Fatalf("%s: length %d, want %d", a, len(got), len(src))
			}
			for i := range src {
				if w, g := math.Float32bits(src[i]), math.Float32bits(got[i]); w != g {
					t.Fatalf("%s: bit mismatch at %d: %08x -> %08x", a, i, w, g)
				}
			}
		}
	})
}

// FuzzParallelRoundTrip drives the parallel container framing: an arbitrary
// byte-derived tensor is encoded with one of the five algorithms by the
// encoder body, at a fuzz-chosen chunk count with no chunk floor, then
// (a) decoded pristine — must round-trip bit-exactly, (b) truncated at a
// fuzz-chosen boundary — must error, and (c) bit-flipped at a fuzz-chosen
// position — must never panic, and must never silently return wrong data
// when the flip lands in the container header or chunk directory. The
// fuzzed tensors are at most 16 Ki elements, so ParallelEncode makes them
// one chunk; it must equal the body at ChunkCount.
func FuzzParallelRoundTrip(f *testing.F) {
	// Seeds cover all five algorithms, truncation at the framing
	// boundaries (header, directory, chunk edges), and bit-flips inside
	// the chunk directory.
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	for ai := uint8(0); ai < 5; ai++ {
		f.Add(payload, ai, uint16(4), uint32(0), uint8(0))   // truncate to nothing
		f.Add(payload, ai, uint16(4), uint32(13), uint8(0))  // truncate inside header
		f.Add(payload, ai, uint16(4), uint32(14), uint8(0))  // truncate at directory start
		f.Add(payload, ai, uint16(4), uint32(46), uint8(0))  // truncate at directory end (4 chunks)
		f.Add(payload, ai, uint16(4), uint32(60), uint8(0))  // truncate mid-chunk
		f.Add(payload, ai, uint16(1), uint32(21), uint8(1))  // flip in chunk directory
		f.Add(payload, ai, uint16(64), uint32(11), uint8(1)) // flip in chunk count
		f.Add(payload, ai, uint16(9), uint32(2), uint8(1))   // flip in element count
		f.Add(payload, ai, uint16(300), uint32(99), uint8(2))
	}
	// Adversarial Huffman code tables: flips landing inside the first
	// chunk's 256-byte length table (which starts at dir end + chunk
	// header) zero a live length (under-subscribed) or inflate a dead one
	// (over-subscribed); the decoder must reject or stay bit-exact, never
	// panic. algSel 4 selects Huffman, grid 1 keeps a single chunk so the
	// table position is stable.
	for off := uint32(0); off < 256; off += 37 {
		f.Add(payload, uint8(4), uint16(0), uint32(14+8+9)+off, uint8(2))
	}

	// Paired Huffman decoding: 16 Ki elements in 8 chunks of 2 Ki and in 7
	// of 2368, an even and an odd count (the container pairs the 8 at up
	// to two workers, the 7 at one), decoded pristine and truncated; then
	// the 8 with a byte of the second chunk's stream flipped.
	huf := make([]byte, 4<<14)
	hufSrc := tensor.NewGenerator(71).Uniform(1<<14, 0.2).Data
	for i, v := range hufSrc {
		binary.LittleEndian.PutUint32(huf[4*i:], math.Float32bits(v))
	}
	f.Add(huf, uint8(4), uint16(7), uint32(40000), uint8(0))
	f.Add(huf, uint8(4), uint16(6), uint32(40000), uint8(0))
	for i, v := range hufSrc {
		if math.Float32bits(v)%3 == 0 {
			hufSrc[i] = 0
		}
	}
	if blob, err := appendParallelChunks(nil, Huffman, hufSrc, 8, nil); err == nil {
		if pc := new(parContainer); pc.parse(blob) == nil {
			f.Add(huf, uint8(4), uint16(7), uint32(pc.offsets[1]+headerSize+256+1000), uint8(2))
		}
	}

	// The longest code the one-flush-per-element packer takes and the
	// shortest it leaves: one chunk whose code runs to exactly 14 bits, and
	// one to 15. longest+1 symbols in Fibonacci proportions make a tree
	// longest deep; padding the commonest to whole elements keeps it so.
	// The symbols are the bytes 1, 4, 7, …, so every element's bytes sum to
	// 1 mod 3, and no element is zeroed below.
	for _, longest := range []int{huffShortCode, huffShortCode + 1} {
		var raw []byte
		for k, a, b := 0, 1, 1; k <= longest; k, a, b = k+1, b, a+b {
			raw = append(raw, bytes.Repeat([]byte{byte(3*k + 1)}, a)...)
		}
		for len(raw)%4 != 0 {
			raw = append(raw, raw[len(raw)-1])
		}
		rand.New(rand.NewSource(37)).Shuffle(len(raw), func(i, j int) { raw[i], raw[j] = raw[j], raw[i] })
		var freq [256]int64
		for _, b := range raw {
			freq[b]++
		}
		lengths := huffmanCodeLengths(freq[:])
		if got := slices.Max(lengths[:]); int(got) != longest {
			f.Fatalf("the %d-bit seed's longest code is %d bits", longest, got)
		}
		f.Add(raw, uint8(4), uint16(0), uint32(len(raw)/2), uint8(0))
	}

	// ZVC at its unchecked loops' budget edges: four all-dense chunks, whose
	// payloads end exactly where a worst-case group does, truncated one
	// byte short and flipped; one chunk whose last full group is dense
	// behind sparse ones; and dense tails of 1 and 31 elements. Dense words
	// are 1 mod 3, so none is zeroed below.
	zvcSel := uint8(slices.Index(ExtendedAlgorithms(), ZVC))
	zvcSeed := func(groups, tail int, sparse bool) ([]byte, int) {
		raw := make([]byte, 4*(zvcGroup*groups+tail))
		for i := range len(raw) / 4 {
			if sparse && i < zvcGroup*(groups-1) && i%4 != 0 {
				continue
			}
			w := uint32(0x3F800000 + 3*i)
			binary.LittleEndian.PutUint32(raw[4*i:], w-w%3+1)
		}
		blob, err := appendParallelChunks(nil, ZVC, fuzzFloats(raw), 1, nil)
		if err != nil {
			f.Fatal(err)
		}
		if worst := 14 + 8 + MustNew(ZVC).MaxEncodedLen(len(raw)/4); !sparse && len(blob) != worst {
			f.Fatalf("a dense ZVC seed encodes to %d bytes, not its worst case %d", len(blob), worst)
		}
		return raw, len(blob)
	}
	dense, _ := zvcSeed(40, 0, false)
	f.Add(dense, zvcSel, uint16(3), uint32(14+4*8+4*(9+10*zvcGroupMax)-1), uint8(0))
	f.Add(dense, zvcSel, uint16(3), uint32(5000), uint8(2))
	for _, tc := range []struct {
		groups, tail int
		sparse       bool
	}{{9, 0, true}, {9, 31, true}, {8, 1, false}, {8, 31, false}} {
		raw, blobLen := zvcSeed(tc.groups, tc.tail, tc.sparse)
		f.Add(raw, zvcSel, uint16(0), uint32(blobLen-1), uint8(0))
		f.Add(raw, zvcSel, uint16(0), uint32(blobLen-5), uint8(2))
	}

	f.Fuzz(func(t *testing.T, raw []byte, algSel uint8, gridSel uint16, pos uint32, op uint8) {
		algs := ExtendedAlgorithms()
		alg := algs[int(algSel)%len(algs)]
		launch := Launch{Grid: 1 + int(gridSel)%4096, Block: 64}
		if op&0x80 != 0 {
			launch.Block = 128
		}
		src := fuzzFloats(raw)
		n := len(src)
		blob, err := appendParallelChunks(nil, alg, src, launch.Grid, nil)
		if err != nil {
			t.Fatalf("%s %v: encode: %v", alg, launch, err)
		}
		floored, err := ParallelEncode(alg, src, launch)
		if err != nil {
			t.Fatalf("%s %v: encode: %v", alg, launch, err)
		}
		if want, _ := appendParallelChunks(nil, alg, src, ChunkCount(n, launch.Grid), nil); !bytes.Equal(floored, want) {
			t.Fatalf("%s %v: ParallelEncode differs from the body at ChunkCount", alg, launch)
		}
		got, err := ParallelDecode(blob, launch)
		if err != nil {
			t.Fatalf("%s %v: decode own output: %v", alg, launch, err)
		}
		bitExact := func(got []float32) bool { return sameBits(got, src) }
		if !bitExact(got) {
			t.Fatalf("%s %v: pristine round trip not bit-exact", alg, launch)
		}

		numChunks := int(binary.LittleEndian.Uint32(blob[10:14]))
		dirEnd := 14 + 8*numChunks
		switch op % 3 {
		case 0: // truncation at an arbitrary boundary must error
			cut := int(pos) % len(blob)
			if _, err := ParallelDecode(blob[:cut], launch); err == nil {
				t.Fatalf("%s %v: truncation to %d/%d bytes accepted", alg, launch, cut, len(blob))
			}
		case 1: // bit-flip in header/directory: reject or stay bit-exact
			p := int(pos) % dirEnd
			bad := append([]byte(nil), blob...)
			bad[p] ^= 1 << (pos % 8)
			if got, err := ParallelDecode(bad, launch); err == nil && !bitExact(got) {
				t.Fatalf("%s %v: directory flip at %d silently corrupted data", alg, launch, p)
			}
		case 2: // bit-flip anywhere: must never panic
			p := int(pos) % len(blob)
			bad := append([]byte(nil), blob...)
			bad[p] ^= 1 << (pos % 8)
			_, _ = ParallelDecode(bad, launch)
		}
	})
}

// FuzzZVCKernels holds the ZVC kernels to the scalar reference on
// arbitrary tensors: raw's little-endian words as float32 bit patterns, each
// forced to zero when zeros is not 0 and the word is 0 mod zeros, so every
// sparsity is reachable. AppendEncode must equal refZVCEncode, and
// DecodeInto of that blob refZVCDecodeInto, into dirty destinations. The
// blob, cut to at%(len+1) bytes when op is even, or with byte at%len XORed
// with op when it is odd, must then get the same verdict from both, and the
// same elements where it still decodes.
func FuzzZVCKernels(f *testing.F) {
	words := func(src []float32) []byte {
		raw := make([]byte, 0, 4*len(src))
		for _, v := range src {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(v))
		}
		return raw
	}
	special := words([]float32{1, float32(math.Copysign(0, -1)), 0, float32(math.NaN()), 2})
	f.Add([]byte{}, uint8(0), uint32(0), uint8(0))
	f.Add(special, uint8(0), uint32(3), uint8(1))
	for _, n := range []int{31, 32, 33, 5*zvcGroup - 1} {
		f.Add(words(zvcDense(n)), uint8(0), uint32(n), uint8(0))
		f.Add(words(zvcDense(n)), uint8(3), uint32(4*n), uint8(0x81))
	}
	edges := zvcBudgetEdgeTensors()
	for _, name := range []string{"dense 5 groups", "dense 5 groups, last element zero", "dense then sparse"} {
		raw := words(edges[name])
		f.Add(raw, uint8(0), uint32(len(raw)/2), uint8(0))
		f.Add(raw, uint8(0), uint32(headerSize), uint8(0x10))
	}

	f.Fuzz(func(t *testing.T, raw []byte, zeros uint8, at uint32, op uint8) {
		src := make([]float32, len(raw)/4)
		for i := range src {
			w := binary.LittleEndian.Uint32(raw[4*i:])
			if zeros != 0 && w%uint32(zeros) == 0 {
				w = 0
			}
			src[i] = math.Float32frombits(w)
		}
		checkZVCKernels(t, "pristine", src)
		blob := refZVCEncode(src)
		var damaged []byte
		if op%2 == 0 {
			damaged = blob[:int(at%uint32(len(blob)+1))]
		} else {
			damaged = slices.Clone(blob)
			damaged[int(at%uint32(len(blob)))] ^= op
		}
		// An exact-capacity copy: a read past the end cannot land in spare
		// capacity unnoticed.
		damaged = append(make([]byte, 0, len(damaged)), damaged...)
		dst, ref := dirtyFloats(len(src)), dirtyFloats(len(src))
		got, want := zvcCodec{}.DecodeInto(dst, damaged), refZVCDecodeInto(ref, damaged)
		if decodeClass(got) != decodeClass(want) {
			t.Fatalf("damaged blob: kernel says %q, reference %q", decodeClass(got), decodeClass(want))
		}
		if want == nil && !sameBits(dst, ref) {
			t.Fatal("damaged blob: decodes differ")
		}
	})
}

// FuzzDecodeRobustness feeds arbitrary bytes to every decoder: any outcome
// but a panic or a hang is acceptable.
func FuzzDecodeRobustness(f *testing.F) {
	c := MustNew(ZVC)
	f.Add(c.Encode([]float32{1, 0, 2, 0, 0, 3}))
	f.Add(MustNew(RLE).Encode([]float32{0, 0, 1}))
	f.Add(MustNew(CSR).Encode([]float32{5, 0, 0}))
	f.Add(MustNew(LZ4).Encode(make([]float32, 64)))
	f.Add(MustNew(Huffman).Encode([]float32{1, 1, 0, 2}))
	// Huffman blobs for each decoder path: codes the lookup table holds
	// whole, codes past it that take the per-length scan, and a one-symbol
	// table whose windows are half holes.
	f.Add(MustNew(Huffman).Encode(lcgFloats(64)))
	f.Add(hufFibonacciBlob([]byte{0, 1, 2, 3, 86, 87, 88, 89}))
	f.Add(MustNew(Huffman).Encode([]float32{0, 0, 0}))
	f.Add([]byte{})
	f.Add([]byte{1, 255, 255, 255, 255, 255, 255, 255, 255})
	// Hand-crafted Huffman blobs with degenerate code tables. Under-
	// subscribed: one 8-bit code covering a sliver of the code space, with
	// too little data behind it. Over-subscribed: three 1-bit codes
	// (Kraft 1.5) that the decoder must refuse outright.
	undersub := make([]byte, 9+256+4)
	undersub[0] = byte(Huffman)
	binary.LittleEndian.PutUint64(undersub[1:9], 2)
	undersub[9+7] = 8 // only symbol 7, length 8
	f.Add(undersub)
	oversub := make([]byte, 9+256+8)
	oversub[0] = byte(Huffman)
	binary.LittleEndian.PutUint64(oversub[1:9], 2)
	oversub[9+0], oversub[9+1], oversub[9+2] = 1, 1, 1
	f.Add(oversub)

	// Headers claiming 2²⁷ elements over 8 payload bytes, which every
	// codec's Decode refuses before allocating.
	for _, a := range ExtendedAlgorithms() {
		f.Add(hostileBlob(a))
	}

	f.Fuzz(func(t *testing.T, blob []byte) {
		// ZVC's Decode allocates no more than 32 elements per payload word,
		// and Huffman's no more than 2 per payload byte, whatever the header
		// claims, so they take every blob.
		_, _ = zvcCodec{}.Decode(blob)
		_, _ = huffmanCodec{}.Decode(blob)
		// Cap the claimed element count so a hostile header cannot force
		// a giant allocation in the other decoders.
		if len(blob) >= 9 {
			n := binary.LittleEndian.Uint64(blob[1:9])
			if n > 1<<20 {
				return
			}
		}
		_, _ = Decode(blob)
		for _, a := range ExtendedAlgorithms() {
			codec := MustNew(a)
			_, _ = codec.Decode(blob)
		}
	})
}

// FuzzChecksum holds the pooled word-view digest to the per-float reference
// definition (checksumSerial) at the current GOMAXPROCS. The tensor is raw's
// little-endian words as bit patterns, repeated to off%8 + n%(3 segments + 10)
// elements, and digested from element off%8 on, so the word view starts at
// every 4-byte alignment and the pool runs up to four segments.
func FuzzChecksum(f *testing.F) {
	special := binary.LittleEndian.AppendUint32(nil, 0x80000000) // −0
	for _, w := range []uint32{0x7FC00001, 0x7F800001, 0xFFFFFFFF, 0, 0x3F800000} {
		special = binary.LittleEndian.AppendUint32(special, w) // NaN payloads, +0, 1
	}
	for i, n := range []uint32{0, 1, 7, 8, 9, 300, checksumSegment - 9, checksumSegment, checksumSegment + 9, 2*checksumSegment + 1} {
		f.Add(special, uint8([]int{0, 1, 3, 7}[i%4]), n)
	}
	f.Add([]byte{}, uint8(3), uint32(checksumSegment+1))
	f.Fuzz(func(t *testing.T, raw []byte, off uint8, n uint32) {
		start, words := int(off%8), len(raw)/4
		data := make([]float32, start+int(n%(3*checksumSegment+10)))
		if words > 0 {
			for i, w := 0, floatWords(data); i < len(w); i++ {
				w[i] = binary.LittleEndian.Uint32(raw[i%words*4:])
			}
		}
		if got, want := Checksum(data[start:]), checksumSerial(data[start:]); got != want {
			t.Fatalf("%d elements from offset %d: %#x, reference %#x", len(data)-start, start, got, want)
		}
	})
}

// fuzzFloats is FuzzParallelRoundTrip's tensor for raw: its first 16 Ki
// little-endian words, each zeroed when it is 0 mod 3.
func fuzzFloats(raw []byte) []float32 {
	src := make([]float32, min(len(raw)/4, 1<<14))
	for i := range src {
		bits := binary.LittleEndian.Uint32(raw[i*4:])
		if bits%3 == 0 {
			bits = 0
		}
		src[i] = math.Float32frombits(bits)
	}
	return src
}
