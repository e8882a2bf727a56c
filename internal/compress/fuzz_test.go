package compress

import (
	"bytes"
	"encoding/binary"
	"math"
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
		if pc, err := parseParallelContainer(blob); err == nil {
			f.Add(huf, uint8(4), uint16(7), uint32(pc.offsets[1]+headerSize+256+1000), uint8(2))
		}
	}

	f.Fuzz(func(t *testing.T, raw []byte, algSel uint8, gridSel uint16, pos uint32, op uint8) {
		algs := ExtendedAlgorithms()
		alg := algs[int(algSel)%len(algs)]
		launch := Launch{Grid: 1 + int(gridSel)%4096, Block: 64}
		if op&0x80 != 0 {
			launch.Block = 128
		}
		n := len(raw) / 4
		if n > 1<<14 {
			n = 1 << 14
		}
		src := make([]float32, n)
		for i := 0; i < n; i++ {
			bits := binary.LittleEndian.Uint32(raw[i*4:])
			if bits%3 == 0 {
				bits = 0
			}
			src[i] = math.Float32frombits(bits)
		}
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

	f.Fuzz(func(t *testing.T, blob []byte) {
		// Cap the claimed element count so a hostile header cannot force
		// a giant allocation in the fuzz harness.
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
