package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"cswap/internal/compress"
)

// restampCRC rewrites a hand-mutated frame's payload CRC so the mutation
// reaches the structural validators instead of tripping the checksum.
func restampCRC(b []byte) {
	binary.BigEndian.PutUint32(b[12:16], crc32.ChecksumIEEE(b[HeaderLen:]))
}

// FuzzFrameRoundTrip is the wire-protocol counterpart of the codec
// container's FuzzParallelRoundTrip: arbitrary bytes fed to the frame
// decoder must either decode into a frame that re-encodes and re-decodes
// to an equal frame, or fail inside the declared error taxonomy —
// compress.ErrTruncated / compress.ErrCorrupt (recoverable: retransmit)
// or ErrTooLarge (policy refusal). Panics and silent misdecodes are the
// bugs this hunts: hostile length prefixes, truncation at every boundary,
// and bit flips all arrive here as plain byte mutations of the corpus.
func FuzzFrameRoundTrip(f *testing.F) {
	for _, fr := range []*Frame{
		{Type: TypeRegister, Name: "conv1/act", Data: []float32{0, 1.5, -2.25, 0, 7}},
		{Type: TypeSwapOut, Name: "t", Compress: true, Alg: compress.LZ4},
		{Type: TypeSwapOut, Name: "t", Compress: false, Alg: 0},
		{Type: TypeSwapIn, Name: "fc7/act"},
		{Type: TypePrefetch, Name: "p"},
		{Type: TypeFree, Name: "f"},
		{Type: TypeTensorData, Name: "resp", Data: []float32{3}},
		{Type: TypeAck, Name: "ok"},
	} {
		b, err := Encode(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		// Seed the obvious hostile shapes too: truncations at the header
		// and name boundaries, and a flipped length byte.
		f.Add(b[:HeaderLen/2])
		f.Add(b[:HeaderLen])
		if len(b) > HeaderLen+1 {
			f.Add(b[:HeaderLen+1])
		}
		flipped := append([]byte(nil), b...)
		flipped[9] ^= 0x80
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add([]byte("CSWP"))

	// Sched-extension seeds: the optional lane byte + uvarint deadline
	// after the name (FlagSched), plus the hostile shapes it adds — the
	// flag without its bytes, an out-of-range lane, and the flag on a
	// frame type that must refuse it.
	for _, fr := range []*Frame{
		{Type: TypeSwapIn, Name: "kv", HasSched: true, Lane: 0, DeadlineMicros: 1500},
		{Type: TypePrefetch, Name: "kv", HasSched: true, Lane: 2},
		{Type: TypeBatchSwapIn, Name: "kv", BlockIDs: []int{1, 2}, HasSched: true, Lane: 0, DeadlineMicros: 1 << 40},
		{Type: TypeBatchPrefetch, Name: "kv", BlockIDs: []int{9}, HasSched: true, Lane: 2, DeadlineMicros: 300},
	} {
		b, err := Encode(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		for cut := HeaderLen + 2 + len(fr.Name); cut < len(b); cut++ {
			f.Add(b[:cut])
		}
		badLane := append([]byte(nil), b...)
		badLane[HeaderLen+2+len(fr.Name)] = 3 // past maxLaneByte
		restampCRC(badLane)
		f.Add(badLane)
	}
	flagOnAck, err := Encode(&Frame{Type: TypeAck, Name: "ok"})
	if err != nil {
		f.Fatal(err)
	}
	flagOnAck[7] |= byte(FlagSched)
	restampCRC(flagOnAck)
	f.Add(flagOnAck)

	// Batch-frame seeds. The hostile shapes the block-pool surface adds:
	// truncation at every block-ID boundary, duplicate and out-of-range
	// IDs, zero-length lists, and a run table that disagrees with the
	// payload it ships.
	batch := []*Frame{
		{Type: TypeRegisterPool, Name: "kv", BlockElems: 16, NumBlocks: 64},
		{Type: TypeBatchSwapOut, Name: "kv", Compress: true, Alg: compress.Auto,
			BlockIDs: []int{3, 4, 5, 9, 300}},
		{Type: TypeBatchSwapOut, Name: "kv", Compress: false,
			BlockIDs: []int{7, 7, 7, 2}}, // duplicates are legal on the wire
		{Type: TypeBatchSwapIn, Name: "kv", BlockIDs: []int{0, 1, 2, 1 << 20}},
		{Type: TypeBatchSwapIn, Name: "kv", BlockIDs: []int{}}, // zero-length list
		{Type: TypeBatchPrefetch, Name: "kv", BlockIDs: []int{12, 10, 11}},
		{Type: TypeBatchData, Name: "kv", BlockElems: 2,
			Runs: []BlockRun{{Start: 3, Count: 2}, {Start: 8, Count: 1}},
			Data: []float32{1, 0, 2, 0, 3, 0}},
	}
	for _, fr := range batch {
		b, err := Encode(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		// Truncate at every byte past the name — this walks every block-ID
		// (and run-table) boundary, since varints make each ID 1+ bytes.
		for cut := HeaderLen + 2 + len(fr.Name); cut < len(b); cut++ {
			f.Add(b[:cut])
		}
	}
	// An out-of-range block ID cannot be produced by Encode, so patch one
	// into a valid frame and re-stamp the CRC: the last seeded batch-swap-in
	// ID below encodes MaxBlockID (rejected on decode as out of range).
	hostile, err := Encode(&Frame{Type: TypeBatchSwapIn, Name: "kv", BlockIDs: []int{MaxBlockID - 1}})
	if err != nil {
		f.Fatal(err)
	}
	// MaxBlockID-1 = 0xFFFFFF is uvarint ff ff ff 07; bump the top group to
	// make the decoded value MaxBlockID.
	hostile[len(hostile)-1] = 0x08
	restampCRC(hostile)
	f.Add(hostile)
	// A run table that lies about the payload: claim 3 blocks, ship 2.
	liar, err := Encode(&Frame{Type: TypeBatchData, Name: "kv", BlockElems: 1,
		Runs: []BlockRun{{Start: 0, Count: 2}}, Data: []float32{1, 2}})
	if err != nil {
		f.Fatal(err)
	}
	// The count byte of the single run [0,+2) is the last byte before the
	// 8 payload bytes; rewrite it to 3 and re-stamp.
	liar[len(liar)-9] = 3
	restampCRC(liar)
	f.Add(liar)

	// Frames whose fields before the float field outgrow ReadInto's first
	// read, so the fuzzer starts from the buffer's growth path: a name
	// ending just past it and a table of 40 runs, whole and cut around the
	// first read's end.
	for _, fr := range []*Frame{nameFrame(firstRead + 1), runsFrame(40, 1)} {
		b, err := Encode(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		for cut := HeaderLen + firstRead - 2; cut <= HeaderLen+firstRead+2; cut++ {
			f.Add(b[:cut])
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeAllWays(t, data, 1<<20)
		if err != nil {
			if !compress.Recoverable(err) && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("decode error outside the taxonomy: %v", err)
			}
			return
		}
		// Anything that decodes must re-encode canonically and round-trip.
		// The re-encoding takes the float field's CRC as recorded by the
		// decode, and must be the very bytes a full CRC pass gives.
		out, err := Encode(fr)
		if err != nil {
			t.Fatalf("decoded frame %+v refuses to re-encode: %v", fr, err)
		}
		if fr.HasDataCRC != fr.Type.hasFloats() {
			t.Fatalf("%s frame decoded with HasDataCRC = %v", fr.Type, fr.HasDataCRC)
		}
		passed := *fr
		passed.HasDataCRC = false
		if full := mustEncode(t, &passed); !bytes.Equal(out, full) {
			t.Fatalf("re-encoding from the recorded CRC\n  %x\ndiffers from a full pass\n  %x", out, full)
		}
		back, err := decodeAllWays(t, out, 1<<20)
		if err != nil {
			t.Fatalf("re-encoded frame fails to decode: %v", err)
		}
		if !Equal(fr, back) {
			t.Fatalf("round trip drift: %+v -> %+v", fr, back)
		}
	})
}
