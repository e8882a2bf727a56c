package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"testing"

	"cswap/internal/compress"
)

// sampleFrames covers every frame type, including a NaN-bearing tensor
// payload (tensors are opaque bits on the swap path).
func sampleFrames() []*Frame {
	return []*Frame{
		{Type: TypeRegister, Name: "conv1/act", Data: []float32{0, 1.5, -2.25, float32(math.NaN()), 0}},
		{Type: TypeSwapOut, Name: "conv1/act", Compress: true, Alg: compress.ZVC},
		{Type: TypeSwapOut, Name: "conv1/act", Compress: false},
		{Type: TypeSwapIn, Name: "conv1/act"},
		{Type: TypePrefetch, Name: "fc7/act"},
		{Type: TypeFree, Name: "fc7/act"},
		{Type: TypeTensorData, Name: "t", Data: []float32{3.25}},
		{Type: TypeAck, Name: "t"},
		{Type: TypeRegister, Name: "empty", Data: nil},
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, f := range sampleFrames() {
		b, err := Encode(f)
		if err != nil {
			t.Fatalf("Encode(%v): %v", f.Type, err)
		}
		got, err := decodeAllWays(t, b, 0)
		if err != nil {
			t.Fatalf("decodeAllWays(t, %v): %v", f.Type, err)
		}
		if !Equal(f, got) {
			t.Errorf("%v: round trip mismatch: sent %+v, got %+v", f.Type, f, got)
		}
		// The streaming reader must agree with the in-memory decoder.
		rf, err := Read(bytes.NewReader(b), 0)
		if err != nil {
			t.Fatalf("Read(%v): %v", f.Type, err)
		}
		if !Equal(f, rf) {
			t.Errorf("%v: Read mismatch", f.Type)
		}
	}
}

// TestTruncationEveryBoundary chops a valid frame at every byte offset;
// each prefix must fail with the recoverable taxonomy, never decode.
func TestTruncationEveryBoundary(t *testing.T) {
	for _, f := range sampleFrames() {
		b, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := decodeAllWays(t, b[:cut], 0); err == nil {
				t.Fatalf("%v: prefix of %d/%d bytes decoded", f.Type, cut, len(b))
			} else if !compress.Recoverable(err) {
				t.Fatalf("%v: prefix of %d bytes: %v not in the recoverable taxonomy", f.Type, cut, err)
			}
			if _, err := Read(bytes.NewReader(b[:cut]), 0); err == nil {
				t.Fatalf("%v: Read of %d/%d-byte prefix succeeded", f.Type, cut, len(b))
			}
		}
	}
}

// TestHostileLengthPrefix plants the maximum length prefix in an otherwise
// valid header: both decoders must refuse before allocating the claimed
// payload.
func TestHostileLengthPrefix(t *testing.T) {
	b, err := Encode(&Frame{Type: TypeSwapIn, Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(b[8:12], math.MaxUint32)
	if _, err := decodeAllWays(t, b, 0); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Decode with 4 GiB length prefix: %v, want ErrTooLarge", err)
	}
	if _, err := Read(bytes.NewReader(b), 0); !errors.Is(err, ErrTooLarge) {
		t.Errorf("Read with 4 GiB length prefix: %v, want ErrTooLarge", err)
	}
	// A length under the cap but past the actual bytes is truncation.
	binary.BigEndian.PutUint32(b[8:12], 1<<20)
	if _, err := decodeAllWays(t, b, 0); !errors.Is(err, compress.ErrTruncated) {
		t.Errorf("Decode with overlong length: %v, want ErrTruncated", err)
	}
	// A caller-supplied cap tightens the policy refusal.
	big, err := Encode(&Frame{Type: TypeRegister, Name: "big", Data: make([]float32, 1024)})
	if err != nil {
		t.Fatal(err)
	}
	_, derr := decodeAllWays(t, big, 64)
	if !errors.Is(derr, ErrTooLarge) {
		t.Errorf("Decode past caller cap: %v, want ErrTooLarge", derr)
	}
	if compress.Recoverable(derr) {
		t.Error("ErrTooLarge must not be recoverable: retransmission cannot succeed")
	}
}

// rawFrame wraps a hand-built payload in a valid header (right length,
// right CRC), so only the payload's inner structure is on trial.
func rawFrame(typ Type, payload []byte) []byte {
	b := append([]byte{'C', 'S', 'W', 'P', Version, byte(typ), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, payload...)
	binary.BigEndian.PutUint32(b[8:12], uint32(len(payload)))
	reCRC(b)
	return b
}

// TestHostileRunCount: a batch-data frame that is a claimed run count and
// zeros must be refused by the block cap before the run table is allocated
// — a run entry in memory is eight times its smallest encoding, so the
// payload-length bound alone would let a frame allocate 8x its size.
func TestHostileRunCount(t *testing.T) {
	const runs = MaxBatchBlocks + MaxBatchBlocks/2 // past the cap, under payload/2
	payload := []byte{0, 1, 'p', 0, 0, 0, 1}       // name "p", 1 elem/block
	payload = binary.AppendUvarint(payload, runs)
	payload = append(payload, make([]byte, 2*runs)...)
	b := rawFrame(TypeBatchData, payload)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(b, 0)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("hostile run count: %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("refusing a %d-byte frame allocated %d bytes: run table sized before the cap check", len(b), got)
	}
}

// TestErrorClasses pins which side of the taxonomy each refusal lands on —
// the class is API: callers key retry policy on it. Inside a CRC-verified
// payload a missing fixed-width field is ErrCorrupt, save the two batch
// frames that report ErrTruncated; an encoder handed a bad envelope (type,
// name, sched extension) fails with a plain error — retransmitting cannot
// cure caller misuse — while a bad batch body is ErrCorrupt in both
// directions.
func TestErrorClasses(t *testing.T) {
	name := []byte{0, 1, 'p'}
	with := func(tail ...byte) []byte { return append(append([]byte(nil), name...), tail...) }
	decode := []struct {
		what string
		typ  Type
		p    []byte
		want error
	}{
		{"swap-out without options", TypeSwapOut, with(), compress.ErrCorrupt},
		{"swap-out with one option byte", TypeSwapOut, with(1), compress.ErrCorrupt},
		{"batch-swap-out with one option byte", TypeBatchSwapOut, with(1), compress.ErrTruncated},
		{"register without element count", TypeRegister, with(0, 0, 0), compress.ErrCorrupt},
		{"tensor-data without element count", TypeTensorData, with(), compress.ErrCorrupt},
		{"register-pool with short geometry", TypeRegisterPool, with(0, 0, 0, 4, 0, 0, 0), compress.ErrCorrupt},
		{"batch-data without block-elems", TypeBatchData, with(0, 0, 0), compress.ErrTruncated},
		{"batch-swap-in ending inside an ID", TypeBatchSwapIn, with(1, 0x80), compress.ErrTruncated},
		{"batch-swap-in with an empty payload tail", TypeBatchSwapIn, with(), compress.ErrTruncated},
	}
	for _, tc := range decode {
		if _, err := decodeAllWays(t, rawFrame(tc.typ, tc.p), 0); !errors.Is(err, tc.want) {
			t.Errorf("decode %s: %v, want %v", tc.what, err, tc.want)
		}
	}

	misuse := []*Frame{
		{Type: TypeAck, Name: ""},
		{Type: TypeAck, Name: strings.Repeat("n", MaxNameLen+1)},
		{Type: Type(99), Name: "x"},
		{Type: TypeFree, Name: "x", HasSched: true},
		{Type: TypeSwapIn, Name: "x", HasSched: true, Lane: 3},
	}
	for _, f := range misuse {
		if _, err := Encode(f); err == nil || compress.Recoverable(err) {
			t.Errorf("Encode(%s, %d-byte name, sched=%v): %v, want a plain non-recoverable error", f.Type, len(f.Name), f.HasSched, err)
		}
	}
	body := []*Frame{
		{Type: TypeBatchSwapIn, Name: "p", BlockIDs: []int{MaxBlockID}},
		{Type: TypeRegisterPool, Name: "p", BlockElems: 0, NumBlocks: 1},
		{Type: TypeBatchData, Name: "p", BlockElems: 1, Runs: []BlockRun{{Start: 1, Count: 0}}},
	}
	for _, f := range body {
		if _, err := Encode(f); !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("Encode(%s with a bad body): %v, want ErrCorrupt", f.Type, err)
		}
	}
}

func TestCRCDetectsPayloadDamage(t *testing.T) {
	f := &Frame{Type: TypeRegister, Name: "damaged", Data: []float32{1, 2, 3, 4}}
	b, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 8; bit++ {
		mutated := append([]byte(nil), b...)
		mutated[len(mutated)-1] ^= 1 << bit
		if _, err := decodeAllWays(t, mutated, 0); !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("bit %d flip: %v, want ErrCorrupt", bit, err)
		}
	}
}

func TestHeaderValidation(t *testing.T) {
	valid, err := Encode(&Frame{Type: TypeAck, Name: "v"})
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(fn func([]byte)) []byte {
		b := append([]byte(nil), valid...)
		fn(b)
		return b
	}
	cases := []struct {
		name string
		b    []byte
	}{
		{"bad magic", mutate(func(b []byte) { b[0] = 'X' })},
		{"bad version", mutate(func(b []byte) { b[4] = 99 })},
		{"unknown type", mutate(func(b []byte) { b[5] = 200 })},
		{"zero type", mutate(func(b []byte) { b[5] = 0 })},
		{"non-zero flags", mutate(func(b []byte) { b[6] = 1 })},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xAA)},
	}
	for _, tc := range cases {
		if _, err := decodeAllWays(t, tc.b, 0); !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", tc.name, err)
		}
	}
}

func TestInnerLengthCrossChecks(t *testing.T) {
	// A register frame whose element count disagrees with the bytes it
	// carries must refuse even though the CRC is recomputed to match.
	f := &Frame{Type: TypeRegister, Name: "n", Data: []float32{1, 2}}
	b, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	// Payload layout: u16 nameLen | name | u32 elems | data.
	elemsOff := HeaderLen + 2 + len(f.Name)
	binary.BigEndian.PutUint32(b[elemsOff:elemsOff+4], 3)
	reCRC(b)
	if _, err := decodeAllWays(t, b, 0); !errors.Is(err, compress.ErrCorrupt) {
		t.Errorf("element-count lie: %v, want ErrCorrupt", err)
	}

	// A name length pointing past the payload end.
	b2, err := Encode(&Frame{Type: TypeFree, Name: "ab"})
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint16(b2[HeaderLen:HeaderLen+2], 500)
	reCRC(b2)
	if _, err := decodeAllWays(t, b2, 0); !errors.Is(err, compress.ErrCorrupt) {
		t.Errorf("name overrun: %v, want ErrCorrupt", err)
	}
}

func TestEncodeRefusesInvalidFrames(t *testing.T) {
	bad := []*Frame{
		{Type: TypeAck, Name: ""},
		{Type: Type(99), Name: "x"},
		{Type: TypeAck, Name: strings.Repeat("n", MaxNameLen+1)},
	}
	for _, f := range bad {
		if _, err := Encode(f); err == nil {
			t.Errorf("Encode(%+v) succeeded, want error", f)
		}
	}
}

func TestSwapOutOptionValidation(t *testing.T) {
	b, err := Encode(&Frame{Type: TypeSwapOut, Name: "x", Compress: true, Alg: compress.RLE})
	if err != nil {
		t.Fatal(err)
	}
	flagOff := len(b) - 2
	b[flagOff] = 7 // compress flag must be 0 or 1
	reCRC(b)
	if _, err := decodeAllWays(t, b, 0); !errors.Is(err, compress.ErrCorrupt) {
		t.Errorf("bad compress flag: %v, want ErrCorrupt", err)
	}
	b[flagOff] = 1
	b[flagOff+1] = 250 // unknown algorithm byte
	reCRC(b)
	if _, err := decodeAllWays(t, b, 0); !errors.Is(err, compress.ErrCorrupt) {
		t.Errorf("bad algorithm byte: %v, want ErrCorrupt", err)
	}
}

// reCRC recomputes the header CRC after a test mutates payload bytes.
func reCRC(b []byte) {
	binary.BigEndian.PutUint32(b[12:16], crc32.ChecksumIEEE(b[HeaderLen:]))
}

// TestPeekName: the router's cheap peek agrees with the full decoder on
// every frame type, tolerates a stale CRC (peek routes, decode validates),
// and still refuses frames whose name bounds lie.
func TestPeekName(t *testing.T) {
	frames := []*Frame{
		{Type: TypeRegister, Name: "t/a", Data: []float32{1, 2, 3}},
		{Type: TypeSwapOut, Name: "t/b", Compress: true, Alg: compress.ZVC},
		{Type: TypeSwapIn, Name: "t/c"},
		{Type: TypePrefetch, Name: "t/d"},
		{Type: TypeFree, Name: "t/e"},
		{Type: TypeTensorData, Name: "t/f", Data: []float32{0}},
		{Type: TypeAck, Name: "t/g"},
	}
	for _, f := range frames {
		b, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		typ, name, err := PeekName(b, 0)
		if err != nil {
			t.Fatalf("PeekName(%s): %v", f.Type, err)
		}
		if typ != f.Type || name != f.Name {
			t.Errorf("PeekName(%s) = (%s, %q), want (%s, %q)", f.Type, typ, name, f.Type, f.Name)
		}
	}

	// A damaged payload CRC must not stop routing: the owning shard's full
	// decode is where corruption is rejected.
	b, _ := Encode(&Frame{Type: TypeSwapIn, Name: "t/crc"})
	b[12] ^= 0xff // header CRC field
	if _, name, err := PeekName(b, 0); err != nil || name != "t/crc" {
		t.Errorf("PeekName with damaged payload CRC = (%q, %v), want routing to succeed", name, err)
	}

	// Bounds still hold: truncated header, truncated payload, lying name
	// length, hostile payload cap.
	if _, _, err := PeekName(b[:HeaderLen-1], 0); !errors.Is(err, compress.ErrTruncated) {
		t.Errorf("truncated header: %v, want ErrTruncated", err)
	}
	if _, _, err := PeekName(b[:len(b)-2], 0); !errors.Is(err, compress.ErrTruncated) {
		t.Errorf("truncated payload: %v, want ErrTruncated", err)
	}
	lie, _ := Encode(&Frame{Type: TypeSwapIn, Name: "t/lie"})
	binary.BigEndian.PutUint16(lie[HeaderLen:HeaderLen+2], uint16(len("t/lie"))+200)
	if _, _, err := PeekName(lie, 0); !errors.Is(err, compress.ErrCorrupt) {
		t.Errorf("lying name length: %v, want ErrCorrupt", err)
	}
	big, _ := Encode(&Frame{Type: TypeRegister, Name: "t/big", Data: make([]float32, 64)})
	if _, _, err := PeekName(big, 16); !errors.Is(err, ErrTooLarge) {
		t.Errorf("payload past cap: %v, want ErrTooLarge", err)
	}
}
