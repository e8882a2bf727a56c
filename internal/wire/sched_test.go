package wire

import (
	"errors"
	"testing"

	"cswap/internal/compress"
)

func TestSchedExtensionRoundTrip(t *testing.T) {
	frames := []*Frame{
		{Type: TypeSwapIn, Name: "fc7/act", HasSched: true, Lane: 0, DeadlineMicros: 2500},
		{Type: TypeSwapOut, Name: "t", Compress: true, Alg: compress.Auto, HasSched: true, Lane: 1},
		{Type: TypePrefetch, Name: "p", HasSched: true, Lane: 2, DeadlineMicros: 0},
		{Type: TypeBatchSwapIn, Name: "kv", BlockIDs: []int{0, 5, 6}, HasSched: true, Lane: 0, DeadlineMicros: 1 << 33},
		{Type: TypeBatchSwapOut, Name: "kv", Compress: true, Alg: compress.Auto,
			BlockIDs: []int{1, 2}, HasSched: true, Lane: 1, DeadlineMicros: 7},
		{Type: TypeBatchPrefetch, Name: "kv", BlockIDs: []int{3}, HasSched: true, Lane: 2, DeadlineMicros: 12},
	}
	for _, f := range frames {
		b, err := Encode(f)
		if err != nil {
			t.Fatalf("%s: encode: %v", f.Type, err)
		}
		got, err := decodeAllWays(t, b, 0)
		if err != nil {
			t.Fatalf("%s: decode: %v", f.Type, err)
		}
		if !Equal(f, got) {
			t.Fatalf("%s: round trip drift: %+v -> %+v", f.Type, f, got)
		}
		// The name stays first: routing must not care about the flag.
		typ, name, err := PeekName(b, 0)
		if err != nil || typ != f.Type || name != f.Name {
			t.Fatalf("%s: PeekName on sched frame: %v %s %v", f.Type, typ, name, err)
		}
	}
}

func TestSchedExtensionDistinguishesFrames(t *testing.T) {
	plain := &Frame{Type: TypeSwapIn, Name: "n"}
	hinted := &Frame{Type: TypeSwapIn, Name: "n", HasSched: true, Lane: 0}
	if Equal(plain, hinted) {
		t.Fatal("Equal ignores the sched extension")
	}
	b, err := Encode(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeAllWays(t, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.HasSched {
		t.Fatal("plain frame decoded with a sched extension")
	}
}

func TestSchedExtensionValidation(t *testing.T) {
	// Encode refusals: a non-schedulable type and an out-of-range lane.
	if _, err := Encode(&Frame{Type: TypeAck, Name: "a", HasSched: true}); err == nil {
		t.Fatal("ack frame encoded a sched extension")
	}
	if _, err := Encode(&Frame{Type: TypeFree, Name: "f", HasSched: true}); err == nil {
		t.Fatal("free frame encoded a sched extension")
	}
	if _, err := Encode(&Frame{Type: TypeSwapIn, Name: "n", HasSched: true, Lane: 3}); err == nil {
		t.Fatal("lane 3 encoded")
	}

	// Decode refusals, each built by mutating a valid frame + CRC restamp.
	valid, err := Encode(&Frame{Type: TypeSwapIn, Name: "n", HasSched: true, Lane: 1, DeadlineMicros: 9})
	if err != nil {
		t.Fatal(err)
	}
	laneOff := HeaderLen + 2 + 1 // header, u16 name len, 1-byte name
	badLane := append([]byte(nil), valid...)
	badLane[laneOff] = 3
	restampCRC(badLane)
	if _, err := decodeAllWays(t, badLane, 0); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("lane 3 decode: %v, want ErrCorrupt", err)
	}

	// FlagSched on a type that must refuse it.
	ack, err := Encode(&Frame{Type: TypeAck, Name: "ok"})
	if err != nil {
		t.Fatal(err)
	}
	ack[7] |= byte(FlagSched)
	restampCRC(ack)
	if _, err := decodeAllWays(t, ack, 0); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("sched flag on ack: %v, want ErrCorrupt", err)
	}

	// Reserved flag bits stay refused.
	reserved, err := Encode(&Frame{Type: TypeSwapIn, Name: "n"})
	if err != nil {
		t.Fatal(err)
	}
	reserved[6] = 0x80
	restampCRC(reserved)
	if _, err := decodeAllWays(t, reserved, 0); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("reserved flag: %v, want ErrCorrupt", err)
	}

	// The flag without its bytes: truncate the body right after the name.
	short := append([]byte(nil), valid[:laneOff]...)
	// Fix up the declared payload length and CRC for the shorter body.
	short[11] = byte(laneOff - HeaderLen)
	restampCRC(short)
	if _, err := decodeAllWays(t, short, 0); err == nil || !compress.Recoverable(err) {
		t.Fatalf("sched flag without bytes: %v, want recoverable refusal", err)
	}
}
