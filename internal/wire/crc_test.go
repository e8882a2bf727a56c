package wire

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"cswap/internal/compress"
)

// checkCombine holds crcCombine to the CRC of data in one piece, split at k.
func checkCombine(t testing.TB, data []byte, k int) {
	t.Helper()
	a, b := data[:k], data[k:]
	got := crcCombine(crc32.ChecksumIEEE(a), crc32.ChecksumIEEE(b), int64(len(b)))
	if want := crc32.ChecksumIEEE(data); got != want {
		t.Fatalf("combine of %d+%d bytes = %#x, CRC of the whole = %#x", len(a), len(b), got, want)
	}
}

// TestCRCCombineMatchesConcatenation: the combined CRC of two pieces is the
// CRC of their concatenation, at random splits of lengths up to 70 KiB, at
// the empty pieces, and at the sizes a benchmark tensor's float field has.
func TestCRCCombineMatchesConcatenation(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	buf := make([]byte, 8<<20+20)
	rng.Read(buf)
	for i := 0; i < 300; i++ {
		n := rng.Intn(70<<10 + 1)
		if i < 8 {
			n = i
		}
		data := buf[rng.Intn(len(buf)-n+1):][:n]
		checkCombine(t, data, 0)
		checkCombine(t, data, n)
		checkCombine(t, data, rng.Intn(n+1))
	}
	for _, n := range []int{8 << 20, 8<<20 + 20} {
		for _, k := range []int{0, 1, 37, 4096, n / 2, n - 1, n} {
			checkCombine(t, buf[:n], k)
		}
	}
}

// TestX2nCycle: squaring x^(2^31) gives x again, so x2n[k&31] is x^(2^k) for
// every k — the lengths past 2^28 bytes, whose top bits index past the table.
func TestX2nCycle(t *testing.T) {
	for k := 1; k < 32; k++ {
		if got := multModP(x2n[k-1], x2n[k-1]); got != x2n[k] {
			t.Fatalf("x2n[%d] = %#x, square of x2n[%d] = %#x", k, x2n[k], k-1, got)
		}
	}
	if got := multModP(x2n[31], x2n[31]); got != x2n[0] {
		t.Fatalf("x^(2^32) = %#x, want x = %#x", got, x2n[0])
	}
}

// FuzzCRCCombine: any split of any input combines to the CRC of the whole,
// and combining is associative at lengths up to 8 GiB — which holds only if
// xPow8n(n1+n2) is xPow8n(n1)·xPow8n(n2), the table cycle included.
func FuzzCRCCombine(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(0), uint32(0), uint32(1), uint32(2), uint32(3))
	f.Add([]byte("CSWP frame payload"), uint32(5), uint32(1<<28), uint32(1<<28), uint32(7), uint32(11), uint32(13))
	f.Add(make([]byte, 1000), uint32(999), uint32(1<<31), uint32(1<<31-1), ^uint32(0), uint32(0), ^uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, split, n1, n2, x, y, z uint32) {
		checkCombine(t, data, int(split%uint32(len(data)+1)))
		left := crcCombine(crcCombine(x, y, int64(n1)), z, int64(n2))
		right := crcCombine(x, crcCombine(y, z, int64(n2)), int64(n1)+int64(n2))
		if left != right {
			t.Fatalf("combine not associative at %d+%d bytes: %#x vs %#x", n1, n2, left, right)
		}
	})
}

// TestGoldenFramesReprepared: every golden frame, decoded and prepared again
// from its recorded float-field CRC, gives back the golden bytes — natively
// and through the portable pair.
func TestGoldenFramesReprepared(t *testing.T) {
	for _, native := range []bool{nativeLE, false} {
		withNative(native, func() {
			for _, g := range golden {
				want, _ := hex.DecodeString(g.hex)
				f, err := Decode(want, 0)
				if err != nil {
					t.Fatalf("%s: %v", g.f.Type, err)
				}
				if f.HasDataCRC != f.Type.hasFloats() {
					t.Fatalf("%s: HasDataCRC = %v after a decode", f.Type, f.HasDataCRC)
				}
				got, err := Encode(f)
				if err != nil {
					t.Fatal(err)
				}
				if hex.EncodeToString(got) != g.hex {
					t.Errorf("%s (native=%v): re-prepared\n  %x\nwant\n  %s", f.Type, native, got, g.hex)
				}
			}
		})
	}
}

// crcFrames are frames with a float field, the values a conversion could
// bend among them.
func crcFrames() []*Frame {
	long := make([]float32, floatChunk/2+3)
	for i := range long {
		long[i] = math.Float32frombits(uint32(i) * 2654435761)
	}
	return []*Frame{
		{Type: TypeRegister, Name: "r", Data: []float32{1.5, float32(math.Copysign(0, -1)), float32(math.NaN()), math.Float32frombits(0x7fa00001)}},
		{Type: TypeTensorData, Name: "long", Data: long},
		{Type: TypeBatchData, Name: "kv", BlockElems: 2,
			Runs: []BlockRun{{Start: 0, Count: 1}, {Start: 3, Count: 2}}, Data: []float32{1, 2, 3, 4, 5, 6}},
	}
}

// TestStaleDataCRCRefused: a frame whose float field changed after it was
// read, prepared again from the CRC it was read with, is refused by the
// reader as corrupt — the recorded CRC can make a reader refuse good bytes,
// never accept bad ones. Without the recorded CRC the same frame encodes
// and decodes whole.
func TestStaleDataCRCRefused(t *testing.T) {
	for _, native := range []bool{nativeLE, false} {
		withNative(native, func() {
			for _, want := range crcFrames() {
				f, err := Decode(mustEncode(t, want), 0)
				if err != nil {
					t.Fatal(err)
				}
				f.Data[len(f.Data)-1] = math.Float32frombits(math.Float32bits(f.Data[len(f.Data)-1]) ^ 1)
				if _, err := Decode(mustEncode(t, f), 0); !errors.Is(err, compress.ErrCorrupt) {
					t.Errorf("%s (native=%v): stale CRC decoded with %v, want ErrCorrupt", f.Type, native, err)
				}
				f.HasDataCRC = false
				if back, err := Decode(mustEncode(t, f), 0); err != nil || !Equal(back, f) {
					t.Errorf("%s (native=%v): fresh CRC: %v", f.Type, native, err)
				}
			}
		})
	}
}

// TestPrepareTakesRecordedCRC: Prepare with a recorded CRC does not read the
// float field. Given bits other than the ones the CRC was taken over — in
// f.Data or in the segments standing in for it — it still emits the CRC of
// the frame the recorded value came from.
func TestPrepareTakesRecordedCRC(t *testing.T) {
	for _, want := range crcFrames() {
		enc := mustEncode(t, want)
		f, err := Decode(enc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.DataCRC != crc32.ChecksumIEEE(refEncodeFloats(want.Data)) {
			t.Fatalf("%s: DataCRC %#x is not the CRC of the float field", f.Type, f.DataCRC)
		}
		other := make([]float32, len(f.Data))
		for i := range other {
			other[i] = float32(math.NaN())
		}
		f.Data = other
		wantSum := binary.BigEndian.Uint32(enc[12:16])
		if got := binary.BigEndian.Uint32(mustEncode(t, f)[12:16]); got != wantSum {
			t.Errorf("%s: header CRC %#x from other bits, want the recorded frame's %#x", f.Type, got, wantSum)
		}
		half := len(other) / 2
		e, err := Prepare(nil, f, other[:half], other[half:])
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint32(e.head[12:16]); got != wantSum {
			t.Errorf("%s: header CRC %#x from other segments, want %#x", f.Type, got, wantSum)
		}
	}
}
