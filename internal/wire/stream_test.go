package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
	"testing/iotest"

	"cswap/internal/compress"
)

// withNative runs fn with the float field moved natively (where this host
// can) or through the portable pair, as a big-endian host would. Wire tests
// never run in parallel.
func withNative(native bool, fn func()) {
	defer func(was bool) { nativeLE = was }(nativeLE)
	nativeLE = native
	fn()
}

// errClass names the taxonomy class a decode error falls in.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, compress.ErrTruncated):
		return "truncated"
	case errors.Is(err, compress.ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrTooLarge):
		return "too-large"
	}
	return "other: " + err.Error()
}

// awkward are the readers every decode table and the fuzzer are driven
// through: one byte per Read, half of each request, and data delivered
// together with the final error.
var awkward = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"OneByteReader", iotest.OneByteReader},
	{"HalfReader", iotest.HalfReader},
	{"DataErrReader", iotest.DataErrReader},
}

// decodeAllWays is Decode, held against the streaming reader behind each
// awkward reader, natively and portably: all must land in the same class
// and, on success, on the same frame with the same recorded float-field
// CRC. It returns Decode's own result.
func decodeAllWays(t testing.TB, b []byte, maxPayload uint32) (*Frame, error) {
	t.Helper()
	want, werr := Decode(b, maxPayload)
	for _, native := range []bool{nativeLE, false} {
		for _, a := range awkward {
			withNative(native, func() {
				r := a.wrap(bytes.NewReader(b))
				got, err := Read(r, maxPayload)
				if err == nil {
					// Decode refuses trailing bytes; a stream just leaves them.
					if n, _ := r.Read(make([]byte, 1)); n != 0 {
						err = corruptErr("trailing bytes after payload")
					}
				}
				if errClass(err) != errClass(werr) {
					t.Fatalf("%s (native=%v): %v, but Decode: %v", a.name, native, err, werr)
				}
				if err == nil && (!Equal(got, want) || got.HasDataCRC != want.HasDataCRC || got.DataCRC != want.DataCRC) {
					t.Fatalf("%s (native=%v): decoded %+v, Decode %+v", a.name, native, got, want)
				}
			})
		}
	}
	return want, werr
}

// TestGoldenFramesPortable runs the recorded frames, unedited, through the
// portable writer and reader.
func TestGoldenFramesPortable(t *testing.T) {
	withNative(false, func() { TestGoldenFrames(t) })
}

// refEncodeFloats and refDecodeFloats are the float field written out
// longhand, independent of both implementations under test.
func refEncodeFloats(data []float32) []byte {
	b := make([]byte, 0, 4*len(data))
	for _, v := range data {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

func refDecodeFloats(b []byte) []float32 {
	data := make([]float32, len(b)/4)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return data
}

// TestNativePortableAgree: the native and the portable float-field writer
// and reader agree bit for bit with each other and with the longhand
// reference, on every frame type and on the values a conversion could bend.
func TestNativePortableAgree(t *testing.T) {
	special := []float32{
		0, float32(math.Copysign(0, -1)), float32(math.NaN()), math.Float32frombits(0x7fa00001), // a signalling NaN
		float32(math.Inf(1)), float32(math.Inf(-1)), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.MaxFloat32, 1.5, -2.25,
	}
	long := make([]float32, floatChunk/2+3) // spans chunk boundaries, ends off one
	for i := range long {
		long[i] = math.Float32frombits(uint32(i) * 2654435761)
	}
	frames := append(sampleFrames(),
		&Frame{Type: TypeRegister, Name: "special", Data: special},
		&Frame{Type: TypeTensorData, Name: "one", Data: []float32{float32(math.Copysign(0, -1))}},
		&Frame{Type: TypeTensorData, Name: "none", Data: []float32{}},
		&Frame{Type: TypeTensorData, Name: "long", Data: long},
		&Frame{Type: TypeRegisterPool, Name: "kv", BlockElems: 4, NumBlocks: 8},
		&Frame{Type: TypeBatchSwapOut, Name: "kv", Compress: true, BlockIDs: []int{3, 1, 1}},
		&Frame{Type: TypeBatchSwapIn, Name: "kv", BlockIDs: []int{0, 7}, HasSched: true, Lane: 0, DeadlineMicros: 9},
		&Frame{Type: TypeBatchPrefetch, Name: "kv", BlockIDs: []int{}},
		&Frame{Type: TypeBatchData, Name: "kv", BlockElems: 3,
			Runs: []BlockRun{{Start: 0, Count: 1}, {Start: 2, Count: 2}, {Start: 9, Count: 1}}, Data: special},
	)
	for _, f := range frames {
		native, err := Encode(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Type, err)
		}
		if f.Type.hasFloats() {
			tail := native[len(native)-4*len(f.Data):]
			if !bytes.Equal(tail, refEncodeFloats(f.Data)) {
				t.Errorf("%s %q: native float field differs from the reference", f.Type, f.Name)
			}
			if got := refDecodeFloats(tail); !Equal(&Frame{Data: got}, &Frame{Data: f.Data}) {
				t.Errorf("%s %q: reference decode of the native bytes drifts", f.Type, f.Name)
			}
		}
		back, err := decodeAllWays(t, native, 0)
		if err != nil || !Equal(back, f) {
			t.Errorf("%s %q: round trip: %+v, %v", f.Type, f.Name, back, err)
		}
		withNative(false, func() {
			port, err := Encode(f)
			if err != nil || !bytes.Equal(port, native) {
				t.Errorf("%s %q: portable encoding differs from native (%v)", f.Type, f.Name, err)
			}
		})
	}
}

// TestSegmentsEncodeAsOne: a float field handed to Prepare in pieces — a
// pool's runs, each in place — encodes to the bytes of the same field in
// one slice, through WriteTo and through Reader, natively and portably.
func TestSegmentsEncodeAsOne(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	f := &Frame{Type: TypeBatchData, Name: "kv", BlockElems: 2,
		Runs: []BlockRun{{Start: 0, Count: 1}, {Start: 4, Count: 2}, {Start: 9, Count: 1}}}
	whole := *f
	whole.Data = data
	want, err := Encode(&whole)
	if err != nil {
		t.Fatal(err)
	}
	for _, native := range []bool{nativeLE, false} {
		withNative(native, func() {
			enc, err := Prepare(nil, f, data[:2], data[2:6], data[6:])
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if n, err := enc.WriteTo(&buf); err != nil || n != enc.Len() || !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("native=%v: WriteTo wrote %d bytes (%v), want the %d of the one-slice encoding", native, n, err, len(want))
			}
			for _, a := range awkward {
				if got, err := io.ReadAll(a.wrap(enc.Reader())); err != nil || !bytes.Equal(got, want) {
					t.Errorf("native=%v: Reader behind %s drifts (%v)", native, a.name, err)
				}
			}
		})
	}
	if _, err := Prepare(nil, f, data[:3]); !errors.Is(err, compress.ErrCorrupt) {
		t.Errorf("segments shorter than the run table: %v, want ErrCorrupt", err)
	}
}

// TestReadIntoDestination: the float field lands in dst when it fits and in
// a fresh slice when it does not; a long run table grows the peek instead of
// failing; and nothing past the frame is consumed from the stream.
func TestReadIntoDestination(t *testing.T) {
	data := make([]float32, 3000)
	for i := range data {
		data[i] = float32(i)
	}
	b, err := Encode(&Frame{Type: TypeTensorData, Name: "t", Data: data})
	if err != nil {
		t.Fatal(err)
	}
	stream := bytes.NewReader(append(append([]byte(nil), b...), "next"...))
	dst := make([]float32, len(data)+5)
	f, err := ReadInto(stream, 0, dst)
	if err != nil || len(f.Data) != len(data) || &f.Data[0] != &dst[0] {
		t.Fatalf("ReadInto a long-enough dst: %v, data aliases dst: %v", err, err == nil && &f.Data[0] == &dst[0])
	}
	if rest, _ := io.ReadAll(stream); string(rest) != "next" {
		t.Errorf("ReadInto consumed past its frame: %q left", rest)
	}
	short := make([]float32, 10)
	if f, err = ReadInto(bytes.NewReader(b), 0, short); err != nil || len(f.Data) != len(data) || &f.Data[0] == &short[0] {
		t.Errorf("ReadInto a short dst: %v, want a fresh slice", err)
	}
	b[len(b)-1] ^= 1
	if _, err := ReadInto(bytes.NewReader(b), 0, dst); !errors.Is(err, compress.ErrCorrupt) {
		t.Errorf("damaged last byte: %v, want the CRC verdict after the last byte", err)
	}

	// 3000 two-byte-start runs: a table of ~9 KiB, past the first peek.
	table := &Frame{Type: TypeBatchData, Name: "kv", BlockElems: 1}
	for i := 0; i < 3000; i++ {
		table.Runs = append(table.Runs, BlockRun{Start: 200 + 2*i, Count: 1})
	}
	table.Data = data
	if back, err := decodeAllWays(t, mustEncode(t, table), 0); err != nil || !Equal(back, table) {
		t.Errorf("long run table: %v", err)
	}
}

func mustEncode(t testing.TB, f *Frame) []byte {
	t.Helper()
	b, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPeekNamePrefix: the router hands PeekName only a frame's first
// PeekLen bytes; the name, and every refusal, come out as from the whole.
func TestPeekNamePrefix(t *testing.T) {
	b := mustEncode(t, &Frame{Type: TypeRegister, Name: "t/big", Data: make([]float32, 1<<16)})
	typ, name, err := PeekName(b[:PeekLen], 0)
	if err != nil || typ != TypeRegister || name != "t/big" {
		t.Fatalf("PeekName(first %d bytes) = %s, %q, %v", PeekLen, typ, name, err)
	}
	if _, _, err := PeekName(b[:HeaderLen+4], 0); !errors.Is(err, compress.ErrTruncated) {
		t.Errorf("prefix ending inside the name: %v, want ErrTruncated", err)
	}
	if _, _, err := PeekName(b[:PeekLen], 1<<10); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize frame: %v, want ErrTooLarge from the header alone", err)
	}
}
