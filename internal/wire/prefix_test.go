package wire

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// runsFrame is a batch-data frame of n one-block runs of blockElems
// elements, spaced one block apart.
func runsFrame(n, blockElems int) *Frame {
	f := &Frame{Type: TypeBatchData, Name: "kv", BlockElems: blockElems, Data: make([]float32, n*blockElems)}
	for i := range n {
		f.Runs = append(f.Runs, BlockRun{Start: 2 * i, Count: 1})
	}
	for i := range f.Data {
		f.Data[i] = float32(i%7) - 3
	}
	return f
}

// nameFrame is a tensor-data frame whose fields before the float field —
// the name and the element count — take prefix bytes.
func nameFrame(prefix int) *Frame {
	return &Frame{Type: TypeTensorData, Name: strings.Repeat("n", prefix-2-4), Data: []float32{1, -2, 3, 0, 5}}
}

// TestReadIntoPrefixGrowth: ReadInto buffers firstRead bytes of a frame with
// a float field and doubles the buffer while the fields before the float
// field run past it. Frames whose prefix ends just before, at and just after
// the first read, a name of MaxNameLen and run tables of 1, 100 and 10 000
// runs must each decode, from a plain reader and one byte per Read, into a
// caller's buffer and into a fresh one, exactly as Decode decodes them.
func TestReadIntoPrefixGrowth(t *testing.T) {
	cases := []struct {
		name string
		f    *Frame
	}{
		{"prefix under the first read", nameFrame(firstRead - 1)},
		{"prefix at the first read", nameFrame(firstRead)},
		{"prefix over the first read", nameFrame(firstRead + 1)},
		{"longest name", &Frame{Type: TypeRegister, Name: strings.Repeat("m", MaxNameLen), Data: []float32{7, 8}}},
		{"1 run", runsFrame(1, 16)},
		{"100 runs", runsFrame(100, 4)},
		{"10000 runs", runsFrame(10000, 1)},
	}
	for _, tc := range cases {
		b := mustEncode(t, tc.f)
		want, err := Decode(b, 0)
		if err != nil || !Equal(want, tc.f) {
			t.Fatalf("%s: Decode: %v", tc.name, err)
		}
		for _, r := range []struct {
			name string
			wrap func(io.Reader) io.Reader
		}{{"plain", func(r io.Reader) io.Reader { return r }}, {"OneByteReader", iotest.OneByteReader}} {
			for _, dst := range [][]float32{nil, make([]float32, len(tc.f.Data))} {
				got, err := ReadInto(r.wrap(bytes.NewReader(b)), 0, dst)
				where := fmt.Sprintf("%s, %s reader, dst of %d", tc.name, r.name, len(dst))
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				if !Equal(got, want) || got.HasDataCRC != want.HasDataCRC || got.DataCRC != want.DataCRC {
					t.Fatalf("%s: decoded %s %q with %d runs, Decode gives %q with %d runs",
						where, got.Type, got.Name, len(got.Runs), want.Name, len(want.Runs))
				}
				if dst != nil && &got.Data[0] != &dst[0] {
					t.Errorf("%s: the float field did not land in dst", where)
				}
			}
		}
	}
}

// TestReadIntoShortPrefixAllocs: reading a decode step's answer — a
// batch-data frame of 64 KiB with a short name and a few runs — into the
// caller's buffer allocates the frame, its name, its run table and the one
// small prefix buffer, and no reader to stitch the buffered bytes to the
// stream: readIntoAllocs in all, the header's array included.
func TestReadIntoShortPrefixAllocs(t *testing.T) {
	const readIntoAllocs = 5
	f := &Frame{Type: TypeBatchData, Name: "kv-0", BlockElems: 1024,
		Runs: []BlockRun{{Start: 3, Count: 4}, {Start: 9, Count: 2}, {Start: 20, Count: 10}},
		Data: make([]float32, 16*1024)}
	b := mustEncode(t, f)
	dst := make([]float32, len(f.Data))
	r := bytes.NewReader(b)
	got := testing.AllocsPerRun(100, func() {
		r.Reset(b)
		if _, err := ReadInto(r, 0, dst); err != nil {
			t.Fatal(err)
		}
	})
	if got > readIntoAllocs {
		t.Errorf("ReadInto of a short-prefix 64 KiB batch-data frame: %.0f allocs, budget %d", got, readIntoAllocs)
	}
}
