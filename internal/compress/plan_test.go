package compress

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"cswap/internal/tensor"
)

// planPayload is an n-element tensor of sparsity s carrying −0 and NaN
// payloads, so a planned encode that bent either would show.
func planPayload(n int, s float64) []float32 {
	data := tensor.NewGenerator(331).Uniform(n, s).Data
	if n >= 4 {
		data[1] = float32(math.Copysign(0, -1))
		data[2] = math.Float32frombits(0x7fc00001)
		data[3] = math.Float32frombits(0xffa12345)
	}
	return data
}

// encodeChunks is the container encode at numChunks chunks under plan,
// failing the test on an error.
func encodeChunks(t testing.TB, alg Algorithm, src []float32, numChunks int, plan *EncodePlan) []byte {
	t.Helper()
	blob, err := appendParallelChunks(nil, alg, src, numChunks, nil, plan)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// checkPlanned requires the encode of src under plan to equal its
// unplanned encode byte for byte, and leaves plan describing src.
func checkPlanned(t *testing.T, alg Algorithm, src []float32, numChunks int, plan *EncodePlan, what string) {
	t.Helper()
	want := encodeChunks(t, alg, src, numChunks, nil)
	if got := encodeChunks(t, alg, src, numChunks, plan); !bytes.Equal(got, want) {
		t.Fatalf("%s: planned encode (%d bytes) differs from the unplanned one (%d bytes)", what, len(got), len(want))
	}
	_, k := chunkShape(len(src), numChunks)
	tables := 0
	if alg == Huffman {
		tables = k
	}
	if plan.Tables() != tables {
		t.Fatalf("%s: plan holds %d tables after the encode, want %d", what, plan.Tables(), tables)
	}
}

// TestPlannedEncodeMatchesUnplanned is the plan's property: for every codec,
// at 128 chunks, 16 and one, at sparsities 0, 0.2, 0.5 and 1, an encode
// under a plan equals the unplanned encode byte for byte — the plan recorded
// from the same bytes, from another algorithm, element count or chunk count
// (each ignored), and from bytes altered since (re-encoded).
func TestPlannedEncodeMatchesUnplanned(t *testing.T) {
	const n = 127*320 + 37 // 128 chunks of 320 elements but the last, 16 of 2560, or one
	for _, alg := range ExtendedAlgorithms() {
		for _, k := range []int{128, 16, 1} {
			for _, s := range []float64{0, 0.2, 0.5, 1} {
				t.Run(fmt.Sprintf("%s/k%d/s%.1f", alg, k, s), func(t *testing.T) {
					src := planPayload(n, s)
					var plan EncodePlan
					checkPlanned(t, alg, src, k, &plan, "first encode")
					checkPlanned(t, alg, src, k, &plan, "same bytes")

					other := ZVC
					if alg == ZVC {
						other = Huffman
					}
					checkPlanned(t, other, src, k, &plan, "another algorithm")
					checkPlanned(t, alg, src, k, &plan, "back at the algorithm")
					checkPlanned(t, alg, src[:n-32], k, &plan, "another element count")
					checkPlanned(t, alg, src, k, &plan, "back at the element count")
					checkPlanned(t, alg, src, k%100+2, &plan, "another chunk count")
					checkPlanned(t, alg, src, k, &plan, "back at the chunk count")

					// Alter a few elements, in the first chunk, the last and
					// one between: a flipped bit, a new byte value, and a
					// zero turned dense. The plan is now stale for them.
					altered := append([]float32(nil), src...)
					for _, i := range []int{5, n / 2, n - 1} {
						altered[i] = math.Float32frombits(math.Float32bits(altered[i]) ^ 0x00810001)
					}
					checkPlanned(t, alg, altered, k, &plan, "altered bytes under a stale plan")
					checkPlanned(t, alg, altered, k, &plan, "altered bytes, re-recorded")
				})
			}
		}
	}
}

// TestPlannedEncodeAtLaunch runs the property through the exported encoder
// at the launches the service uses, at the size where (128,64) cuts 128
// chunks: an 8 MiB tensor, and a 1 MiB one that (16,64) cuts 16.
func TestPlannedEncodeAtLaunch(t *testing.T) {
	if testing.Short() {
		t.Skip("8 MiB encodes")
	}
	for _, tc := range []struct {
		n      int
		launch Launch
	}{{2 << 20, Launch{128, 64}}, {256 << 10, Launch{16, 64}}} {
		src := planPayload(tc.n, 0.2)
		for _, alg := range []Algorithm{Huffman, ZVC} {
			want, err := AppendParallelEncode(nil, alg, src, tc.launch)
			if err != nil {
				t.Fatal(err)
			}
			var plan EncodePlan
			for rep := 0; rep < 2; rep++ {
				got, err := AppendParallelEncodeWith(nil, alg, src, tc.launch, nil, &plan)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %d elements at %v, encode %d under the plan: blob differs", alg, tc.n, tc.launch, rep)
				}
			}
			if want := ChunkCount(tc.n, tc.launch.Grid); alg == Huffman && plan.Tables() != want {
				t.Fatalf("plan holds %d tables, want %d", plan.Tables(), want)
			}
		}
	}
}

// TestPlannedChunkReusesTable: a chunk's record reused on the same bytes
// packs the fresh encode's blob without a histogram; on bytes whose packed
// length under the recorded table still comes out at the recorded length —
// a symbol the table lacks, or a histogram whose own tree is another — it
// refuses, and the caller's fresh encode is the one that ships.
func TestPlannedChunkReusesTable(t *testing.T) {
	// 1024 elements = 4096 byte symbols. The recorded bytes are a, a, b, c
	// in every element: a 2048 times, b and c 1024 each, so a codes in one
	// bit, b and c in two, 6144 bits in all.
	element := func(b0, b1, b2, b3 byte) float32 {
		return math.Float32frombits(binary.LittleEndian.Uint32([]byte{b0, b1, b2, b3}))
	}
	const a, b, c, d = 'a', 'b', 'c', 'd'
	fill := func(e float32) []float32 {
		src := make([]float32, 1024)
		for i := range src {
			src[i] = e
		}
		return src
	}
	recorded := fill(element(a, a, b, c))
	var rec hufChunkPlan
	fresh := huffEncode(nil, recorded, &rec)
	if rec.stream != 6144/8 || rec.digest != segmentDigest(recorded) {
		t.Fatalf("record: stream %d bytes, digest %#x", rec.stream, rec.digest)
	}
	span := make([]byte, 0, huffmanCodec{}.MaxEncodedLen(len(recorded)))
	got, ok := huffEncodePlanned(span, recorded, &rec)
	if !ok || !bytes.Equal(got, fresh) {
		t.Fatalf("planned encode of the recorded bytes: ok=%v, equal=%v", ok, bytes.Equal(got, fresh))
	}

	for _, tc := range []struct {
		name string
		src  []float32
	}{
		// b 3072 times, d (absent from the table, so packed in no bits)
		// 1024: 3072·2 = 6144 bits, a stream that would lose every d.
		{"absent symbol", fill(element(b, b, b, d))},
		// a and b 2048 times each: 2048 + 2048·2 = 6144 bits, a valid
		// stream, but the bytes' own tree codes both in one bit.
		{"another tree", fill(element(a, a, b, b))},
	} {
		var codes huffCodeTable
		maxLen := codes.set(rec.lengths)
		if n := huffPack(make([]byte, rec.stream+huffSlack), tc.src, &codes, maxLen); n != rec.stream {
			t.Fatalf("%s: packs to %d bytes under the table, want the recorded %d — the case is not the one meant", tc.name, n, rec.stream)
		}
		if _, ok := huffEncodePlanned(span, tc.src, &rec); ok {
			t.Fatalf("%s: planned encode accepted bytes it was not recorded from", tc.name)
		}
		var plan EncodePlan
		encodeChunks(t, Huffman, recorded, 1, &plan)
		checkPlanned(t, Huffman, tc.src, 1, &plan, tc.name)
	}
}

// TestPlannedChunkBoundedByRecord: a record whose stream length is too
// short for the bytes, or whose table codes them in long codes, never
// writes past the recorded stream and its slack, and never panics.
func TestPlannedChunkBoundedByRecord(t *testing.T) {
	src := planPayload(4096, 0.2)
	var rec hufChunkPlan
	huffEncode(nil, src, &rec)
	for _, tc := range []struct {
		name   string
		mutate func(r *hufChunkPlan)
	}{
		{"short stream", func(r *hufChunkPlan) { r.stream /= 2 }},
		{"long stream", func(r *hufChunkPlan) { r.stream += 100 }},
		// Every symbol at 40 bits: a valid, badly over-long code whose
		// packing takes the checked general loop.
		{"long codes", func(r *hufChunkPlan) {
			for s := range r.lengths {
				r.lengths[s] = 40
			}
			r.lengths[0], r.lengths[1] = 8, 8
		}},
	} {
		r := rec
		tc.mutate(&r)
		end := headerSize + 256 + r.stream + huffSlack
		buf := make([]byte, end+64)
		for i := range buf {
			buf[i] = 0xEE
		}
		if _, ok := huffEncodePlanned(buf[:0:end], src, &r); ok {
			t.Fatalf("%s: accepted", tc.name)
		}
		for i, v := range buf[end:] {
			if v != 0xEE {
				t.Fatalf("%s: wrote byte %d past the record's stream and slack", tc.name, i)
			}
		}
	}
}

// FuzzPlannedEncode: an arbitrary tensor encoded by a fuzz-chosen codec at
// a fuzz-chosen chunk count must encode the same under the plan its first
// encode recorded, and after fuzz-chosen bytes change under that now stale
// plan, the same as the unplanned encode of the changed bytes — never
// another blob, never a panic.
func FuzzPlannedEncode(f *testing.F) {
	payload := make([]byte, 2048)
	for i := range payload {
		payload[i] = byte(i * 31 % 7)
	}
	dense := make([]byte, 4<<10)
	for i, v := range tensor.NewGenerator(5).Uniform(1<<10, 0.2).Data {
		binary.LittleEndian.PutUint32(dense[4*i:], math.Float32bits(v))
	}
	for sel := uint8(0); sel < 5; sel++ {
		f.Add(payload, sel, []byte{})
		f.Add(payload, sel+5*8, []byte{0, 1, 2, 3})
		f.Add(dense, sel+5*3, []byte{17, 0x40})
		f.Add(dense, sel+5*16, []byte{1, 0, 2, 0, 3, 0, 0xff, 0x80})
	}
	f.Fuzz(func(t *testing.T, raw []byte, sel uint8, edits []byte) {
		src := fuzzFloats(raw)
		alg := ExtendedAlgorithms()[sel%5]
		k := 1 + int(sel/5)%32
		var plan EncodePlan
		want := encodeChunks(t, alg, src, k, &plan)
		if got := encodeChunks(t, alg, src, k, &plan); !bytes.Equal(got, want) {
			t.Fatalf("%s at %d chunks: the planned encode differs", alg, k)
		}
		if len(src) == 0 {
			return
		}
		// Each edit pair xors a byte into one byte of one element.
		changed := append([]float32(nil), src...)
		for i := 0; i+1 < len(edits); i += 2 {
			e := int(edits[i]) * len(changed) / 256
			changed[e] = math.Float32frombits(math.Float32bits(changed[e]) ^ uint32(edits[i+1])<<(8*(e%4)))
		}
		want = encodeChunks(t, alg, changed, k, nil)
		if got := encodeChunks(t, alg, changed, k, &plan); !bytes.Equal(got, want) {
			t.Fatalf("%s at %d chunks: encode under a stale plan differs from the unplanned one", alg, k)
		}
	})
}
