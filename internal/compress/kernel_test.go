package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"cswap/internal/tensor"
)

// The scalar ZVC encoder and decoder the word-wide kernels in zvc.go
// replaced, kept as the reference the kernels are held to: two passes and
// an append per value on encode, one branch and one bounds test per element
// on decode. Zero is the all-zero bit pattern, as in the kernels.

func refZVCEncode(src []float32) []byte {
	dst := putHeader(nil, ZVC, len(src))
	groups := (len(src) + 31) / 32
	for g := 0; g < groups; g++ {
		start := g * 32
		end := min(start+32, len(src))
		var bitmap uint32
		for i := start; i < end; i++ {
			if math.Float32bits(src[i]) != 0 {
				bitmap |= 1 << uint(i-start)
			}
		}
		dst = appendUint32(dst, bitmap)
		for i := start; i < end; i++ {
			if math.Float32bits(src[i]) != 0 {
				dst = appendFloat32(dst, src[i])
			}
		}
	}
	return dst
}

func refZVCDecodeInto(dst []float32, blob []byte) error {
	n, payload, err := parseHeader(blob, ZVC)
	if err != nil {
		return err
	}
	if err := checkDst(dst, n); err != nil {
		return err
	}
	groups := (n + 31) / 32
	pos := 0
	for g := 0; g < groups; g++ {
		if pos+4 > len(payload) {
			return ErrTruncated
		}
		bitmap := binary.LittleEndian.Uint32(payload[pos:])
		pos += 4
		start := g * 32
		end := start + 32
		if end > n {
			end = n
			if bitmap>>(uint(end-start)) != 0 {
				return ErrCorrupt
			}
		}
		for i := start; i < end; i++ {
			if bitmap&(1<<uint(i-start)) != 0 {
				if pos+4 > len(payload) {
					return ErrTruncated
				}
				dst[i] = readFloat32(payload[pos:])
				pos += 4
			} else {
				dst[i] = 0
			}
		}
	}
	if pos != len(payload) {
		return ErrCorrupt
	}
	return nil
}

// decodeClass names the outcome classes a ZVC decode can have.
func decodeClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTruncated):
		return "truncated"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	case errors.Is(err, ErrDstSize):
		return "dst-size"
	case errors.Is(err, ErrAlgorithmMismatch):
		return "algorithm"
	}
	return "other: " + err.Error()
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// zvcBudgetRounds replays DecodeInto's budget on a well-formed blob: how many
// times the unchecked loop computes a non-zero budget, and how many groups
// those budgets leave to the checked loop.
func zvcBudgetRounds(blob []byte) (rounds, checked int) {
	n := int(binary.LittleEndian.Uint64(blob[1:9]))
	payload := blob[headerSize:]
	pos, done := 0, 0
	for {
		g := min((n-done)/zvcGroup, (len(payload)-pos)/zvcGroupMax)
		if g == 0 {
			return rounds, (n - done + zvcGroup - 1) / zvcGroup
		}
		rounds++
		for ; g > 0; g-- {
			pos += 4 + 4*bits.OnesCount32(binary.LittleEndian.Uint32(payload[pos:]))
			done += zvcGroup
		}
	}
}

// zvcDense is n non-zero floats, none of them a zero bit pattern.
func zvcDense(n int) []float32 {
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(i%251) + 0.5
	}
	return src
}

// zvcBudgetEdgeTensors are the tensors at the edges of the unchecked loops'
// budgets: payloads that end exactly where a worst-case group does, or 4
// bytes short of it, so the last group goes to the checked loop; tails of 1
// and 31 behind dense groups; and dense groups followed by sparse ones, so
// the decode budget runs out and is recomputed mid-stream.
func zvcBudgetEdgeTensors() map[string][]float32 {
	gen := tensor.NewGenerator(41)
	cases := map[string][]float32{}
	for _, groups := range []int{1, 2, 5, 64} {
		dense := zvcDense(zvcGroup * groups)
		cases[fmt.Sprintf("dense %d groups", groups)] = dense
		short := slices.Clone(dense)
		short[len(short)-1] = 0
		cases[fmt.Sprintf("dense %d groups, last element zero", groups)] = short
		for _, tail := range []int{1, 31} {
			cases[fmt.Sprintf("dense %d groups, tail %d", groups, tail)] = zvcDense(zvcGroup*groups + tail)
		}
	}
	cases["dense then sparse"] = append(zvcDense(zvcGroup*16), gen.Uniform(zvcGroup*48+7, 0.9).Data...)
	cases["sparse then dense"] = append(gen.Uniform(zvcGroup*48, 0.9).Data, zvcDense(zvcGroup*16+3)...)
	return cases
}

// checkZVCKernels holds AppendEncode to refZVCEncode, byte for byte, and
// DecodeInto of that blob to refZVCDecodeInto and to src, bit for bit, both
// decoding into dirty buffers.
func checkZVCKernels(t *testing.T, what string, src []float32) {
	t.Helper()
	c := zvcCodec{}
	n := len(src)
	want := refZVCEncode(src)
	// Appended after a prefix, into exactly the promised capacity.
	buf := append(make([]byte, 0, 3+c.MaxEncodedLen(n)), "pre"...)
	got := c.AppendEncode(buf, src)
	if !bytes.Equal(got[3:], want) || string(got[:3]) != "pre" {
		t.Fatalf("%s: blob differs from the scalar reference", what)
	}
	if &got[0] != &buf[0] {
		t.Fatalf("%s: AppendEncode reallocated a sufficient buffer", what)
	}
	if grown := c.AppendEncode([]byte("pre"), src); !bytes.Equal(grown, got) {
		t.Fatalf("%s: growing append differs", what)
	}
	dst, ref := dirtyFloats(n), dirtyFloats(n)
	if err := c.DecodeInto(dst, want); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := refZVCDecodeInto(ref, want); err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	if !sameBits(dst, ref) || !sameBits(dst, src) {
		t.Fatalf("%s: decode differs from the scalar reference", what)
	}
}

func TestZVCKernelsMatchScalarReference(t *testing.T) {
	c := zvcCodec{}
	gen := tensor.NewGenerator(29)
	for _, s := range []float64{0, 0.2, 0.5, 0.8, 0.95, 1} {
		for n := 0; n <= 257; n++ {
			src := gen.Uniform(n, s).Data
			if n > 2 {
				// The bit patterns a numeric zero test would mishandle.
				src[0] = math.Float32frombits(0x80000000)
				src[n/2] = math.Float32frombits(0x7FC00001)
			}
			checkZVCKernels(t, fmt.Sprintf("s=%v n=%d", s, n), src)
		}
		for _, n := range []int{16384, 16385} {
			checkZVCKernels(t, fmt.Sprintf("s=%v n=%d", s, n), gen.Uniform(n, s).Data)
		}
	}
	edges := zvcBudgetEdgeTensors()
	for name, src := range edges {
		checkZVCKernels(t, name, src)
	}
	// The edges are where the tensors say they are. checked < 0 is any.
	for _, tc := range []struct {
		name               string
		minRounds, checked int
	}{
		{"dense 64 groups", 1, 0},
		{"dense 64 groups, last element zero", 1, 1},
		{"dense 64 groups, tail 31", 1, 1},
		{"dense then sparse", 3, -1},
	} {
		rounds, checked := zvcBudgetRounds(c.Encode(edges[tc.name]))
		if rounds < tc.minRounds || tc.checked >= 0 && checked != tc.checked {
			t.Errorf("%s: %d budget rounds, %d checked groups; want ≥ %d rounds, %d checked",
				tc.name, rounds, checked, tc.minRounds, tc.checked)
		}
	}
}

// TestZVCEveryGroupPosition pins each of the 32 written-out steps of a
// group, which random tensors may not single out: for every position i, a
// group whose only non-zero is element i, one whose only zero is element i,
// and ones whose only non-zero element i is −0 or a NaN payload. Each is
// placed as a tensor's first group, as a middle group, as the group a
// decode budget round ends on, and as the last full group of every
// budget-edge tensor.
func TestZVCEveryGroupPosition(t *testing.T) {
	sparse := tensor.NewGenerator(43).Uniform(zvcGroup*9+7, 0.5).Data
	edges := zvcBudgetEdgeTensors()
	for i := range zvcGroup {
		only := func(bits uint32) []float32 {
			group := make([]float32, zvcGroup)
			group[i] = math.Float32frombits(bits)
			return group
		}
		allBut := zvcDense(zvcGroup)
		allBut[i] = 0
		for kind, group := range map[string][]float32{
			"only non-zero": only(0x3FC00000),
			"only zero":     allBut,
			"only −0":       only(0x80000000),
			"only NaN":      only(0x7FC00001),
		} {
			at := func(where string, src []float32) {
				t.Helper()
				checkZVCKernels(t, fmt.Sprintf("%s element %d, %s", kind, i, where), src)
			}
			at("first group", slices.Concat(group, sparse))
			at("middle group", slices.Concat(sparse[:4*zvcGroup], group, sparse[4*zvcGroup:]))
			// Four dense groups, this one, and a dense one: the first decode
			// budget is five groups, and ends on this one.
			edge := slices.Concat(zvcDense(4*zvcGroup), group, zvcDense(zvcGroup))
			if rounds, checked := zvcBudgetRounds(refZVCEncode(edge)); rounds != 2 || checked != 0 {
				t.Fatalf("%s element %d: %d budget rounds, %d checked groups; want 2, 0", kind, i, rounds, checked)
			}
			at("a budget round's last group", edge)
			for name, e := range edges {
				if full := len(e) &^ (zvcGroup - 1); full > 0 {
					at("last full group of "+name, slices.Concat(e[:full-zvcGroup], group, e[full:]))
				}
			}
		}
	}
}

// TestZVCMalformedMatchesScalarReference holds the kernels to the
// reference's verdict on damaged input: every prefix of a blob, every
// single-bit flip of its bitmap words, a wrong destination and trailing
// bytes must land in the same class — and, where the damaged blob still
// decodes, produce the same elements — never panic.
func TestZVCMalformedMatchesScalarReference(t *testing.T) {
	// Long enough that the unchecked loop runs for several groups before
	// the checked one takes over, with a tail group at the end; a blob whose
	// payload ends exactly at a worst-case group, so one of its prefixes is
	// one byte short of one; and one long enough that the decode budget is
	// recomputed at least twice.
	const n = 32*9 + 7
	cases := map[string][]float32{}
	for _, s := range []float64{0, 0.3, 0.9, 1} {
		cases[fmt.Sprintf("s=%v", s)] = tensor.NewGenerator(31).Uniform(n, s).Data
	}
	edges := zvcBudgetEdgeTensors()
	for _, name := range []string{"dense 5 groups", "dense then sparse"} {
		cases[name] = edges[name]
	}
	if rounds, _ := zvcBudgetRounds(refZVCEncode(cases["dense then sparse"])); rounds < 3 {
		t.Fatalf("dense then sparse: %d budget rounds, want ≥ 3", rounds)
	}
	for name, src := range cases {
		n := len(src)
		blob := refZVCEncode(src)
		check := func(what string, dstLen int, damaged []byte) {
			t.Helper()
			// An exact-capacity copy: a read past the end cannot land in
			// spare capacity unnoticed.
			damaged = append(make([]byte, 0, len(damaged)), damaged...)
			dst, ref := dirtyFloats(dstLen), dirtyFloats(dstLen)
			got, want := zvcCodec{}.DecodeInto(dst, damaged), refZVCDecodeInto(ref, damaged)
			if decodeClass(got) != decodeClass(want) {
				t.Fatalf("%s %s: kernel says %q, reference %q", name, what, decodeClass(got), decodeClass(want))
			}
			if want == nil && !sameBits(dst, ref) {
				t.Fatalf("%s %s: decodes differ", name, what)
			}
			// The allocating decode refuses some blobs before it allocates,
			// with the class the reference gives them.
			if dstLen == n {
				if _, err := (zvcCodec{}).Decode(damaged); decodeClass(err) != decodeClass(want) {
					t.Fatalf("%s %s: Decode says %q, reference %q", name, what, decodeClass(err), decodeClass(want))
				}
			}
		}
		for cut := 0; cut <= len(blob); cut++ {
			check(fmt.Sprintf("prefix %d", cut), n, blob[:cut])
		}
		pos := headerSize
		for g := 0; g < (n+31)/32; g++ {
			for bit := 0; bit < 32; bit++ {
				flipped := append([]byte(nil), blob...)
				flipped[pos+bit/8] ^= 1 << (bit % 8)
				check(fmt.Sprintf("group %d bit %d", g, bit), n, flipped)
			}
			pos += 4 + 4*bits.OnesCount32(binary.LittleEndian.Uint32(blob[pos:]))
		}
		check("trailing bytes", n, append(append([]byte(nil), blob...), 0, 0, 0, 0))
		check("short dst", n-1, blob)
		check("long dst", n+1, blob)
	}
}

// hostileBlob is a 17-byte blob of algorithm a whose header claims 2²⁷
// elements (512 MiB of float32) over an 8-byte payload.
func hostileBlob(a Algorithm) []byte {
	return append(putHeader(nil, a, 1<<27), make([]byte, 8)...)
}

// checkRefusesHostileCount requires a's Decode and the package Decode to
// refuse hostileBlob(a) as truncated before the destination is allocated.
func checkRefusesHostileCount(t *testing.T, a Algorithm) {
	t.Helper()
	blob := hostileBlob(a)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, errCodec := MustNew(a).Decode(blob)
	_, errPkg := Decode(blob)
	runtime.ReadMemStats(&after)
	if !errors.Is(errCodec, ErrTruncated) || !errors.Is(errPkg, ErrTruncated) {
		t.Fatalf("%s: Decode = %v, package Decode = %v; want ErrTruncated", a, errCodec, errPkg)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("%s: refusing a %d-byte blob allocated %d bytes", a, len(blob), got)
	}
}

// TestZVCDecodeRefusesHostileCount: a payload too short to hold a bitmap
// word per group of the claimed count is refused.
func TestZVCDecodeRefusesHostileCount(t *testing.T) { checkRefusesHostileCount(t, ZVC) }

// TestHUFDecodeRefusesHostileCount: a payload too short to hold the code
// table and a bit per symbol of the claimed count is refused.
func TestHUFDecodeRefusesHostileCount(t *testing.T) { checkRefusesHostileCount(t, Huffman) }

// TestCSRDecodeRefusesHostileCount: a payload too short to hold the row
// pointers of the claimed count is refused.
func TestCSRDecodeRefusesHostileCount(t *testing.T) { checkRefusesHostileCount(t, CSR) }

// TestLZ4DecodeRefusesHostileCount: a payload shorter than ⌈4n/255⌉ bytes,
// less than any block of n elements costs, is refused.
func TestLZ4DecodeRefusesHostileCount(t *testing.T) { checkRefusesHostileCount(t, LZ4) }

// TestRLEDecodeRefusesHostileCount: a payload shorter than 4·⌈n/65535⌉
// bytes, one token per longest zero run, is refused.
func TestRLEDecodeRefusesHostileCount(t *testing.T) { checkRefusesHostileCount(t, RLE) }

// TestMaximalRatioBlobsDecode: the payload bounds LZ4's and RLE's Decode
// refuse below admit the most compressed blob each encoder writes — an
// all-zero tensor's — at lengths either side of the steps of both bounds,
// through Decode and DecodeInto. RLE's blob sits exactly on its bound.
func TestMaximalRatioBlobsDecode(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1019, 1020, 1021, 65534, 65535, 65536, 131070, 131071, 1 << 20} {
		zeros := make([]float32, n)
		for _, a := range []Algorithm{LZ4, RLE} {
			blob := MustNew(a).Encode(zeros)
			payload := len(blob) - headerSize
			bound := (4*n + 254) / 255
			if a == RLE {
				bound = 4 * ((n + rleMaxRun - 1) / rleMaxRun)
				if payload != bound {
					t.Errorf("RLE n=%d: all-zero payload is %d bytes, bound %d", n, payload, bound)
				}
			}
			if payload < bound {
				t.Fatalf("%s n=%d: all-zero payload is %d bytes, below the bound %d", a, n, payload, bound)
			}
			got, err := MustNew(a).Decode(blob)
			if err != nil || !slices.Equal(got, zeros) {
				t.Fatalf("%s n=%d: Decode = %d elements, %v", a, n, len(got), err)
			}
			dst := make([]float32, n)
			for i := range dst {
				dst[i] = 1 // dirty: DecodeInto must write every element
			}
			if err := MustNew(a).DecodeInto(dst, blob); err != nil || !slices.Equal(dst, zeros) {
				t.Fatalf("%s n=%d: DecodeInto: %v", a, n, err)
			}
		}
	}
}

// The scalar Huffman coder the word-wide kernels in huffman.go replaced,
// kept as the reference the kernels are held to: a raw-byte staging pass,
// one append per stream byte on encode; a freshly allocated decoder whose
// table is filled one store per slot, one symbol and one byte load at a
// time on decode.

// refHUFPack bit-packs raw under the code for lengths after a Huffman header
// for n elements: the scalar encoder's output stage.
func refHUFPack(n int, lengths [256]byte, raw []byte) []byte {
	codes := canonicalCodes(lengths)
	dst := putHeader(nil, Huffman, n)
	dst = append(dst, lengths[:]...)
	var acc uint64
	var nbits uint
	for _, b := range raw {
		c := codes[b]
		acc = acc<<uint64(c.len) | uint64(c.code)
		nbits += uint(c.len)
		for nbits >= 8 {
			nbits -= 8
			dst = append(dst, byte(acc>>nbits))
		}
	}
	if nbits > 0 {
		dst = append(dst, byte(acc<<(8-nbits)))
	}
	return dst
}

func refHUFEncode(src []float32) []byte {
	if len(src) == 0 {
		return putHeader(nil, Huffman, 0)
	}
	raw := make([]byte, len(src)*4)
	for i, v := range src {
		binary.LittleEndian.PutUint32(raw[i*4:], float32bits(v))
	}
	var freq [256]int64
	for _, b := range raw {
		freq[b]++
	}
	return refHUFPack(len(src), refHuffmanCodeLengths(freq[:]), raw)
}

// refHuffmanCodeLengths is the code-length construction the two-queue
// builder replaced, kept as the reference it is held to: a binary min-heap
// of node ids keyed on (freq, id), with leaves first in symbol order and
// internal nodes in creation order, each leaf's depth found by walking its
// parent chain, and the same dampening loop.
func refHuffmanCodeLengths(freq []int64) [256]byte {
	var lengths [256]byte
	var f [256]int64
	copy(f[:], freq)
	for {
		if refHuffBuild(&f, &lengths) <= huffMaxCodeLen {
			return lengths
		}
		for i := range f {
			if f[i] > 0 {
				f[i] = f[i]>>1 | 1
			}
		}
	}
}

func refHuffBuild(freq *[256]int64, lengths *[256]byte) int {
	var nodeFreq [511]int64
	var parent [511]int16
	var sym [256]int16
	var heap [256]int16
	size := 0
	less := func(i, j int) bool {
		x, y := heap[i], heap[j]
		if nodeFreq[x] != nodeFreq[y] {
			return nodeFreq[x] < nodeFreq[y]
		}
		return x < y
	}
	siftDown := func(i int) {
		for {
			l := 2*i + 1
			if l >= size {
				return
			}
			m := l
			if r := l + 1; r < size && less(r, l) {
				m = r
			}
			if !less(m, i) {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	pop := func() int16 {
		top := heap[0]
		size--
		heap[0] = heap[size]
		siftDown(0)
		return top
	}
	push := func(id int16) {
		i := size
		heap[i] = id
		size++
		for i > 0 {
			p := (i - 1) / 2
			if !less(i, p) {
				break
			}
			heap[i], heap[p] = heap[p], heap[i]
			i = p
		}
	}
	n := 0
	for s, f := range freq {
		if f > 0 {
			nodeFreq[n] = f
			sym[n] = int16(s)
			heap[n] = int16(n)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	if n == 1 {
		lengths[sym[0]] = 1
		return 1
	}
	size = n
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	next := int16(n)
	for size > 1 {
		x := pop()
		y := pop()
		nodeFreq[next] = nodeFreq[x] + nodeFreq[y]
		parent[x] = next
		parent[y] = next
		push(next)
		next++
	}
	parent[heap[0]] = -1
	maxDepth := 0
	for i := 0; i < n; i++ {
		d := 0
		for p := int16(i); parent[p] >= 0; p = parent[p] {
			d++
		}
		maxDepth = max(maxDepth, d)
		lengths[sym[i]] = byte(d)
	}
	return maxDepth
}

// TestHuffmanCodeLengthsMatchHeapReference holds the two-queue builder to
// the heap construction on seeded random tables — few and many symbols,
// narrow and wide frequency ranges, so ties of every kind — and on the
// edge tables: one, two and all 256 symbols, all frequencies equal, and the
// Fibonacci table, which takes the dampening path.
func TestHuffmanCodeLengthsMatchHeapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var tables [][]int64
	for _, syms := range []int{1, 2, 3, 17, 255, 256} {
		for _, span := range []int64{1, 2, 5, 1000, 1 << 40} {
			for range 70 {
				freq := make([]int64, 256)
				for _, s := range rng.Perm(256)[:syms] {
					freq[s] = 1 + rng.Int63n(span)
				}
				tables = append(tables, freq)
			}
		}
	}
	equal := make([]int64, 256)
	for i := range equal {
		equal[i] = 7
	}
	skewed := make([]int64, 256)
	for i := range skewed {
		skewed[i] = int64(1 + i*i)
	}
	tables = append(tables, make([]int64, 256), equal, skewed, fibonacciFreq())
	for ti, freq := range tables {
		if got, want := huffmanCodeLengths(freq), refHuffmanCodeLengths(freq); got != want {
			t.Fatalf("table %d: lengths %v, the heap builds %v (freq %v)", ti, got, want, freq)
		}
	}
}

// refHuffmanDecoder is the decoder the scalar loop ran on: a single-symbol
// primary table (len<<8 | symbol) over the per-length fallback tables.
type refHuffmanDecoder struct {
	maxLen    byte
	firstCode [huffMaxCodeLen + 2]uint64
	count     [huffMaxCodeLen + 2]int
	offset    [huffMaxCodeLen + 2]int
	nsyms     int
	symbols   [256]byte
	table     [1 << huffTableBits]uint16
}

func refNewHuffmanDecoder(lengths [256]byte) (*refHuffmanDecoder, error) {
	d := &refHuffmanDecoder{}
	for _, ln := range lengths {
		if ln == 0 {
			continue
		}
		if ln > huffMaxCodeLen {
			return nil, fmt.Errorf("%w: code length %d", ErrCorrupt, ln)
		}
		if ln > d.maxLen {
			d.maxLen = ln
		}
		d.count[ln]++
		d.nsyms++
	}
	if d.nsyms == 0 {
		return nil, fmt.Errorf("%w: empty code table", ErrCorrupt)
	}
	code := uint64(0)
	idx := 0
	var kraft float64
	for ln := byte(1); ln <= d.maxLen; ln++ {
		code <<= 1
		d.firstCode[ln] = code
		d.offset[ln] = idx
		code += uint64(d.count[ln])
		idx += d.count[ln]
		kraft += float64(d.count[ln]) / float64(uint64(1)<<uint(ln))
	}
	if d.nsyms > 1 && kraft > 1.0000001 {
		return nil, fmt.Errorf("%w: over-subscribed code table", ErrCorrupt)
	}
	var fill [huffMaxCodeLen + 2]int
	copy(fill[:], d.offset[:])
	for sym, ln := range lengths {
		if ln == 0 {
			continue
		}
		rank := fill[ln] - d.offset[ln]
		d.symbols[fill[ln]] = byte(sym)
		fill[ln]++
		if ln <= huffTableBits {
			e := uint16(ln)<<8 | uint16(sym)
			base := (d.firstCode[ln] + uint64(rank)) << (huffTableBits - uint(ln))
			span := uint64(1) << (huffTableBits - uint(ln))
			for j := uint64(0); j < span; j++ {
				d.table[base+j] = e
			}
		}
	}
	return d, nil
}

func (d *refHuffmanDecoder) next(acc uint64, nbits uint) (sym byte, consumed uint, ok bool) {
	if nbits > 0 {
		var idx uint64
		if nbits >= huffTableBits {
			idx = acc >> (nbits - huffTableBits)
		} else {
			idx = acc << (huffTableBits - nbits) & (1<<huffTableBits - 1)
		}
		if e := d.table[idx]; e != 0 {
			if ln := uint(e >> 8); ln <= nbits {
				return byte(e), ln, true
			}
			return 0, 0, false
		}
		if nbits <= huffTableBits {
			return 0, 0, false
		}
	}
	for ln := byte(huffTableBits + 1); ln <= d.maxLen && uint(ln) <= nbits; ln++ {
		if d.count[ln] == 0 {
			continue
		}
		prefix := acc >> (nbits - uint(ln))
		if prefix >= d.firstCode[ln] && prefix < d.firstCode[ln]+uint64(d.count[ln]) {
			return d.symbols[d.offset[ln]+int(prefix-d.firstCode[ln])], uint(ln), true
		}
	}
	return 0, 0, false
}

func refHUFDecodeInto(dst []float32, blob []byte) error {
	n, payload, err := parseHeader(blob, Huffman)
	if err != nil {
		return err
	}
	if err := checkDst(dst, n); err != nil {
		return err
	}
	if n == 0 {
		if len(payload) != 0 {
			return ErrCorrupt
		}
		return nil
	}
	if len(payload) < 256 {
		return ErrTruncated
	}
	var lengths [256]byte
	copy(lengths[:], payload[:256])
	data := payload[256:]
	dec, err := refNewHuffmanDecoder(lengths)
	if err != nil {
		return err
	}
	raw := make([]byte, n*4)
	var acc uint64
	var nbits uint
	pos := 0
	for i := range raw {
		sym, consumed, ok := dec.next(acc, nbits)
		for !ok {
			if pos >= len(data) {
				return ErrTruncated
			}
			acc = acc<<8 | uint64(data[pos])
			nbits += 8
			pos++
			if nbits > 64-8 {
				return fmt.Errorf("%w: oversized huffman code", ErrCorrupt)
			}
			sym, consumed, ok = dec.next(acc, nbits)
		}
		raw[i] = sym
		nbits -= consumed
		acc &= (1 << nbits) - 1
	}
	if pos != len(data) || nbits >= 8 {
		return ErrCorrupt
	}
	for i := range dst {
		dst[i] = readFloat32(raw[i*4:])
	}
	return nil
}

// hufSingleSymbol is a tensor of one byte value: a one-code table, half of
// whose windows are holes.
var hufSingleSymbol = []float32{math.Float32frombits(0x41414141), math.Float32frombits(0x41414141), math.Float32frombits(0x41414141)}

// hufKernelCases returns the tensors both Huffman parity tests run over,
// by name: random tensors across sparsity and length, the float classes a
// numeric treatment would mishandle, and a one-symbol tensor.
func hufKernelCases() map[string][]float32 {
	cases := map[string][]float32{
		"single symbol": hufSingleSymbol,
		"special values": {
			math.Float32frombits(0x80000000), float32(math.NaN()), math.Float32frombits(0x7FC00001),
			float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(1), math.Float32frombits(0x807FFFFF), 0, 1.5,
		},
	}
	cases["fibonacci bytes"] = hufFibonacciTensor(26)
	gen := tensor.NewGenerator(37)
	for _, s := range []float64{0, 0.2, 0.5, 0.9, 1} {
		for _, n := range []int{0, 1, 2, 3, 5, 31, 16384, 16385} {
			cases[fmt.Sprintf("s=%v n=%d", s, n)] = gen.Uniform(n, s).Data
		}
	}
	return cases
}

// hufFibonacciTensor returns a tensor whose byte values 0..syms-1 occur in
// Fibonacci proportions, shuffled: the encoder's optimal tree for it is
// syms-1 deep, past the decoder's table and the packer's one flush per
// element, with the long codes scattered through the stream.
func hufFibonacciTensor(syms int) []float32 {
	var raw []byte
	for sym, a, b := 0, 1, 1; sym < syms; sym, a, b = sym+1, b, a+b {
		raw = append(raw, bytes.Repeat([]byte{byte(sym)}, a)...)
	}
	raw = raw[:len(raw)&^3]
	rand.New(rand.NewSource(37)).Shuffle(len(raw), func(i, j int) { raw[i], raw[j] = raw[j], raw[i] })
	src := make([]float32, len(raw)/4)
	for i := range src {
		src[i] = readFloat32(raw[i*4:])
	}
	return src
}

// hufFibonacciBlob packs raw (a whole number of elements) under the
// length-limited Fibonacci table, whose codes run to huffMaxCodeLen.
func hufFibonacciBlob(raw []byte) []byte {
	return refHUFPack(len(raw)/4, refHuffmanCodeLengths(fibonacciFreq()), raw)
}

func TestHUFKernelsMatchScalarReference(t *testing.T) {
	c := huffmanCodec{}
	decodeBoth := func(name string, blob []byte, n int) []float32 {
		t.Helper()
		dst, ref := dirtyFloats(n), dirtyFloats(n)
		if err := c.DecodeInto(dst, blob); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := refHUFDecodeInto(ref, blob); err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !sameBits(dst, ref) {
			t.Fatalf("%s: decode differs from the scalar reference", name)
		}
		return dst
	}
	for name, src := range hufKernelCases() {
		n := len(src)
		want := refHUFEncode(src)
		if name == "fibonacci bytes" && slices.Max(want[headerSize:headerSize+256]) <= 2*huffTableBits {
			t.Fatal("the Fibonacci tensor no longer outgrows the decoder's table")
		}
		// Appended after a prefix, into exactly the promised capacity.
		buf := append(make([]byte, 0, 3+c.MaxEncodedLen(n)), "pre"...)
		got := c.AppendEncode(buf, src)
		if !bytes.Equal(got[3:], want) || string(got[:3]) != "pre" {
			t.Fatalf("%s: blob differs from the scalar reference", name)
		}
		if &got[0] != &buf[0] {
			t.Fatalf("%s: AppendEncode reallocated a sufficient buffer", name)
		}
		if grown := c.AppendEncode([]byte("pre"), src); !bytes.Equal(grown, got) {
			t.Fatalf("%s: growing append differs", name)
		}
		if !sameBits(decodeBoth(name, want, n), src) {
			t.Fatalf("%s: decode differs from the source", name)
		}
	}

	// The length-limited Fibonacci table: codes up to huffMaxCodeLen, far
	// past the decoder's table.
	raw := make([]byte, 4*90)
	for i := range raw {
		raw[i] = byte(i % 90)
	}
	blob := hufFibonacciBlob(raw)
	lengths := (*[256]byte)(blob[headerSize:])
	if slices.Max(lengths[:]) <= 2*huffTableBits {
		t.Fatal("the Fibonacci table no longer outgrows the decoder's table")
	}
	src := decodeBoth("fibonacci", blob, len(raw)/4)
	for i, v := range src {
		if math.Float32bits(v) != binary.LittleEndian.Uint32(raw[i*4:]) {
			t.Fatalf("fibonacci: element %d restored wrong", i)
		}
	}
}

// TestHUFPackerFlushCadences drives the bit writer at every longest code
// its one-flush-per-element loop takes, at the lengths where the general
// loop's flush cadence changes, and at the longest it takes: elements made
// of four longest codes, behind every count of pending bits, must pack as
// the scalar reference packs them. It runs once as this host packs and once
// with the little-endian loop turned off, so the general loop is held to
// every length too.
func TestHUFPackerFlushCadences(t *testing.T) {
	defer func(was bool) { hostLE = was }(hostLE)
	rng := rand.New(rand.NewSource(47))
	longest := []byte{56 / 2, 56/2 + 1, huffMaxCodeLen}
	for l := byte(1); l <= huffShortCode+1; l++ {
		longest = append(longest, l)
	}
	for _, le := range []bool{hostLE, false} {
		hostLE = le
		for _, long := range longest {
			// Symbols 0–3 are the first four codes of the long length, or
			// its first two at lengths 1 and 2; the shorter symbols between
			// them leave every count of pending bits.
			lengths := [256]byte{long, long, long, long, 2, 3}
			switch long {
			case 1:
				lengths = [256]byte{1, 1}
			case 2:
				lengths = [256]byte{2, 2, 1}
			}
			syms := bytes.IndexByte(lengths[:], 0)
			var codes huffCodeTable
			codes.set(lengths)
			raw := make([]byte, 4*512)
			for i := range raw {
				raw[i] = byte(rng.Intn(syms))
			}
			for i := 0; i < len(raw); i += 64 {
				for k, s := range []byte{0, 1, 2, 3, 3, 2, 1, 0} {
					if lengths[s] != long {
						s = 0
					}
					raw[i+k] = s
				}
			}
			src := make([]float32, len(raw)/4)
			for i := range src {
				src[i] = readFloat32(raw[i*4:])
			}
			want := refHUFPack(len(src), lengths, raw)[headerSize+256:]
			stream := make([]byte, len(want)+huffSlack)
			huffPack(stream, src, &codes, long)
			if !bytes.Equal(stream[:len(want)], want) {
				t.Fatalf("longest code %d bits, little-endian loop %v: packed stream differs from the scalar reference", long, le)
			}
		}
	}
}

// hufMalformedCase is a damaged Huffman blob and the destination length a
// decode of it is given.
type hufMalformedCase struct {
	name   string
	blob   []byte
	dstLen int
}

// hufMalformedCases returns every prefix of a few blobs, every single-bit
// flip of their header, their length table and the first and last 16
// stream bytes, and the blobs with one byte appended. Each blob is an
// exact-capacity copy, so a read past its end cannot land in spare
// capacity unnoticed, and a flip in the element count gives the
// destination the length it asks for.
func hufMalformedCases() []hufMalformedCase {
	blobs := map[string][]byte{}
	gen := tensor.NewGenerator(41)
	for _, s := range []float64{0, 0.2, 0.9} {
		blobs[fmt.Sprintf("s=%v", s)] = refHUFEncode(gen.Uniform(301, s).Data)
	}
	blobs["single symbol"] = refHUFEncode(hufSingleSymbol)
	raw := make([]byte, 4*90)
	for i := range raw {
		raw[i] = byte(i * 7 % 90)
	}
	blobs["fibonacci"] = hufFibonacciBlob(raw)

	var cases []hufMalformedCase
	for name, blob := range blobs {
		cases = append(cases, hufDamage(name, blob)...)
	}
	return cases
}

// hufDamage returns the damaged copies of blob that hufMalformedCases
// makes, named after name.
func hufDamage(name string, blob []byte) []hufMalformedCase {
	var cases []hufMalformedCase
	n := int(binary.LittleEndian.Uint64(blob[1:]))
	add := func(what string, damaged []byte) {
		damaged = append(make([]byte, 0, len(damaged)), damaged...)
		dstLen := n
		if len(damaged) >= headerSize {
			if claimed := binary.LittleEndian.Uint64(damaged[1:]); claimed < 1<<16 {
				dstLen = int(claimed)
			}
		}
		cases = append(cases, hufMalformedCase{name + " " + what, damaged, dstLen})
	}
	for cut := 0; cut <= len(blob); cut++ {
		add(fmt.Sprintf("prefix %d", cut), blob[:cut])
	}
	stream := headerSize + 256
	for i := range blob {
		if i >= stream+16 && i < len(blob)-16 {
			continue
		}
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), blob...)
			flipped[i] ^= 1 << bit
			add(fmt.Sprintf("byte %d bit %d", i, bit), flipped)
		}
	}
	add("appended byte", append(append([]byte(nil), blob...), 0))
	add("appended set byte", append(append([]byte(nil), blob...), 0xff))
	return cases
}

// TestHUFMalformedMatchesScalarReference holds the kernels to the
// reference's verdict on damaged input: every case of hufMalformedCases
// must land in the same class — and, where the damaged blob still decodes,
// produce the same elements — never panic.
func TestHUFMalformedMatchesScalarReference(t *testing.T) {
	for _, c := range hufMalformedCases() {
		dst, ref := dirtyFloats(c.dstLen), dirtyFloats(c.dstLen)
		got, want := huffmanCodec{}.DecodeInto(dst, c.blob), refHUFDecodeInto(ref, c.blob)
		if decodeClass(got) != decodeClass(want) {
			t.Fatalf("%s: kernel says %q, reference %q", c.name, decodeClass(got), decodeClass(want))
		}
		if want == nil && !sameBits(dst, ref) {
			t.Fatalf("%s: decodes differ", c.name)
		}
	}

	// A table with a hole in its code space — "0" is the only code — and a
	// stream that runs into it after 0 to 7 symbols: corrupt once 56 bits
	// match nothing, truncated if the stream ends first, and which comes
	// first depends on the bits pending and the bytes left.
	for lead := 0; lead < 8; lead++ {
		for size := 5; size <= 10; size++ {
			blob := putHeader(nil, Huffman, 3)
			blob = append(blob, make([]byte, 256)...)
			blob[headerSize+0x41] = 1
			blob = append(blob, bytes.Repeat([]byte{0xff}, size)...)
			blob[headerSize+256] >>= lead
			dst, ref := dirtyFloats(3), dirtyFloats(3)
			got, want := huffmanCodec{}.DecodeInto(dst, blob), refHUFDecodeInto(ref, blob)
			if decodeClass(got) != decodeClass(want) || want == nil {
				t.Fatalf("hole after %d symbols, %d stream bytes: kernel says %q, reference %q",
					lead, size, decodeClass(got), decodeClass(want))
			}
		}
	}
}

// The pooled workspace is rebuilt per blob. Whatever it decoded before,
// every window of the rebuilt table must hold exactly the whole codes the
// reference decoder finds in it one at a time, up to three, and next must
// agree with the reference's on codes of every length.
func TestHuffmanDecoderBuildMatchesReference(t *testing.T) {
	d := new(huffmanDecoder)
	gen := tensor.NewGenerator(43)
	tables := [][256]byte{huffmanCodeLengths(fibonacciFreq())}
	for _, s := range []float64{0, 0.3, 0.95, 1} {
		blob := refHUFEncode(gen.Uniform(4096, s).Data)
		tables = append(tables, *(*[256]byte)(blob[headerSize:]))
	}
	var under [256]byte // codes, but holes in the code space
	under[3], under[200] = 2, 9
	tables = append(tables, under)
	for ti, lengths := range tables {
		ref, err := refNewHuffmanDecoder(lengths)
		if err != nil {
			t.Fatalf("table %d: reference: %v", ti, err)
		}
		if err := d.build(&lengths); err != nil {
			t.Fatalf("table %d: %v", ti, err)
		}
		for w := 0; w < 1<<huffTableBits; w++ {
			var want uint32
			acc, nbits := uint64(w), uint(huffTableBits)
			for k := 0; k < 3; k++ {
				sym, consumed, ok := ref.next(acc, nbits)
				if !ok {
					break
				}
				want += uint32(sym)<<(huffEntrySyms+8*k) + 1<<huffEntryCount + uint32(consumed)
				nbits -= consumed
				acc &= 1<<nbits - 1
			}
			if d.table[w] != want {
				t.Fatalf("table %d window %011b: entry %#x, want %#x", ti, w, d.table[w], want)
			}
		}
		for sym, c := range canonicalCodes(lengths) {
			if c.len == 0 {
				continue
			}
			// The code followed by set bits, and the code one bit short.
			acc, nbits := c.code<<3|7, uint(c.len)+3
			if got, n, ok := d.next(acc, nbits); !ok || int(got) != sym || n != uint(c.len) {
				t.Fatalf("table %d symbol %d: next = %d, %d, %v", ti, sym, got, n, ok)
			}
			if _, _, ok := d.next(c.code>>1, uint(c.len)-1); ok {
				t.Fatalf("table %d symbol %d: next matched a code one bit short", ti, sym)
			}
		}
	}
}

// segmentDigestRef is segmentDigest as it was written before the word view:
// each bit pattern taken by math.Float32bits, one float at a time. It is
// the oracle the word-view kernel is held to.
func segmentDigestRef(seg []float32) uint64 {
	s0, s1, s2, s3 := uint64(csPrime2), uint64(csPrime3), uint64(csPrime4), uint64(csPrime5)
	for len(seg) >= 8 {
		s0 = csMix(s0, uint64(math.Float32bits(seg[0]))|uint64(math.Float32bits(seg[1]))<<32)
		s1 = csMix(s1, uint64(math.Float32bits(seg[2]))|uint64(math.Float32bits(seg[3]))<<32)
		s2 = csMix(s2, uint64(math.Float32bits(seg[4]))|uint64(math.Float32bits(seg[5]))<<32)
		s3 = csMix(s3, uint64(math.Float32bits(seg[6]))|uint64(math.Float32bits(seg[7]))<<32)
		seg = seg[8:]
	}
	for _, v := range seg {
		s0 = csMix(s0, uint64(math.Float32bits(v)))
	}
	return csMix(csMix(csMix(s0, s1), s2), s3)
}

// checksumSerial is Checksum's definition computed on one goroutine with
// per-segment storage, over the reference segment digest: the value the
// pooled word-view computation must reproduce.
func checksumSerial(data []float32) uint64 {
	var keyed []uint64
	for i := 0; i == 0 || i*checksumSegment < len(data); i++ {
		seg := data[i*checksumSegment:]
		seg = seg[:min(len(seg), checksumSegment)]
		keyed = append(keyed, csMix(segmentDigestRef(seg), uint64(i)))
	}
	var sum uint64
	for i := len(keyed) - 1; i >= 0; i-- { // reversed: the sum has no order
		sum += keyed[i]
	}
	return csMix(sum, uint64(len(data)))
}

// lcgFloats fills n elements from a fixed generator, roughly half of them
// zero, independent of the tensor package so the pinned digests below
// cannot move with it.
func lcgFloats(n int) []float32 {
	out := make([]float32, n)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range out {
		x = x*6364136223846793005 + 1442695040888963407
		if x>>63 == 0 {
			out[i] = math.Float32frombits(uint32(x >> 20))
		}
	}
	return out
}

func TestSegmentDigestMatchesReference(t *testing.T) {
	// Random words with −0, NaN payloads (quiet, signalling, negative) and
	// infinities written as bit patterns, and all-zero input; at element
	// offsets 1, 3 and 7 the word view starts 4 but not 8 bytes aligned.
	mixed := lcgFloats(checksumSegment + 16)
	w := floatWords(mixed)
	for i, special := range []uint32{0x80000000, 0x7FC00000, 0x7FC00001, 0x7F800001, 0xFFFFFFFF, 0x7F800000, 0xFF800000} {
		for j := i; j < len(w); j += 61 {
			w[j] = special
		}
	}
	var lengths []int // every length up to 300, and around a segment
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	for n := checksumSegment - 9; n <= checksumSegment+9; n++ {
		lengths = append(lengths, n)
	}
	for _, in := range []struct {
		name string
		data []float32
	}{{"mixed", mixed}, {"zero", make([]float32, checksumSegment+16)}} {
		for _, off := range []int{0, 1, 3, 7} {
			for _, n := range lengths {
				seg := in.data[off : off+n]
				if got, want := segmentDigest(seg), segmentDigestRef(seg); got != want {
					t.Fatalf("%s, offset %d, %d elements: %#x, reference %#x", in.name, off, n, got, want)
				}
			}
		}
	}
}

func TestChecksumDetectsEverySingleBitFlip(t *testing.T) {
	block := lcgFloats(1024) // 4 KiB
	want := Checksum(block)
	for i := range block {
		orig := block[i]
		for bit := 0; bit < 32; bit++ {
			block[i] = math.Float32frombits(math.Float32bits(orig) ^ 1<<uint(bit))
			if Checksum(block) == want {
				t.Fatalf("flipping bit %d of element %d left the digest unchanged", bit, i)
			}
		}
		block[i] = orig
	}
	if Checksum(block) != want {
		t.Fatal("digest not restored with the data")
	}
}

func TestChecksumOrderLengthAndSign(t *testing.T) {
	data := lcgFloats(3*checksumSegment + 100)
	for i := range data {
		if data[i] == 0 {
			data[i] = float32(i + 1) // no equal words below
		}
	}
	want := Checksum(data)
	// Same lane, neighbouring lanes, halves of one word, across the tail,
	// across segments.
	for _, p := range [][2]int{{0, 8}, {0, 2}, {0, 1}, {7, len(data) - 1}, {5, checksumSegment + 5},
		{checksumSegment - 1, checksumSegment}, {2 * checksumSegment, 3*checksumSegment + 99}} {
		data[p[0]], data[p[1]] = data[p[1]], data[p[0]]
		if Checksum(data) == want {
			t.Fatalf("swapping elements %d and %d left the digest unchanged", p[0], p[1])
		}
		data[p[0]], data[p[1]] = data[p[1]], data[p[0]]
	}
	// Whole 64-bit words (element pairs 2k, 2k+1) exchanged: in one lane,
	// in neighbouring lanes, across a segment boundary, the same word of
	// two segments, and one segment's first and last words.
	const segWords = checksumSegment / 2
	for _, p := range [][2]int{{0, 4}, {0, 1}, {segWords - 1, segWords}, {3, segWords + 3}, {0, segWords - 1}} {
		a, b := data[2*p[0]:2*p[0]+2], data[2*p[1]:2*p[1]+2]
		a[0], a[1], b[0], b[1] = b[0], b[1], a[0], a[1]
		if Checksum(data) == want {
			t.Fatalf("swapping words %d and %d left the digest unchanged", p[0], p[1])
		}
		a[0], a[1], b[0], b[1] = b[0], b[1], a[0], a[1]
	}
	// Whole segments exchanged.
	swapped := append([]float32(nil), data...)
	copy(swapped, data[checksumSegment:2*checksumSegment])
	copy(swapped[checksumSegment:], data[:checksumSegment])
	if Checksum(swapped) == want {
		t.Fatal("exchanging two segments left the digest unchanged")
	}

	// Appended zeros change it, at every alignment and for all-zero input.
	for _, base := range [][]float32{nil, {0}, make([]float32, 7), make([]float32, 8), lcgFloats(33),
		make([]float32, checksumSegment), lcgFloats(checksumSegment)} {
		seen := map[uint64]int{Checksum(base): 0}
		grown := base
		for k := 1; k <= 17; k++ {
			grown = append(grown, 0)
			h := Checksum(grown)
			if prev, dup := seen[h]; dup {
				t.Fatalf("len %d + %d zeros digests like + %d zeros", len(base), k, prev)
			}
			seen[h] = k
		}
	}

	// −0 and +0, and two NaN payloads, are different data.
	pair := func(a, b uint32) {
		t.Helper()
		x, y := lcgFloats(64), lcgFloats(64)
		x[10], y[10] = math.Float32frombits(a), math.Float32frombits(b)
		if Checksum(x) == Checksum(y) {
			t.Fatalf("%08x and %08x digest alike", a, b)
		}
	}
	pair(0, 0x80000000)
	pair(0x7FC00000, 0x7FC00001)
}

func TestChecksumSameAtAnyCoreCount(t *testing.T) {
	// Pinned values: a redefinition of the digest must be deliberate, and
	// the `-cpu 1,2,4` gate runs hold every core count to the same numbers.
	for _, pin := range []struct {
		n    int
		want uint64
	}{
		{0, 0x5e72994b099447d1},
		{1000, 0x52b71dfbbc06e46c},
		{5*checksumSegment + 3, 0x3bce9d00c8361825},
	} {
		if got := Checksum(lcgFloats(pin.n)); got != pin.want {
			t.Errorf("Checksum of %d elements = %#x, pinned %#x", pin.n, got, pin.want)
		}
	}
	// Around every segment boundary, at explicit pool widths on top of the
	// gate's: the pooled value is the serial definition's.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 7, 8, 9, checksumSegment - 1, checksumSegment, checksumSegment + 1,
			2*checksumSegment - 1, 2 * checksumSegment, 2*checksumSegment + 1, 9*checksumSegment + 5} {
			data := lcgFloats(n)
			if got, want := Checksum(data), checksumSerial(data); got != want {
				t.Fatalf("GOMAXPROCS %d, %d elements: pooled %#x, serial %#x", procs, n, got, want)
			}
		}
	}
}
