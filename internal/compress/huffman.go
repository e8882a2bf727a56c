package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// Huffman is an extension codec beyond the paper's four ("we wish to
// support more compression algorithms in the future work", Section IV-E):
// a canonical Huffman entropy coder over the tensor's byte stream. Unlike
// the sparsity codecs it exploits the *distribution* of byte values —
// zeros and the narrow exponent range of activation floats — so it also
// compresses dense tensors somewhat, at a higher computational cost.
const Huffman Algorithm = 5

// ExtendedAlgorithms returns the paper's four codecs plus the extensions.
func ExtendedAlgorithms() []Algorithm {
	return append(Algorithms(), Huffman)
}

// huffmanCodec implements canonical Huffman coding.
//
// Payload layout after the common header:
//
//	[256 bytes]  canonical code length per byte symbol (0 = absent)
//	[...]        MSB-first bit-packed codes for the n·4 data bytes
type huffmanCodec struct{}

func (huffmanCodec) Algorithm() Algorithm { return Huffman }

const huffMaxCodeLen = 56 // fits the decoder's uint64 bit buffer

// huffSlack is the room AppendEncode needs past the last stream byte: the
// bit writer flushes with whole 8-byte stores.
const huffSlack = 8

// MaxEncodedLen bounds the blob via Huffman optimality: the built code
// minimises total bits over all prefix codes, including the fixed 8-bit
// code, so the packed stream never exceeds the 4·n raw bytes after the
// 256-byte length table. The slack on top is the bit writer's, so a buffer
// of this capacity is never reallocated. (AppendEncode sizes its span from
// the code lengths it built, not from this bound: a tensor of ~10¹¹
// elements whose tree had to be length-limited may exceed it, at the cost
// of one allocation.)
func (huffmanCodec) MaxEncodedLen(n int) int {
	if n == 0 {
		return headerSize
	}
	return headerSize + 256 + 4*n + huffSlack
}

func (c huffmanCodec) Encode(src []float32) []byte {
	return c.AppendEncode(make([]byte, 0, c.MaxEncodedLen(len(src))), src)
}

// AppendEncode histograms the tensor's bytes straight from the float bits,
// sizes the stream exactly from the code lengths, and packs it with a
// word-wide bit writer into the reserved span.
func (huffmanCodec) AppendEncode(dst []byte, src []float32) []byte {
	if len(src) == 0 {
		return putHeader(dst, Huffman, 0)
	}
	var freq [256]int64
	huffHistogram(&freq, src)
	lengths := huffmanCodeLengths(freq[:])
	var codes huffCodeTable
	maxLen := codes.set(lengths)
	size := headerSize + 256 + huffStreamLen(&freq, &lengths)
	base := len(dst)
	if cap(dst)-base < size+huffSlack {
		grown := make([]byte, base, base+size+huffSlack)
		copy(grown, dst)
		dst = grown
	}
	out := dst[base : base+size+huffSlack]
	putHeader(out[:0], Huffman, len(src))
	copy(out[headerSize:], lengths[:])
	huffPack(out[headerSize+256:], src, &codes, maxLen)
	return dst[:base+size]
}

// huffStreamLen is the length in bytes of the stream packing symbols
// counted by freq under the code lengths.
func huffStreamLen(freq *[256]int64, lengths *[256]byte) int {
	var bits int64
	for s, f := range freq {
		bits += f * int64(lengths[s])
	}
	return int((bits + 7) / 8)
}

// huffCodeTable is a code in the form the packing loops read it: each
// symbol's code left-aligned in a word, so that one shift by the count of
// pending bits puts it behind them, and its length.
type huffCodeTable struct {
	code [256]uint64
	len  [256]byte
}

// set makes t the canonical code for lengths and returns its longest code.
func (t *huffCodeTable) set(lengths [256]byte) (maxLen byte) {
	for s, c := range canonicalCodes(lengths) {
		t.code[s], t.len[s] = c.code<<(64-c.len), c.len
		maxLen = max(maxLen, c.len)
	}
	return maxLen
}

// huffHistogram counts the byte values of src into freq. One table per
// byte lane of two elements in flight: the bytes of a run of zero floats
// would otherwise serialise on one counter.
func huffHistogram(freq *[256]int64, src []float32) {
	var lanes [8][256]int64
	for ; len(src) >= 2; src = src[2:] {
		a, b := math.Float32bits(src[0]), math.Float32bits(src[1])
		lanes[0][a&0xff]++
		lanes[1][a>>8&0xff]++
		lanes[2][a>>16&0xff]++
		lanes[3][a>>24]++
		lanes[4][b&0xff]++
		lanes[5][b>>8&0xff]++
		lanes[6][b>>16&0xff]++
		lanes[7][b>>24]++
	}
	for _, v := range src {
		a := math.Float32bits(v)
		lanes[0][a&0xff]++
		lanes[1][a>>8&0xff]++
		lanes[2][a>>16&0xff]++
		lanes[3][a>>24]++
	}
	for s := range freq {
		for l := range lanes {
			freq[s] += lanes[l][s]
		}
	}
}

// huffShortCode is the longest code huffPackShort takes: four codes of it
// fit the 56 bits the accumulator takes on top of the pending ones.
const huffShortCode = 56 / 4

// huffPack packs src into stream under the code t, whose longest code is
// maxLen bits. Codes collect left-aligned in a 64-bit accumulator: its top
// nbits are the bits not yet written whole, everything below them zero, and
// a code is ORed in behind them with one shift. Between flushes fewer than
// 8 bits are pending. A flush is one big-endian 8-byte store of the
// accumulator at the cursor, of which only the whole bytes are kept: the
// cursor advances past them and the accumulator shifts them out. stream
// therefore needs huffSlack bytes past its last one, and the final flush
// leaves the last partial byte zero-padded.
//
// Codes of at most huffShortCode bits, every code the workloads' tensors
// get, go to huffPackShort on a little-endian host, for as many elements as
// its budget allows; what is left, and longer codes, take the general
// loop. There an element is flushed once when four codes fit the 56 bits
// the accumulator takes on top of the pending ones, after every second
// symbol when two do, and after every symbol otherwise: the same loop, the
// two tests in it fixed for the call. Each of its stores is checked against
// the end of stream.
//
// huffPack returns the stream's length in bytes, or -1 if it would not fit
// stream with its slack: a caller that sized stream from the code and the
// bytes' own histogram never sees -1, and no stream too short is written
// past its end.
func huffPack(stream []byte, src []float32, t *huffCodeTable, maxLen byte) int {
	var acc uint64
	var nbits uint
	pos := 0
	if maxLen <= huffShortCode && hostLE {
		for len(src) > 0 {
			g := min(len(src), (len(stream)-pos-1)/7)
			if g <= 0 {
				break
			}
			var n int
			acc, nbits, n = huffPackShort(stream[pos:], src[:g], t, acc, nbits)
			pos += n
			src = src[g:]
		}
	}
	flush2, flush1 := maxLen > 56/4, maxLen > 56/2
	for _, v := range src {
		b := math.Float32bits(v)
		s0, s1, s2, s3 := b&0xff, b>>8&0xff, b>>16&0xff, b>>24
		acc |= t.code[s0] >> (nbits & 63)
		nbits += uint(t.len[s0])
		if flush1 {
			if len(stream)-pos < 8 {
				return -1
			}
			binary.BigEndian.PutUint64(stream[pos:], acc)
			pos += int(nbits >> 3)
			acc <<= nbits & 56
			nbits &= 7
		}
		acc |= t.code[s1] >> (nbits & 63)
		nbits += uint(t.len[s1])
		if flush2 {
			if len(stream)-pos < 8 {
				return -1
			}
			binary.BigEndian.PutUint64(stream[pos:], acc)
			pos += int(nbits >> 3)
			acc <<= nbits & 56
			nbits &= 7
		}
		acc |= t.code[s2] >> (nbits & 63)
		nbits += uint(t.len[s2])
		if flush1 {
			if len(stream)-pos < 8 {
				return -1
			}
			binary.BigEndian.PutUint64(stream[pos:], acc)
			pos += int(nbits >> 3)
			acc <<= nbits & 56
			nbits &= 7
		}
		acc |= t.code[s3] >> (nbits & 63)
		nbits += uint(t.len[s3])
		if len(stream)-pos < 8 {
			return -1
		}
		binary.BigEndian.PutUint64(stream[pos:], acc)
		pos += int(nbits >> 3)
		acc <<= nbits & 56
		nbits &= 7
	}
	return pos + int(nbits+7)/8
}

// huffPackShort packs src into stream for codes of at most huffShortCode
// bits, carrying on from the accumulator acc with nbits pending bits, and
// returns the two with the number of whole bytes it wrote. An element is
// four codes, at most 56 bits, on top of fewer than 8 pending, so one flush
// per element writes 8 bytes at the cursor and advances it at most 7. The
// caller's budget, len(src) ≤ (len(stream)-1)/7, therefore keeps every
// store inside stream, whatever src holds. The element's bytes are read
// from memory, least significant first, which is why the caller takes this
// loop on a little-endian host only. Its cursors are raw pointers, on
// fastPair's argument: the loop is bound by the instructions it issues, and
// a bounds check per flush, or a shift to take each byte out of the
// element, is a sixth of them.
func huffPackShort(stream []byte, src []float32, t *huffCodeTable, acc uint64, nbits uint) (uint64, uint, int) {
	out, in := unsafe.Pointer(&stream[0]), unsafe.Pointer(&src[0])
	for off, end := uintptr(0), 4*uintptr(len(src)); off < end; off += 4 {
		e := (*[4]byte)(unsafe.Add(in, off))
		s0, s1, s2, s3 := e[0], e[1], e[2], e[3]
		acc |= t.code[s0] >> (nbits & 63)
		nbits += uint(t.len[s0])
		acc |= t.code[s1] >> (nbits & 63)
		nbits += uint(t.len[s1])
		acc |= t.code[s2] >> (nbits & 63)
		nbits += uint(t.len[s2])
		acc |= t.code[s3] >> (nbits & 63)
		nbits += uint(t.len[s3])
		binary.BigEndian.PutUint64((*[8]byte)(out)[:], acc)
		out = unsafe.Add(out, nbits>>3)
		acc <<= nbits & 56
		nbits &= 7
	}
	return acc, nbits, offset(&stream[0], out)
}

func (c huffmanCodec) Decode(blob []byte) ([]float32, error) {
	n, payload, err := parseHeader(blob, Huffman)
	if err != nil {
		return nil, err
	}
	// Every code is at least one bit, so the 4n symbols of n elements need
	// the code table and ⌈n/2⌉ stream bytes. A payload shorter than that is
	// refused before n elements are allocated on the header's claim.
	if n > 0 && len(payload) < 256+(n+1)/2 {
		return nil, ErrTruncated
	}
	dst := make([]float32, n)
	if err := c.DecodeInto(dst, blob); err != nil {
		return nil, err
	}
	return dst, nil
}

func (huffmanCodec) DecodeInto(dst []float32, blob []byte) error {
	var s huffStream
	if err := s.open(dst, blob); err != nil || s.d == nil {
		return err
	}
	defer s.close()
	return s.finish()
}

// ---------------------------------------------------------------------------
// Code construction.

// huffBuilder holds the whole tree-construction workspace as fixed-size
// arrays, so building code lengths performs no heap allocation. Nodes are
// integer ids: leaves first, in symbol order, then internal nodes in
// creation order. The tree is built by the two-queue method. The leaves are
// sorted once by (freq, id); the internal nodes queue in creation order,
// which is already (freq, id) order, because each merge sums the two
// smallest nodes left, so merged sums never decrease, and ids only grow.
// Each merge therefore takes the smaller of the two queue heads, twice,
// where a tie in frequency goes to the leaf, whose id is the smaller. That
// is exactly the order in which a binary min-heap keyed on (freq, id) pops
// the same nodes, so the tree, and every code length, is the heap's:
// kernel_test.go keeps the heap construction as the reference the builder
// is held to. A parent's id is above its children's, so depths are assigned
// top down by walking the ids in reverse creation order.
type huffBuilder struct {
	nodeFreq [511]int64 // id → subtree frequency
	parent   [511]int16 // id → parent id
	depth    [511]byte  // id → depth below the root
	sym      [256]byte  // leaf id → byte symbol
	leaves   [256]int16 // leaf ids, sorted by (freq, id)
	spare    [256]int16 // the sort's other buffer
}

// build computes code lengths for freq into lengths and returns the
// maximum depth (0 when freq is empty). Absent symbols keep length 0.
func (b *huffBuilder) build(freq *[256]int64, lengths *[256]byte) int {
	n := 0
	var maxFreq int64
	for s, f := range freq {
		if f > 0 {
			b.nodeFreq[n] = f
			b.sym[n] = byte(s)
			b.leaves[n] = int16(n)
			maxFreq = max(maxFreq, f)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	if n == 1 {
		lengths[b.sym[0]] = 1
		return 1
	}
	leaves := b.sortLeaves(n, maxFreq)
	// The leaf queue is leaves[li:], the internal queue the ids [in, next).
	li, in := 0, n
	for next := n; next < 2*n-1; next++ {
		var pair [2]int
		for k := range pair {
			if li < n && (in == next || b.nodeFreq[leaves[li]] <= b.nodeFreq[in]) {
				pair[k] = int(leaves[li])
				li++
			} else {
				pair[k] = in
				in++
			}
		}
		b.nodeFreq[next] = b.nodeFreq[pair[0]] + b.nodeFreq[pair[1]]
		b.parent[pair[0]], b.parent[pair[1]] = int16(next), int16(next)
	}
	root := 2*n - 2
	b.depth[root] = 0
	for id := root - 1; id >= 0; id-- {
		b.depth[id] = b.depth[b.parent[id]] + 1
	}
	maxDepth := 0
	for i, d := range b.depth[:n] {
		maxDepth = max(maxDepth, int(d))
		lengths[b.sym[i]] = d
	}
	return maxDepth
}

// sortLeaves returns the n leaf ids, which start in id order, sorted by
// (freq, id): a least-significant-digit radix sort on the frequencies, a
// byte per pass for as many bytes as maxFreq has. Each pass is stable, so
// leaves of equal frequency keep their id order.
func (b *huffBuilder) sortLeaves(n int, maxFreq int64) []int16 {
	from, to := b.leaves[:n], b.spare[:n]
	for shift := uint(0); maxFreq>>shift != 0; shift += 8 {
		var start [257]int16
		for _, id := range from {
			start[1+b.nodeFreq[id]>>shift&0xff]++
		}
		for d := 1; d < len(start); d++ {
			start[d] += start[d-1]
		}
		for _, id := range from {
			d := b.nodeFreq[id] >> shift & 0xff
			to[start[d]] = id
			start[d]++
		}
		from, to = to, from
	}
	return from
}

// huffmanCodeLengths returns the per-symbol code lengths for the frequency
// table (0 for absent symbols). A single-symbol input gets length 1.
//
// Lengths are limited to huffMaxCodeLen: an extremely skewed table (e.g.
// Fibonacci-distributed frequencies) can push the optimal tree past the
// decoder's 56-bit accumulator, so when that happens the frequencies are
// dampened (halved, floored at 1) and the tree rebuilt until it fits.
// Dampening preserves a true Huffman tree over the adjusted frequencies,
// so the code stays prefix-free with Kraft sum exactly 1 — it converges
// because equal frequencies yield depth ⌈log2 256⌉ = 8.
func huffmanCodeLengths(freq []int64) [256]byte {
	var lengths [256]byte
	var f [256]int64
	copy(f[:], freq)
	for {
		var b huffBuilder
		if b.build(&f, &lengths) <= huffMaxCodeLen {
			return lengths
		}
		for i := range f {
			if f[i] > 0 {
				f[i] = f[i]>>1 | 1
			}
		}
	}
}

type huffCode struct {
	code uint64
	len  byte
}

// canonicalCodes assigns canonical codes (ordered by length, then symbol)
// via per-length counting — no sorting, no allocation: the first code of
// each length is derived from the code-length histogram (the classic
// bl_count recurrence) and symbols claim codes of their length in symbol
// order, which is exactly canonical order.
func canonicalCodes(lengths [256]byte) [256]huffCode {
	var count [huffMaxCodeLen + 2]int
	for _, ln := range lengths {
		if ln > 0 {
			count[ln]++
		}
	}
	var next [huffMaxCodeLen + 2]uint64
	code := uint64(0)
	for ln := 1; ln <= huffMaxCodeLen; ln++ {
		code = (code + uint64(count[ln-1])) << 1
		next[ln] = code
	}
	var codes [256]huffCode
	for sym, ln := range lengths {
		if ln == 0 {
			continue
		}
		codes[sym] = huffCode{code: next[ln], len: ln}
		next[ln]++
	}
	return codes
}

// ---------------------------------------------------------------------------
// Decoding.

// huffTableBits sizes the decoder's lookup table: one load decodes every
// whole code, up to three, inside the next huffTableBits stream bits. 11
// bits covers every code the encoder emits for typical tensor byte streams
// — and the four one- or two-bit codes of a zero float in two loads — while
// keeping the table at 8 KiB per decoder.
const huffTableBits = 11

// A table entry packs what its window decodes to:
//
//	bits 0–5   stream bits consumed (at most huffTableBits; 0 = no entry)
//	bits 6–7   symbols decoded, 1 to 3
//	bits 8–31  the symbols, first one lowest
//
// 0 marks a window that starts with a code longer than huffTableBits or
// with no code at all.
const (
	huffEntryCount = 6
	huffEntrySyms  = 8
)

// huffFillSlack is the number of slots fillEntries stores at a time, and so
// the slots the table carries past its last window.
const huffFillSlack = 4

// huffmanDecoder decodes canonical codes via the lookup table for short
// codes with per-length first-code/offset tables as the fallback for longer
// ones. It is a workspace: DecodeInto borrows one from huffDecoders, builds
// it for the blob's length table and returns it, so steady-state decoding
// allocates nothing and shares nothing.
type huffmanDecoder struct {
	maxLen    byte
	firstCode [huffMaxCodeLen + 2]uint64 // first canonical code of each length
	count     [huffMaxCodeLen + 2]int    // symbols per length
	offset    [huffMaxCodeLen + 2]int    // index of first symbol of each length
	nsyms     int
	symbols   [256]byte                                // canonical symbol order
	symLen    [256]byte                                // code length of symbols[i]
	table     [1<<huffTableBits + huffFillSlack]uint32 // the slack is fillEntries'
}

var huffDecoders = sync.Pool{New: func() interface{} { return new(huffmanDecoder) }}

// build resets the workspace to the decoder for the code-length table, or
// refuses the table.
func (d *huffmanDecoder) build(lengths *[256]byte) error {
	d.maxLen, d.nsyms = 0, 0
	d.count = [huffMaxCodeLen + 2]int{}
	for _, ln := range lengths {
		if ln == 0 {
			continue
		}
		if ln > huffMaxCodeLen {
			return fmt.Errorf("%w: code length %d", ErrCorrupt, ln)
		}
		if ln > d.maxLen {
			d.maxLen = ln
		}
		d.count[ln]++
		d.nsyms++
	}
	if d.nsyms == 0 {
		return fmt.Errorf("%w: empty code table", ErrCorrupt)
	}
	// Kraft check and canonical first codes.
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
		return fmt.Errorf("%w: over-subscribed code table", ErrCorrupt)
	}
	// Fill the canonical symbol list: walking symbols in ascending order
	// and appending each at its length's cursor IS (length, symbol) order.
	var fill [huffMaxCodeLen + 2]int
	copy(fill[:], d.offset[:])
	for sym, ln := range lengths {
		if ln != 0 {
			d.symbols[fill[ln]] = byte(sym)
			d.symLen[fill[ln]] = ln
			fill[ln]++
		}
	}

	// Canonical codes, left-aligned, tile the window space in canonical
	// order with no gap, and so do the codes that follow a code inside what
	// is left of its window. The table is therefore written front to back:
	// for each code a, for each code b fitting behind it, for each code c
	// fitting behind both, the windows "a b c…", then the rest of "a b…",
	// then the rest of "a…". The Kraft bound keeps every level inside its
	// parent's span.
	short := d.symLen[:fill[min(d.maxLen, huffTableBits)]]
	t := &d.table
	p := 0
	for ia, la := range short {
		ea := uint32(d.symbols[ia])<<huffEntrySyms | 1<<huffEntryCount | uint32(la)
		ka := huffTableBits - int(la)
		endA := p + 1<<(ka&15)
		for ib, lb := range short {
			kb := ka - int(lb)
			if kb < 0 {
				break
			}
			eb := ea + uint32(d.symbols[ib])<<(huffEntrySyms+8) + 1<<huffEntryCount + uint32(lb)
			endB := p + 1<<(kb&15)
			for ic, lc := range short {
				kc := kb - int(lc)
				if kc < 0 {
					break
				}
				ec := eb + uint32(d.symbols[ic])<<(huffEntrySyms+16) + 1<<huffEntryCount + uint32(lc)
				fillEntries(t, p, 1<<(kc&15), ec)
				p += 1 << (kc & 15)
			}
			fillEntries(t, p, endB-p, eb)
			p = endB
		}
		fillEntries(t, p, endA-p, ea)
		p = endA
	}
	fillEntries(t, p, 1<<huffTableBits-p, 0)
	return nil
}

// fillEntries sets t[p:p+n] to e and may set slots past them, up to
// huffFillSlack in all, which is why the table is written front to back and
// ends in slack: most spans are a slot or two, and storing a fixed four
// beats a loop whose trip count the branch predictor cannot learn. The long
// spans of short codes are finished by doubling.
func fillEntries(t *[1<<huffTableBits + huffFillSlack]uint32, p, n int, e uint32) {
	*(*[huffFillSlack]uint32)(t[p:]) = [huffFillSlack]uint32{e, e, e, e}
	if n > huffFillSlack {
		span := t[p : p+n]
		for done := huffFillSlack; done < n; done *= 2 {
			copy(span[done:], span[:done])
		}
	}
}

// huffStream is one blob's decode in progress. bits is left-aligned: its
// top n bits are the stream bits after the last consumed one, taken from
// data[:pos]; whatever lies below them is data[pos:] read ahead, which a
// later refill ORs in again unchanged. out is the destination's bytes in
// stream order — each element's four symbols, least significant first — of
// which the first o are decoded.
type huffStream struct {
	d         *huffmanDecoder
	data, out []byte
	bits      uint64
	n         uint
	pos, o    int
}

// open readies s to decode blob into dst with a decoder borrowed from
// huffDecoders, which the caller returns once s is done. It leaves s.d nil
// when there is nothing to decode: on an error, and for an empty tensor.
func (s *huffStream) open(dst []float32, blob []byte) error {
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
	d := huffDecoders.Get().(*huffmanDecoder)
	if err := d.build((*[256]byte)(payload)); err != nil {
		huffDecoders.Put(d)
		return err
	}
	*s = huffStream{d: d, data: payload[256:], out: FloatBytes(dst)}
	return nil
}

// close returns s's decoder to huffDecoders.
func (s *huffStream) close() {
	if s.d != nil {
		huffDecoders.Put(s.d)
	}
}

func (s *huffStream) done() bool { return s.o == len(s.out) }

// finish decodes what is left of s on its own — the table loop for as long
// as its budget lasts, then one checked step, and the table loop again —
// and gives the stream's verdict.
func (s *huffStream) finish() error {
	for {
		s.fast()
		if s.done() {
			break
		}
		if err := s.step(); err != nil {
			return err
		}
	}
	// Every stream byte must have been needed, and what is left of the last
	// one must be padding only.
	if s.pos-int(s.n>>3) != len(s.data) {
		return ErrCorrupt
	}
	if !hostLE {
		fixByteOrder(s.out)
	}
	return nil
}

// hostLE reports whether this host keeps a float32 in memory least
// significant byte first: the order a stream's symbols arrive in, and so
// the order the table loops write them.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// fixByteOrder turns b, a float32 slice's memory holding each element's
// little-endian layout, into the host's layout, word by word: a byte swap
// on a big-endian host, the identity on a little-endian one.
func fixByteOrder(b []byte) {
	for i := 0; i+4 <= len(b); i += 4 {
		binary.NativeEndian.PutUint32(b[i:], binary.LittleEndian.Uint32(b[i:]))
	}
}

// step is the checked step: a table window if the remaining stream covers
// it and its symbols stay inside out, the scalar decoder for one symbol
// otherwise. It takes every case the table loops leave, so its verdicts are
// the decoder's.
func (s *huffStream) step() error {
	for s.n < 56 && s.pos < len(s.data) {
		s.bits |= uint64(s.data[s.pos]) << (56 - s.n)
		s.pos++
		s.n += 8
	}
	e := s.d.table[s.bits>>(64-huffTableBits)]
	if ln := uint(e & 63); e != 0 && ln <= s.n && int(e>>huffEntryCount&3) <= len(s.out)-s.o {
		s.bits <<= ln
		s.n -= ln
	} else {
		sym, err := s.scalarSymbol()
		if err != nil {
			return err
		}
		e = uint32(sym)<<huffEntrySyms | 1<<huffEntryCount
	}
	for k := range e >> huffEntryCount & 3 {
		s.out[s.o] = byte(e >> (huffEntrySyms + 8*k))
		s.o++
	}
	return nil
}

// scalarSymbol decodes one symbol the way the decoder did before the table
// loop: hand back the whole bytes read ahead, then load one byte at a time
// until next finds a code. Its verdicts — truncated when the stream ends
// inside a code, corrupt when 56 bits match nothing — are therefore the
// scalar decoder's.
func (s *huffStream) scalarSymbol() (byte, error) {
	pos := s.pos - int(s.n>>3)
	nbits := s.n & 7
	acc := s.bits >> (64 - nbits)
	sym, consumed, ok := s.d.next(acc, nbits)
	for !ok {
		if pos >= len(s.data) {
			return 0, ErrTruncated
		}
		acc = acc<<8 | uint64(s.data[pos])
		nbits += 8
		pos++
		if nbits > 64-8 {
			return 0, fmt.Errorf("%w: oversized huffman code", ErrCorrupt)
		}
		sym, consumed, ok = s.d.next(acc, nbits)
	}
	nbits -= consumed
	s.bits, s.n, s.pos = acc<<(64-nbits), nbits, pos
	return sym, nil
}

// The table loops run a number of groups fixed on entry instead of testing
// bounds. A group is one refill and huffGroup lookups, and the budget
// argument is this:
//   - The refill is one 8-byte load at pos, after which pos advances by at
//     most 7 bytes. budget ≤ (len(data)-pos-1)/7 groups therefore keep every
//     load inside data.
//   - The refill brings n to at least 56 bits. That covers huffGroup windows
//     of huffTableBits, so a lookup never reads past the stream bits loaded.
//   - A lookup stores 4 bytes at o and advances o by its symbol count, at
//     most 3. A group's last store therefore ends at most 3·huffGroup+1 bytes
//     past the group's first o. budget ≤ (len(out)-o-1)/(3·huffGroup) groups
//     keep every store inside out, and every decoded symbol inside the
//     tensor, never in its padding.
//
// A store writes 4 bytes whatever the entry's symbol count; the bytes past
// its symbols are overwritten by the symbols decoded next. The loops test nothing but e == 0, a window the table
// does not hold (a code longer than huffTableBits, or a hole in an
// under-subscribed table). That window, the stream's last bytes and the
// tensor's last elements go to the checked step, and the loop runs again on
// a budget recomputed after it.
const huffGroup = 5

func (s *huffStream) budget() int {
	return min((len(s.data)-s.pos-1)/7, (len(s.out)-s.o-1)/(3*huffGroup))
}

// fast runs s's table loop for its budget. A lookup is a shift, a load and
// a shift on the bits → entry → bits chain, and one 4-byte store of the
// entry's symbols. The lookups are written out: a counted inner loop costs
// the chain a spilled register.
func (s *huffStream) fast() {
	t := &s.d.table
	data, out := s.data, s.out
	bits, n, pos, o := s.bits, s.n, s.pos, s.o
	for g := s.budget(); g > 0; g-- {
		bits |= binary.BigEndian.Uint64(data[pos:]) >> (n & 63)
		adv := (63 - n) >> 3
		pos += int(adv)
		n += adv << 3
		e := t[bits>>(64-huffTableBits)]
		if e == 0 {
			break
		}
		bits <<= e & 63
		n -= uint(e & 63)
		binary.LittleEndian.PutUint32(out[o:], e>>huffEntrySyms|e<<(32-huffEntrySyms))
		o += int(e >> huffEntryCount & 3)
		e = t[bits>>(64-huffTableBits)]
		if e == 0 {
			break
		}
		bits <<= e & 63
		n -= uint(e & 63)
		binary.LittleEndian.PutUint32(out[o:], e>>huffEntrySyms|e<<(32-huffEntrySyms))
		o += int(e >> huffEntryCount & 3)
		e = t[bits>>(64-huffTableBits)]
		if e == 0 {
			break
		}
		bits <<= e & 63
		n -= uint(e & 63)
		binary.LittleEndian.PutUint32(out[o:], e>>huffEntrySyms|e<<(32-huffEntrySyms))
		o += int(e >> huffEntryCount & 3)
		e = t[bits>>(64-huffTableBits)]
		if e == 0 {
			break
		}
		bits <<= e & 63
		n -= uint(e & 63)
		binary.LittleEndian.PutUint32(out[o:], e>>huffEntrySyms|e<<(32-huffEntrySyms))
		o += int(e >> huffEntryCount & 3)
		e = t[bits>>(64-huffTableBits)]
		if e == 0 {
			break
		}
		bits <<= e & 63
		n -= uint(e & 63)
		binary.LittleEndian.PutUint32(out[o:], e>>huffEntrySyms|e<<(32-huffEntrySyms))
		o += int(e >> huffEntryCount & 3)
	}
	s.bits, s.n, s.pos, s.o = bits, n, pos, o
}

// huffDecodePair decodes blobA into dstA and blobB into dstB, their two bit
// streams interleaved in one loop, and returns each one's verdict. A blob
// that fails to open leaves the other to decode alone.
func huffDecodePair(dstA []float32, blobA []byte, dstB []float32, blobB []byte) (errA, errB error) {
	var a, b huffStream
	errA, errB = a.open(dstA, blobA), b.open(dstB, blobB)
	defer a.close()
	defer b.close()
	switch {
	case a.d != nil && b.d != nil:
		return huffPair(&a, &b)
	case a.d != nil:
		errA = a.finish()
	case b.d != nil:
		errB = b.finish()
	}
	return errA, errB
}

// huffPair runs the paired table loop over a and b. When it stops — a
// budget spent, or a window a table does not hold — each stream takes a
// checked step and the loop runs again. Once one stream is done, or has
// failed, the other finishes alone.
func huffPair(a, b *huffStream) (errA, errB error) {
	for !a.done() && !b.done() {
		fastPair(a, b)
		if !a.done() {
			if errA = a.step(); errA != nil {
				break
			}
		}
		if !b.done() {
			if errB = b.step(); errB != nil {
				break
			}
		}
	}
	if errA == nil {
		errA = a.finish()
	}
	if errB == nil {
		errB = b.finish()
	}
	return errA, errB
}

// fastPair is fast over two streams at once, for the smaller of their two
// budgets: each group refills both and interleaves their lookups, so the
// two bits → entry → bits chains overlap. Its cursors are raw pointers, the
// one place outside the byte view that the package uses unsafe: two
// streams' slice bounds and indices do not fit the registers beside the
// chains. The budget argument above is what keeps them inside data and out,
// and under -race checkptr stops a pointer that leaves its allocation.
func fastPair(a, b *huffStream) {
	g := min(a.budget(), b.budget())
	if g <= 0 {
		return
	}
	tA, tB := &a.d.table, &b.d.table
	bitsA, nA, bitsB, nB := a.bits, a.n, b.bits, b.n
	pA, oA := unsafe.Pointer(&a.data[a.pos]), unsafe.Pointer(&a.out[a.o])
	pB, oB := unsafe.Pointer(&b.data[b.pos]), unsafe.Pointer(&b.out[b.o])
	for ; g > 0; g-- {
		bitsA |= binary.BigEndian.Uint64((*[8]byte)(pA)[:]) >> (nA & 63)
		advA := (63 - nA) >> 3
		pA = unsafe.Add(pA, advA)
		nA += advA << 3
		bitsB |= binary.BigEndian.Uint64((*[8]byte)(pB)[:]) >> (nB & 63)
		advB := (63 - nB) >> 3
		pB = unsafe.Add(pB, advB)
		nB += advB << 3
		eA := tA[bitsA>>(64-huffTableBits)]
		if eA == 0 {
			break
		}
		bitsA <<= eA & 63
		nA -= uint(eA & 63)
		binary.LittleEndian.PutUint32((*[4]byte)(oA)[:], eA>>huffEntrySyms|eA<<(32-huffEntrySyms))
		oA = unsafe.Add(oA, eA>>huffEntryCount&3)
		eB := tB[bitsB>>(64-huffTableBits)]
		if eB == 0 {
			break
		}
		bitsB <<= eB & 63
		nB -= uint(eB & 63)
		binary.LittleEndian.PutUint32((*[4]byte)(oB)[:], eB>>huffEntrySyms|eB<<(32-huffEntrySyms))
		oB = unsafe.Add(oB, eB>>huffEntryCount&3)
		eA = tA[bitsA>>(64-huffTableBits)]
		if eA == 0 {
			break
		}
		bitsA <<= eA & 63
		nA -= uint(eA & 63)
		binary.LittleEndian.PutUint32((*[4]byte)(oA)[:], eA>>huffEntrySyms|eA<<(32-huffEntrySyms))
		oA = unsafe.Add(oA, eA>>huffEntryCount&3)
		eB = tB[bitsB>>(64-huffTableBits)]
		if eB == 0 {
			break
		}
		bitsB <<= eB & 63
		nB -= uint(eB & 63)
		binary.LittleEndian.PutUint32((*[4]byte)(oB)[:], eB>>huffEntrySyms|eB<<(32-huffEntrySyms))
		oB = unsafe.Add(oB, eB>>huffEntryCount&3)
		eA = tA[bitsA>>(64-huffTableBits)]
		if eA == 0 {
			break
		}
		bitsA <<= eA & 63
		nA -= uint(eA & 63)
		binary.LittleEndian.PutUint32((*[4]byte)(oA)[:], eA>>huffEntrySyms|eA<<(32-huffEntrySyms))
		oA = unsafe.Add(oA, eA>>huffEntryCount&3)
		eB = tB[bitsB>>(64-huffTableBits)]
		if eB == 0 {
			break
		}
		bitsB <<= eB & 63
		nB -= uint(eB & 63)
		binary.LittleEndian.PutUint32((*[4]byte)(oB)[:], eB>>huffEntrySyms|eB<<(32-huffEntrySyms))
		oB = unsafe.Add(oB, eB>>huffEntryCount&3)
		eA = tA[bitsA>>(64-huffTableBits)]
		if eA == 0 {
			break
		}
		bitsA <<= eA & 63
		nA -= uint(eA & 63)
		binary.LittleEndian.PutUint32((*[4]byte)(oA)[:], eA>>huffEntrySyms|eA<<(32-huffEntrySyms))
		oA = unsafe.Add(oA, eA>>huffEntryCount&3)
		eB = tB[bitsB>>(64-huffTableBits)]
		if eB == 0 {
			break
		}
		bitsB <<= eB & 63
		nB -= uint(eB & 63)
		binary.LittleEndian.PutUint32((*[4]byte)(oB)[:], eB>>huffEntrySyms|eB<<(32-huffEntrySyms))
		oB = unsafe.Add(oB, eB>>huffEntryCount&3)
		eA = tA[bitsA>>(64-huffTableBits)]
		if eA == 0 {
			break
		}
		bitsA <<= eA & 63
		nA -= uint(eA & 63)
		binary.LittleEndian.PutUint32((*[4]byte)(oA)[:], eA>>huffEntrySyms|eA<<(32-huffEntrySyms))
		oA = unsafe.Add(oA, eA>>huffEntryCount&3)
		eB = tB[bitsB>>(64-huffTableBits)]
		if eB == 0 {
			break
		}
		bitsB <<= eB & 63
		nB -= uint(eB & 63)
		binary.LittleEndian.PutUint32((*[4]byte)(oB)[:], eB>>huffEntrySyms|eB<<(32-huffEntrySyms))
		oB = unsafe.Add(oB, eB>>huffEntryCount&3)
	}
	a.bits, a.n, a.pos, a.o = bitsA, nA, a.pos+offset(&a.data[a.pos], pA), a.o+offset(&a.out[a.o], oA)
	b.bits, b.n, b.pos, b.o = bitsB, nB, b.pos+offset(&b.data[b.pos], pB), b.o+offset(&b.out[b.o], oB)
}

// offset is how many bytes p lies past from.
func offset(from *byte, p unsafe.Pointer) int {
	return int(uintptr(p) - uintptr(unsafe.Pointer(from)))
}

// next attempts to decode one symbol from the top of the accumulator
// holding nbits valid bits. It reports the symbol, bits consumed, and
// whether a full code was available.
func (d *huffmanDecoder) next(acc uint64, nbits uint) (sym byte, consumed uint, ok bool) {
	for ln := uint(1); ln <= uint(d.maxLen) && ln <= nbits; ln++ {
		// Below the first code of its length the difference wraps.
		if rank := acc>>(nbits-ln) - d.firstCode[ln]; rank < uint64(d.count[ln]) {
			return d.symbols[d.offset[ln]+int(rank)], ln, true
		}
	}
	return 0, 0, false
}
