package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
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
	codes := canonicalCodes(lengths)
	// code<<8 | len: one load per symbol in the packing loops.
	var packed [256]uint64
	var streamBits int64
	var maxLen byte
	for s, c := range codes {
		packed[s] = c.code<<8 | uint64(c.len)
		streamBits += freq[s] * int64(c.len)
		maxLen = max(maxLen, c.len)
	}

	base := len(dst)
	size := headerSize + 256 + int((streamBits+7)/8)
	if cap(dst)-base < size+huffSlack {
		grown := make([]byte, base, base+size+huffSlack)
		copy(grown, dst)
		dst = grown
	}
	out := dst[base : base+size+huffSlack]
	putHeader(out[:0], Huffman, len(src))
	copy(out[headerSize:], lengths[:])
	huffPack(out[headerSize+256:], src, &packed, maxLen)
	return dst[:base+size]
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

// huffPack packs src into stream under the packed codes, whose longest is
// maxLen bits. Codes collect right-aligned in a 64-bit accumulator that
// holds nbits < 8 pending bits in its low end between flushes; whatever
// lies above them is shifted out by the next flush. A flush is one
// big-endian 8-byte store of which only the whole bytes are kept, so stream
// needs huffSlack bytes past its last one; the final flush leaves the last
// partial byte zero-padded. The accumulator takes 56 bits on top of the
// pending ones, so an element is flushed once when four codes fit that,
// after every second symbol when two do, and after every symbol otherwise:
// the same loop, the two tests in it fixed for the call. A packed entry
// serves as its own shift count, its length being its low six bits.
func huffPack(stream []byte, src []float32, packed *[256]uint64, maxLen byte) {
	flush2, flush1 := maxLen > 56/4, maxLen > 56/2
	var acc uint64
	var nbits uint
	pos := 0
	for _, v := range src {
		b := math.Float32bits(v)
		e0, e1, e2, e3 := packed[b&0xff], packed[b>>8&0xff], packed[b>>16&0xff], packed[b>>24]
		acc = acc<<(e0&63) | e0>>8
		nbits += uint(e0 & 63)
		if flush1 {
			binary.BigEndian.PutUint64(stream[pos:pos+8], acc<<(-nbits&63))
			pos += int(nbits >> 3)
			nbits &= 7
		}
		acc = acc<<(e1&63) | e1>>8
		nbits += uint(e1 & 63)
		if flush2 {
			binary.BigEndian.PutUint64(stream[pos:pos+8], acc<<(-nbits&63))
			pos += int(nbits >> 3)
			nbits &= 7
		}
		acc = acc<<(e2&63) | e2>>8
		nbits += uint(e2 & 63)
		if flush1 {
			binary.BigEndian.PutUint64(stream[pos:pos+8], acc<<(-nbits&63))
			pos += int(nbits >> 3)
			nbits &= 7
		}
		acc = acc<<(e3&63) | e3>>8
		nbits += uint(e3 & 63)
		binary.BigEndian.PutUint64(stream[pos:pos+8], acc<<(-nbits&63))
		pos += int(nbits >> 3)
		nbits &= 7
	}
}

func (c huffmanCodec) Decode(blob []byte) ([]float32, error) {
	n, _, err := parseHeader(blob, Huffman)
	if err != nil {
		return nil, err
	}
	dst := make([]float32, n)
	if err := c.DecodeInto(dst, blob); err != nil {
		return nil, err
	}
	return dst, nil
}

func (huffmanCodec) DecodeInto(dst []float32, blob []byte) error {
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
	defer huffDecoders.Put(d)
	if err := d.build((*[256]byte)(payload)); err != nil {
		return err
	}
	return d.decode(dst, payload[256:])
}

// ---------------------------------------------------------------------------
// Code construction.

// huffBuilder holds the whole tree-construction workspace as fixed-size
// arrays so building code lengths performs no per-node heap allocations:
// nodes are integer ids (leaves first, in symbol order, then internals in
// creation order) with a binary min-heap of ids keyed on (freq, id). The
// (freq, id) key is a total order, so the pop sequence — and therefore the
// emitted code lengths — is byte-identical to the previous
// container/heap-of-pointers construction.
type huffBuilder struct {
	nodeFreq [511]int64 // id → subtree frequency
	parent   [511]int16 // id → parent id (root: -1)
	sym      [256]int16 // leaf id → byte symbol
	heap     [256]int16 // live node ids, min-heap order
	size     int
}

func (b *huffBuilder) less(i, j int) bool {
	x, y := b.heap[i], b.heap[j]
	if b.nodeFreq[x] != b.nodeFreq[y] {
		return b.nodeFreq[x] < b.nodeFreq[y]
	}
	return x < y
}

func (b *huffBuilder) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= b.size {
			return
		}
		m := l
		if r := l + 1; r < b.size && b.less(r, l) {
			m = r
		}
		if !b.less(m, i) {
			return
		}
		b.heap[i], b.heap[m] = b.heap[m], b.heap[i]
		i = m
	}
}

func (b *huffBuilder) pop() int16 {
	top := b.heap[0]
	b.size--
	b.heap[0] = b.heap[b.size]
	b.siftDown(0)
	return top
}

func (b *huffBuilder) push(id int16) {
	i := b.size
	b.heap[i] = id
	b.size++
	for i > 0 {
		p := (i - 1) / 2
		if !b.less(i, p) {
			break
		}
		b.heap[i], b.heap[p] = b.heap[p], b.heap[i]
		i = p
	}
}

// build computes code lengths for freq into lengths and returns the
// maximum depth (0 when freq is empty). Absent symbols keep length 0.
func (b *huffBuilder) build(freq *[256]int64, lengths *[256]byte) int {
	n := 0
	for s, f := range freq {
		if f > 0 {
			b.nodeFreq[n] = f
			b.sym[n] = int16(s)
			b.heap[n] = int16(n)
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
	b.size = n
	for i := n/2 - 1; i >= 0; i-- {
		b.siftDown(i)
	}
	next := int16(n)
	for b.size > 1 {
		x := b.pop()
		y := b.pop()
		b.nodeFreq[next] = b.nodeFreq[x] + b.nodeFreq[y]
		b.parent[x] = next
		b.parent[y] = next
		b.push(next)
		next++
	}
	root := b.heap[0]
	b.parent[root] = -1
	maxDepth := 0
	for i := 0; i < n; i++ {
		d := 0
		for p := int16(i); b.parent[p] >= 0; p = b.parent[p] {
			d++
		}
		if d > maxDepth {
			maxDepth = d
		}
		lengths[b.sym[i]] = byte(d)
	}
	return maxDepth
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

// huffCursor is a decode in progress. bits is left-aligned: its top n bits
// are the stream bits after the last consumed one, taken from data[:pos];
// whatever lies below them is data[pos:] read ahead, which a later refill
// ORs in again unchanged. out holds the cnt < 4 symbols decoded for dst[i]
// so far, first one lowest.
type huffCursor struct {
	bits, out uint64
	n, cnt    uint
	pos, i    int
}

// decode restores dst from the bit stream: the unchecked table loop for as
// long as it can run, then one checked step — a table window if the stream
// still covers it and it stays inside the last element, the scalar decoder
// for one symbol otherwise — and the table loop again.
func (d *huffmanDecoder) decode(dst []float32, data []byte) error {
	var c huffCursor
	for {
		d.decodeFast(dst, data, &c)
		rem := uint(len(dst)-c.i)*4 - c.cnt
		if rem == 0 {
			break
		}
		for c.n < 56 && c.pos < len(data) {
			c.bits |= uint64(data[c.pos]) << (56 - c.n)
			c.pos++
			c.n += 8
		}
		e := d.table[c.bits>>(64-huffTableBits)]
		if ln := uint(e & 63); e != 0 && ln <= c.n && uint(e>>huffEntryCount&3) <= rem {
			c.bits <<= ln
			c.n -= ln
		} else {
			sym, err := d.scalarSymbol(data, &c)
			if err != nil {
				return err
			}
			e = uint32(sym)<<huffEntrySyms | 1<<huffEntryCount
		}
		c.out |= uint64(e>>huffEntrySyms) << (8 * c.cnt)
		if c.cnt += uint(e >> huffEntryCount & 3); c.cnt >= 4 {
			dst[c.i] = math.Float32frombits(uint32(c.out))
			c.i, c.out, c.cnt = c.i+1, c.out>>32, c.cnt-4
		}
	}
	// Every stream byte must have been needed, and what is left of the last
	// one must be padding only.
	if c.pos-int(c.n>>3) != len(data) {
		return ErrCorrupt
	}
	return nil
}

// decodeFast advances c through the table for as long as nothing needs
// checking: one 8-byte load brings n to at least 56, enough for four table
// windows, and each lookup yields up to three symbols, stores the low word
// of out to dst[i] and moves on once that was a whole element. It returns
// in front of a window the table does not hold, with fewer than 8 stream
// bytes left to load, or with fewer than 4 elements to go — four lookups
// can finish three, and must not run past the last one into the padding.
func (d *huffmanDecoder) decodeFast(dst []float32, data []byte, c *huffCursor) {
	bits, out, n, cnt, pos, i := c.bits, c.out, c.n, c.cnt, c.pos, c.i
	j := 0
	for ; len(dst)-i >= 4 && len(data)-pos >= 8; i, j = i+j, 0 {
		bits |= binary.BigEndian.Uint64(data[pos:]) >> (n & 63)
		adv := (63 - n) >> 3
		pos += int(adv)
		n += adv << 3
		w := (*[4]float32)(dst[i:])
		// The lookup step, four times over: a counted inner loop costs the
		// bits → entry → bits chain a spilled register.
		e := d.table[bits>>(64-huffTableBits)]
		if e == 0 {
			break
		}
		bits <<= e & 63
		n -= uint(e & 63)
		out |= uint64(e>>huffEntrySyms) << (8 * cnt & 63)
		cnt += uint(e >> huffEntryCount & 3)
		w[j&3] = math.Float32frombits(uint32(out))
		if cnt >= 4 {
			out >>= 32
			j++
		}
		cnt &= 3
		e = d.table[bits>>(64-huffTableBits)]
		if e == 0 {
			break
		}
		bits <<= e & 63
		n -= uint(e & 63)
		out |= uint64(e>>huffEntrySyms) << (8 * cnt & 63)
		cnt += uint(e >> huffEntryCount & 3)
		w[j&3] = math.Float32frombits(uint32(out))
		if cnt >= 4 {
			out >>= 32
			j++
		}
		cnt &= 3
		e = d.table[bits>>(64-huffTableBits)]
		if e == 0 {
			break
		}
		bits <<= e & 63
		n -= uint(e & 63)
		out |= uint64(e>>huffEntrySyms) << (8 * cnt & 63)
		cnt += uint(e >> huffEntryCount & 3)
		w[j&3] = math.Float32frombits(uint32(out))
		if cnt >= 4 {
			out >>= 32
			j++
		}
		cnt &= 3
		e = d.table[bits>>(64-huffTableBits)]
		if e == 0 {
			break
		}
		bits <<= e & 63
		n -= uint(e & 63)
		out |= uint64(e>>huffEntrySyms) << (8 * cnt & 63)
		cnt += uint(e >> huffEntryCount & 3)
		w[j&3] = math.Float32frombits(uint32(out))
		if cnt >= 4 {
			out >>= 32
			j++
		}
		cnt &= 3
	}
	c.bits, c.out, c.n, c.cnt, c.pos, c.i = bits, out, n, cnt, pos, i+j
}

// scalarSymbol decodes one symbol the way the decoder did before the table
// loop: hand back the whole bytes read ahead, then load one byte at a time
// until next finds a code. Its verdicts — truncated when the stream ends
// inside a code, corrupt when 56 bits match nothing — are therefore the
// scalar decoder's.
func (d *huffmanDecoder) scalarSymbol(data []byte, c *huffCursor) (byte, error) {
	pos := c.pos - int(c.n>>3)
	nbits := c.n & 7
	acc := c.bits >> (64 - nbits)
	sym, consumed, ok := d.next(acc, nbits)
	for !ok {
		if pos >= len(data) {
			return 0, ErrTruncated
		}
		acc = acc<<8 | uint64(data[pos])
		nbits += 8
		pos++
		if nbits > 64-8 {
			return 0, fmt.Errorf("%w: oversized huffman code", ErrCorrupt)
		}
		sym, consumed, ok = d.next(acc, nbits)
	}
	nbits -= consumed
	c.bits, c.n, c.pos = acc<<(64-nbits), nbits, pos
	return sym, nil
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
