package compress

import (
	"encoding/binary"
	"fmt"
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

// MaxEncodedLen bounds the blob via Huffman optimality: the built code
// minimises total bits over all prefix codes, including the fixed 8-bit
// code, so the packed stream never exceeds the 4·n raw bytes (+1 for bit
// padding) after the 256-byte length table.
func (huffmanCodec) MaxEncodedLen(n int) int {
	if n == 0 {
		return headerSize
	}
	return headerSize + 256 + 4*n + 1
}

func (c huffmanCodec) Encode(src []float32) []byte {
	blob := make([]byte, 0, headerSize+256+len(src)*4)
	return c.AppendEncode(blob, src)
}

func (huffmanCodec) AppendEncode(dst []byte, src []float32) []byte {
	dst = putHeader(dst, Huffman, len(src))
	if len(src) == 0 {
		return dst
	}
	p := getScratch(len(src) * 4)
	defer putScratch(p)
	raw := *p
	for i, v := range src {
		binary.LittleEndian.PutUint32(raw[i*4:], float32bits(v))
	}

	var freq [256]int64
	for _, b := range raw {
		freq[b]++
	}
	lengths := huffmanCodeLengths(freq[:])
	codes := canonicalCodes(lengths)
	dst = append(dst, lengths[:]...)

	// Bit-pack MSB-first. nbits stays below 8 between symbols and every
	// code is at most huffMaxCodeLen bits, so the accumulator never
	// overflows its 64 bits.
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
	var lengths [256]byte
	copy(lengths[:], payload[:256])
	data := payload[256:]

	dec, err := cachedHuffmanDecoder(lengths)
	if err != nil {
		return err
	}
	// Stage through pooled raw bytes; every byte is written on success.
	p := getScratch(n * 4)
	defer putScratch(p)
	raw := *p
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
	// Remaining bits must be padding only.
	if pos != len(data) || nbits >= 8 {
		return ErrCorrupt
	}
	for i := range dst {
		dst[i] = readFloat32(raw[i*4:])
	}
	return nil
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

// huffTableBits sizes the decoder's primary lookup table: any code of at
// most this many bits decodes with a single table load instead of the
// per-length scan. 11 bits covers every code the encoder emits for typical
// tensor byte streams while keeping the table at 4 KiB per decoder.
const huffTableBits = 11

// huffmanDecoder decodes canonical codes via a primary lookup table for
// short codes with per-length first-code/offset tables as the fallback for
// longer ones. Decoders are immutable after construction and shared
// concurrently through the package-level cache.
type huffmanDecoder struct {
	maxLen    byte
	firstCode [huffMaxCodeLen + 2]uint64 // first canonical code of each length
	count     [huffMaxCodeLen + 2]int    // symbols per length
	offset    [huffMaxCodeLen + 2]int    // index of first symbol of each length
	nsyms     int
	symbols   [256]byte                  // canonical symbol order
	table     [1 << huffTableBits]uint16 // len<<8 | symbol; 0 = no code ≤ huffTableBits bits
}

// huffDecCacheMax bounds the decoder cache. Parallel-container blobs carry
// one code table per chunk, so steady-state working sets reach hundreds of
// distinct tables; adversarial inputs could mint unlimited ones, hence the
// clear-on-full eviction (each decoder is ~5 KiB).
const huffDecCacheMax = 1024

var huffDecCache = struct {
	sync.Mutex
	m map[[256]byte]*huffmanDecoder
}{m: make(map[[256]byte]*huffmanDecoder)}

// cachedHuffmanDecoder returns a shared decoder for the code-length table,
// building and memoising it on first sight. Invalid tables are not cached:
// rejecting them is already cheap and caching errors would let adversarial
// blobs fill the map with garbage.
func cachedHuffmanDecoder(lengths [256]byte) (*huffmanDecoder, error) {
	huffDecCache.Lock()
	d := huffDecCache.m[lengths]
	huffDecCache.Unlock()
	if d != nil {
		return d, nil
	}
	d, err := newHuffmanDecoder(lengths)
	if err != nil {
		return nil, err
	}
	huffDecCache.Lock()
	if len(huffDecCache.m) >= huffDecCacheMax {
		huffDecCache.m = make(map[[256]byte]*huffmanDecoder, huffDecCacheMax)
	}
	huffDecCache.m[lengths] = d
	huffDecCache.Unlock()
	return d, nil
}

func newHuffmanDecoder(lengths [256]byte) (*huffmanDecoder, error) {
	d := &huffmanDecoder{}
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
		return nil, fmt.Errorf("%w: over-subscribed code table", ErrCorrupt)
	}
	// Fill the canonical symbol list: walking symbols in ascending order
	// and appending each at its length's cursor IS (length, symbol) order.
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
			// Every huffTableBits-bit window starting with this code maps
			// to it; the Kraft bound keeps base+span within the table.
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

// next attempts to decode one symbol from the top of the accumulator
// holding nbits valid bits. It reports the symbol, bits consumed, and
// whether a full code was available. Short codes resolve through the
// primary table; only codes longer than huffTableBits fall back to the
// per-length scan.
func (d *huffmanDecoder) next(acc uint64, nbits uint) (sym byte, consumed uint, ok bool) {
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
			// The window's owning code needs more bits than we hold, and
			// any shorter code would own the window instead: no match yet.
			return 0, 0, false
		}
		if nbits <= huffTableBits {
			// All codes of ≤ nbits bits live in the table; a zero entry
			// means nothing this short matches.
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
