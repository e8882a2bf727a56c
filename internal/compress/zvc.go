package compress

import (
	"encoding/binary"
	"math"
)

// zvcCodec implements zero-value compression (Rhu et al., cDMA), the codec
// CSWAP favours under a PCIe bottleneck. The tensor is processed in groups
// of 32 consecutive floats; each group contributes a 32-bit occupancy bitmap
// (bit i set = element i non-zero) followed by the non-zero values packed in
// order. Index overhead is therefore a fixed 1/32 ≈ 3 % of the original
// size, versus 50 % for CSR at 50 % sparsity (Section IV-E).
//
// "Zero" is the all-zero bit pattern: −0 has a bit set, so it travels as a
// literal and restores bit for bit.
type zvcCodec struct{}

// zvcGroup is the element count one bitmap word covers; zvcGroupMax is the
// largest encoding of one group, its bitmap plus every value.
const (
	zvcGroup    = 32
	zvcGroupMax = 4 + 4*zvcGroup
)

func (zvcCodec) Algorithm() Algorithm { return ZVC }

// MaxEncodedLen bounds the blob at one bitmap word per group plus every
// element non-zero.
func (zvcCodec) MaxEncodedLen(n int) int {
	return headerSize + ((n+31)/32)*4 + n*4
}

func (c zvcCodec) Encode(src []float32) []byte {
	return c.AppendEncode(make([]byte, 0, c.MaxEncodedLen(len(src))), src)
}

// AppendEncode reserves the worst-case span once and then writes each group
// in a single pass with no data-dependent branch: every value is stored at
// the cursor, and the cursor only moves past it when the value is non-zero,
// so a zero is overwritten by whatever comes next. The full groups go
// through zvcEncodeGroups; the tail group takes a checked loop.
func (c zvcCodec) AppendEncode(dst []byte, src []float32) []byte {
	base := len(dst)
	need := c.MaxEncodedLen(len(src))
	if cap(dst)-base < need {
		grown := make([]byte, base, base+need)
		copy(grown, dst)
		dst = grown
	}
	out := dst[base : base+need]
	putHeader(out[:0], ZVC, len(src))
	full := len(src) &^ (zvcGroup - 1)
	pos := zvcEncodeGroups(out, headerSize, floatWords(src[:full]))
	if tail := src[full:]; len(tail) > 0 {
		var bitmap uint32
		k := pos + 4
		for i, v := range tail {
			b := math.Float32bits(v)
			binary.LittleEndian.PutUint32(out[k:], b)
			nz := (b | -b) >> 31 // 1 when any bit of b is set
			bitmap |= nz << uint(i)
			k += int(nz) * 4
		}
		binary.LittleEndian.PutUint32(out[pos:], bitmap)
		pos = k
	}
	return dst[:base+pos]
}

// zvcEncodeGroups encodes src, whole groups, into out from pos on, and
// returns where it stopped. A group is one straight-line block of 32
// zvcPut steps, each with its bitmap bit a constant, so there is no loop
// control and no serial shift through the bitmap between elements. Its
// stores are unchecked, on this budget: after i of a group's elements the
// cursor is at most 4+4i bytes past the group's start, so element i's store
// ends at most 4+4(i+1) past it, and every store of the group, its bitmap's
// included, lands inside the group's worst-case encoding, zvcGroupMax bytes
// from where it starts. The caller's out holds MaxEncodedLen bytes, that
// worst case for every group, so every store is inside out whatever src
// holds.
func zvcEncodeGroups(out []byte, pos int, src []uint32) int {
	o := rawOf(out) // out holds the header at least
	for ; len(src) > 0; src = src[zvcGroup:] {
		g := (*[zvcGroup]uint32)(src)
		var bitmap uint32
		k := pos + 4
		k, bitmap = zvcPut(o, k, bitmap, g[0], 0)
		k, bitmap = zvcPut(o, k, bitmap, g[1], 1)
		k, bitmap = zvcPut(o, k, bitmap, g[2], 2)
		k, bitmap = zvcPut(o, k, bitmap, g[3], 3)
		k, bitmap = zvcPut(o, k, bitmap, g[4], 4)
		k, bitmap = zvcPut(o, k, bitmap, g[5], 5)
		k, bitmap = zvcPut(o, k, bitmap, g[6], 6)
		k, bitmap = zvcPut(o, k, bitmap, g[7], 7)
		k, bitmap = zvcPut(o, k, bitmap, g[8], 8)
		k, bitmap = zvcPut(o, k, bitmap, g[9], 9)
		k, bitmap = zvcPut(o, k, bitmap, g[10], 10)
		k, bitmap = zvcPut(o, k, bitmap, g[11], 11)
		k, bitmap = zvcPut(o, k, bitmap, g[12], 12)
		k, bitmap = zvcPut(o, k, bitmap, g[13], 13)
		k, bitmap = zvcPut(o, k, bitmap, g[14], 14)
		k, bitmap = zvcPut(o, k, bitmap, g[15], 15)
		k, bitmap = zvcPut(o, k, bitmap, g[16], 16)
		k, bitmap = zvcPut(o, k, bitmap, g[17], 17)
		k, bitmap = zvcPut(o, k, bitmap, g[18], 18)
		k, bitmap = zvcPut(o, k, bitmap, g[19], 19)
		k, bitmap = zvcPut(o, k, bitmap, g[20], 20)
		k, bitmap = zvcPut(o, k, bitmap, g[21], 21)
		k, bitmap = zvcPut(o, k, bitmap, g[22], 22)
		k, bitmap = zvcPut(o, k, bitmap, g[23], 23)
		k, bitmap = zvcPut(o, k, bitmap, g[24], 24)
		k, bitmap = zvcPut(o, k, bitmap, g[25], 25)
		k, bitmap = zvcPut(o, k, bitmap, g[26], 26)
		k, bitmap = zvcPut(o, k, bitmap, g[27], 27)
		k, bitmap = zvcPut(o, k, bitmap, g[28], 28)
		k, bitmap = zvcPut(o, k, bitmap, g[29], 29)
		k, bitmap = zvcPut(o, k, bitmap, g[30], 30)
		k, bitmap = zvcPut(o, k, bitmap, g[31], 31)
		o.store32(pos, bitmap)
		pos = k
	}
	return pos
}

// zvcPut is element i of a group: it stores b at the cursor k and returns
// the cursor, moved past b only when b has any bit set, so a zero is
// overwritten by whatever comes next, and the bitmap with bit i set then.
func zvcPut(o rawBytes, k int, bitmap, b uint32, i uint) (int, uint32) {
	o.store32(k, b)
	nz := (b | -b) >> 31 // 1 when any bit of b is set
	return k + int(nz)*4, bitmap | nz<<i
}

func (c zvcCodec) Decode(blob []byte) ([]float32, error) {
	n, payload, err := parseHeader(blob, ZVC)
	if err != nil {
		return nil, err
	}
	// Every group costs at least its bitmap word. A payload shorter than
	// that is refused before n elements are allocated on the header's claim.
	if len(payload)/4 < (n+zvcGroup-1)/zvcGroup {
		return nil, ErrTruncated
	}
	dst := make([]float32, n)
	if err := c.DecodeInto(dst, blob); err != nil {
		return nil, err
	}
	return dst, nil
}

func (zvcCodec) DecodeInto(dst []float32, blob []byte) error {
	n, payload, err := parseHeader(blob, ZVC)
	if err != nil {
		return err
	}
	if err := checkDst(dst, n); err != nil {
		return err
	}
	pos, done := zvcDecodeGroups(floatWords(dst), payload)
	// Checked loop: the groups the budget leaves, where the payload may end
	// mid-group, and the tail group.
	for done < n {
		if pos+4 > len(payload) {
			return ErrTruncated
		}
		bitmap := binary.LittleEndian.Uint32(payload[pos:])
		pos += 4
		end := done + zvcGroup
		if end > n {
			end = n
			// Bits beyond the tail must be clear.
			if bitmap>>uint(end-done) != 0 {
				return ErrCorrupt
			}
		}
		for i := done; i < end; i++ {
			if bitmap&(1<<uint(i-done)) != 0 {
				if pos+4 > len(payload) {
					return ErrTruncated
				}
				dst[i] = readFloat32(payload[pos:])
				pos += 4
			} else {
				dst[i] = 0
			}
		}
		done = end
	}
	if pos != len(payload) {
		return ErrCorrupt
	}
	return nil
}

// zvcDecodeGroups decodes whole groups of payload into dst from the start
// for as long as its budget lasts, and returns how far it read and wrote; the
// checked loop takes the rest. A group reads its bitmap and then, in one
// straight-line block, one 4-byte value at the cursor per element, kept or
// masked to zero by its bitmap bit, a constant shift, and advances the
// cursor by that bit. Zeros are written explicitly either way: dst may be a
// dirty recycled buffer. The reads are unchecked, on this budget: after i
// elements the cursor is at most 4+4i bytes past the group's start, so every
// read of a group lies inside its worst-case encoding, zvcGroupMax bytes
// from where it starts, and the group advances pos by at most that much.
// g ≤ (len(payload)-pos)/zvcGroupMax groups therefore keep every read inside
// payload whatever the bitmaps say, and g ≤ (len(dst)-done)/zvcGroup every
// write inside dst, so nothing is tested and nothing branches on the data.
// A group usually takes less than its worst case, so the budget is
// recomputed until it runs out. The steps are written out rather than
// calls to a per-element helper, which measured half as fast here.
func zvcDecodeGroups(dst []uint32, payload []byte) (pos, done int) {
	for {
		g := min((len(dst)-done)/zvcGroup, (len(payload)-pos)/zvcGroupMax)
		if g <= 0 {
			return pos, done
		}
		p := rawOf(payload)
		for ; g > 0; g-- {
			bitmap := p.load32(pos)
			pos += 4
			group := (*[zvcGroup]uint32)(dst[done:])
			group[0] = p.load32(pos) & -(bitmap & 1)
			pos += int(bitmap&1) * 4
			group[1] = p.load32(pos) & -(bitmap >> 1 & 1)
			pos += int(bitmap>>1&1) * 4
			group[2] = p.load32(pos) & -(bitmap >> 2 & 1)
			pos += int(bitmap>>2&1) * 4
			group[3] = p.load32(pos) & -(bitmap >> 3 & 1)
			pos += int(bitmap>>3&1) * 4
			group[4] = p.load32(pos) & -(bitmap >> 4 & 1)
			pos += int(bitmap>>4&1) * 4
			group[5] = p.load32(pos) & -(bitmap >> 5 & 1)
			pos += int(bitmap>>5&1) * 4
			group[6] = p.load32(pos) & -(bitmap >> 6 & 1)
			pos += int(bitmap>>6&1) * 4
			group[7] = p.load32(pos) & -(bitmap >> 7 & 1)
			pos += int(bitmap>>7&1) * 4
			group[8] = p.load32(pos) & -(bitmap >> 8 & 1)
			pos += int(bitmap>>8&1) * 4
			group[9] = p.load32(pos) & -(bitmap >> 9 & 1)
			pos += int(bitmap>>9&1) * 4
			group[10] = p.load32(pos) & -(bitmap >> 10 & 1)
			pos += int(bitmap>>10&1) * 4
			group[11] = p.load32(pos) & -(bitmap >> 11 & 1)
			pos += int(bitmap>>11&1) * 4
			group[12] = p.load32(pos) & -(bitmap >> 12 & 1)
			pos += int(bitmap>>12&1) * 4
			group[13] = p.load32(pos) & -(bitmap >> 13 & 1)
			pos += int(bitmap>>13&1) * 4
			group[14] = p.load32(pos) & -(bitmap >> 14 & 1)
			pos += int(bitmap>>14&1) * 4
			group[15] = p.load32(pos) & -(bitmap >> 15 & 1)
			pos += int(bitmap>>15&1) * 4
			group[16] = p.load32(pos) & -(bitmap >> 16 & 1)
			pos += int(bitmap>>16&1) * 4
			group[17] = p.load32(pos) & -(bitmap >> 17 & 1)
			pos += int(bitmap>>17&1) * 4
			group[18] = p.load32(pos) & -(bitmap >> 18 & 1)
			pos += int(bitmap>>18&1) * 4
			group[19] = p.load32(pos) & -(bitmap >> 19 & 1)
			pos += int(bitmap>>19&1) * 4
			group[20] = p.load32(pos) & -(bitmap >> 20 & 1)
			pos += int(bitmap>>20&1) * 4
			group[21] = p.load32(pos) & -(bitmap >> 21 & 1)
			pos += int(bitmap>>21&1) * 4
			group[22] = p.load32(pos) & -(bitmap >> 22 & 1)
			pos += int(bitmap>>22&1) * 4
			group[23] = p.load32(pos) & -(bitmap >> 23 & 1)
			pos += int(bitmap>>23&1) * 4
			group[24] = p.load32(pos) & -(bitmap >> 24 & 1)
			pos += int(bitmap>>24&1) * 4
			group[25] = p.load32(pos) & -(bitmap >> 25 & 1)
			pos += int(bitmap>>25&1) * 4
			group[26] = p.load32(pos) & -(bitmap >> 26 & 1)
			pos += int(bitmap>>26&1) * 4
			group[27] = p.load32(pos) & -(bitmap >> 27 & 1)
			pos += int(bitmap>>27&1) * 4
			group[28] = p.load32(pos) & -(bitmap >> 28 & 1)
			pos += int(bitmap>>28&1) * 4
			group[29] = p.load32(pos) & -(bitmap >> 29 & 1)
			pos += int(bitmap>>29&1) * 4
			group[30] = p.load32(pos) & -(bitmap >> 30 & 1)
			pos += int(bitmap>>30&1) * 4
			group[31] = p.load32(pos) & -(bitmap >> 31 & 1)
			pos += int(bitmap>>31&1) * 4
			done += zvcGroup
		}
	}
}
