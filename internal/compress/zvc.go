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
// returns where it stopped. Its stores are unchecked, on this budget: after
// i of a group's elements the cursor is at most 4+4i bytes past the group's
// start, so element i's store ends at most 4+4(i+1) past it, and every store
// of the group, its bitmap's included, lands inside the group's worst-case
// encoding, zvcGroupMax bytes from where it starts. The caller's out holds
// MaxEncodedLen bytes, that worst case for every group, so every store is
// inside out whatever src holds. The bitmap fills from the top, one shift
// per element, and the group's first element ends at bit 0.
func zvcEncodeGroups(out []byte, pos int, src []uint32) int {
	o := rawOf(out) // out holds the header at least
	for ; len(src) > 0; src = src[zvcGroup:] {
		var bitmap uint32
		k := pos + 4
		for _, b := range (*[zvcGroup]uint32)(src) {
			o.store32(k, b)
			nz := b | -b // top bit set when any bit of b is
			bitmap = bitmap>>1 | nz&(1<<31)
			k += int(nz>>31) * 4
		}
		o.store32(pos, bitmap)
		pos = k
	}
	return pos
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
// checked loop takes the rest. A group reads its bitmap and then one 4-byte
// value at the cursor per element, kept or masked to zero by its bitmap bit,
// and advances the cursor by that bit. Zeros are written explicitly either
// way: dst may be a dirty recycled buffer. The reads are unchecked, on this
// budget: after i elements the cursor is at most 4+4i bytes past the group's
// start, so every read of a group lies inside its worst-case encoding,
// zvcGroupMax bytes from where it starts, and the group advances pos by at
// most that much. g ≤ (len(payload)-pos)/zvcGroupMax groups therefore keep
// every read inside payload whatever the bitmaps say, and
// g ≤ (len(dst)-done)/zvcGroup every write inside dst, so nothing is tested
// and nothing branches on the data. A group usually takes less than its
// worst case, so the budget is recomputed until it runs out.
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
			for i := range group {
				bit := bitmap & 1
				bitmap >>= 1
				group[i] = p.load32(pos) & -bit
				pos += int(bit) * 4
			}
			done += zvcGroup
		}
	}
}
