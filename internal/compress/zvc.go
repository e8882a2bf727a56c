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
// so a zero is overwritten by whatever comes next.
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
	pos := headerSize
	for len(src) > 0 {
		group := src[:min(zvcGroup, len(src))]
		src = src[len(group):]
		var bitmap uint32
		k := pos + 4
		for i, v := range group {
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

func (c zvcCodec) Decode(blob []byte) ([]float32, error) {
	n, _, err := parseHeader(blob, ZVC)
	if err != nil {
		return nil, err
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
	pos, done := 0, 0
	// Fast loop: while a full group's worst-case encoding remains, every read
	// below is in bounds whatever the bitmap says, so nothing needs checking
	// and nothing branches on the data. Each element reads the value at the
	// cursor, keeps it or masks it to zero by its bitmap bit, and advances
	// the cursor by that bit. Zeros are written explicitly either way: dst
	// may be a dirty recycled buffer. The cursor k is a multiple of 4 no
	// larger than 4·31, so masking it changes nothing; it lets the compiler
	// drop the bounds check on the fixed-size window.
	for n-done >= zvcGroup && len(payload)-pos >= zvcGroupMax {
		bitmap := binary.LittleEndian.Uint32(payload[pos:])
		vals := (*[4 * zvcGroup]byte)(payload[pos+4:])
		group := dst[done : done+zvcGroup]
		k := 0
		for i := range group {
			bit := bitmap >> uint(i) & 1
			group[i] = math.Float32frombits(binary.LittleEndian.Uint32(vals[k&(4*zvcGroup-4):]) & -bit)
			k += int(bit) * 4
		}
		pos += 4 + k
		done += zvcGroup
	}
	// Checked loop: the last groups, where the payload may end mid-group, and
	// the tail group.
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
