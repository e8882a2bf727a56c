package compress

import (
	"encoding/binary"
	"math"
)

// rleCodec implements run-length encoding specialised for sparse activation
// tensors: only zero runs are collapsed, since ReLU/MAX outputs contain long
// stretches of exact zeros but essentially random non-zero values (the
// paper's "A0000000 → A70" example generalised to float data). A zero is
// the all-zero bit pattern; −0 is a literal and restores bit for bit.
//
// Payload format: a sequence of tokens
//
//	[zeroRun uint16][litCount uint16][litCount × float32 literals]
//
// meaning "zeroRun zeros followed by litCount literal values". Runs longer
// than 65535 split across tokens (with litCount 0 for the continuation).
// Worst case (no zeros) overhead is 4 bytes per 65535 literals; dense
// alternating data degrades towards the paper's observation that RLE "will
// increase the original sequence size when the length of consecutive zeros
// cannot be efficiently reduced".
type rleCodec struct{}

const rleMaxRun = 0xFFFF

func (rleCodec) Algorithm() Algorithm { return RLE }

// MaxEncodedLen bounds the blob by charging every element the worst
// per-element token cost: an isolated literal preceded by no zeros costs a
// 4-byte token plus its 4-byte value; every other token amortises better.
func (rleCodec) MaxEncodedLen(n int) int {
	return headerSize + 8*n
}

func (c rleCodec) Encode(src []float32) []byte {
	// Size hint matches the historical Encode: the common sparse case, not
	// the adversarial bound.
	blob := make([]byte, 0, headerSize+len(src)*4/2+64)
	return c.AppendEncode(blob, src)
}

func (rleCodec) AppendEncode(dst []byte, src []float32) []byte {
	dst = putHeader(dst, RLE, len(src))
	var u16 [2]byte
	putU16 := func(v int) {
		binary.LittleEndian.PutUint16(u16[:], uint16(v))
		dst = append(dst, u16[:]...)
	}
	i := 0
	for i < len(src) {
		// Count the zero run.
		zs := i
		for i < len(src) && math.Float32bits(src[i]) == 0 {
			i++
		}
		zeroRun := i - zs
		// Count the literal run.
		ls := i
		for i < len(src) && math.Float32bits(src[i]) != 0 {
			i++
		}
		lits := src[ls:i]
		// Emit continuation tokens for oversized zero runs.
		for zeroRun > rleMaxRun {
			putU16(rleMaxRun)
			putU16(0)
			zeroRun -= rleMaxRun
		}
		// Emit the run plus literal chunks.
		for {
			chunk := len(lits)
			if chunk > rleMaxRun {
				chunk = rleMaxRun
			}
			putU16(zeroRun)
			putU16(chunk)
			for _, v := range lits[:chunk] {
				dst = appendFloat32(dst, v)
			}
			lits = lits[chunk:]
			zeroRun = 0
			if len(lits) == 0 {
				break
			}
		}
	}
	return dst
}

func (c rleCodec) Decode(blob []byte) ([]float32, error) {
	n, payload, err := parseHeader(blob, RLE)
	if err != nil {
		return nil, err
	}
	// A 4-byte token covers at most rleMaxRun zeros and each literal costs
	// 4 bytes, so n elements cost at least 4·⌈n/rleMaxRun⌉ bytes. A shorter
	// payload is refused before n elements are allocated on the header's
	// claim.
	if len(payload)/4 < (n+rleMaxRun-1)/rleMaxRun {
		return nil, ErrTruncated
	}
	dst := make([]float32, n)
	if err := c.DecodeInto(dst, blob); err != nil {
		return nil, err
	}
	return dst, nil
}

func (rleCodec) DecodeInto(dst []float32, blob []byte) error {
	n, payload, err := parseHeader(blob, RLE)
	if err != nil {
		return err
	}
	if err := checkDst(dst, n); err != nil {
		return err
	}
	out, pos := 0, 0
	for pos < len(payload) {
		if pos+4 > len(payload) {
			return ErrTruncated
		}
		zeroRun := int(binary.LittleEndian.Uint16(payload[pos:]))
		litCount := int(binary.LittleEndian.Uint16(payload[pos+2:]))
		pos += 4
		if out+zeroRun+litCount > n {
			return ErrCorrupt
		}
		// Zero runs are written explicitly: dst may be a dirty recycled
		// buffer, so nothing can rely on it being pre-zeroed.
		clear(dst[out : out+zeroRun])
		out += zeroRun
		if pos+litCount*4 > len(payload) {
			return ErrTruncated
		}
		for j := 0; j < litCount; j++ {
			dst[out] = readFloat32(payload[pos:])
			pos += 4
			out++
		}
	}
	if out != n {
		return ErrCorrupt
	}
	return nil
}
