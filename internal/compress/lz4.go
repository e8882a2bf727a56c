package compress

import (
	"encoding/binary"
	"sync"
)

// lz4Codec implements the LZ4 block format (the dictionary-matching codec
// from Section IV-E, "abcde_bcde → abcde_(5,4)") over the raw little-endian
// bytes of the tensor. It is a from-scratch greedy compressor with a 4-byte
// hash-chain head table, producing standard LZ4 block streams:
//
//	token: high nibble = literal length, low nibble = match length − 4
//	       (0xF in either nibble extends with 255-valued continuation bytes)
//	then literals, then a 2-byte little-endian match offset (1–65535),
//	then match-length continuation bytes.
//
// The block ends with a literal-only sequence; per the format rules the last
// 5 bytes are always literals and no match begins within the final 12 bytes.
type lz4Codec struct{}

func (lz4Codec) Algorithm() Algorithm { return LZ4 }

const (
	lz4MinMatch    = 4
	lz4HashLog     = 16
	lz4MFLimit     = 12 // no match may start within this many bytes of the end
	lz4LastLits    = 5  // last bytes must be literals
	lz4MaxDistance = 65535
)

func lz4Hash(u uint32) uint32 {
	return (u * 2654435761) >> (32 - lz4HashLog)
}

// lz4Tables recycles the compressor's hash-chain head tables.
var lz4Tables = sync.Pool{
	New: func() interface{} { return new([1 << lz4HashLog]int32) },
}

// MaxEncodedLen bounds the blob by the incompressible case: every raw byte
// a literal, plus one length-extension byte per 255 literals and slack for
// token/offset framing. Sequences containing matches only shrink the total
// (a match costs ≤3 bytes plus extensions yet covers ≥4 raw bytes).
func (lz4Codec) MaxEncodedLen(n int) int {
	raw := 4 * n
	return headerSize + raw + raw/255 + 64
}

func (c lz4Codec) Encode(src []float32) []byte {
	raw := len(src) * 4
	blob := make([]byte, 0, headerSize+raw+raw/255+16)
	return c.AppendEncode(blob, src)
}

func (lz4Codec) AppendEncode(dst []byte, src []float32) []byte {
	p := getScratch(len(src) * 4)
	raw := *p
	for i, v := range src {
		binary.LittleEndian.PutUint32(raw[i*4:], float32bits(v))
	}
	dst = putHeader(dst, LZ4, len(src))
	dst = lz4CompressBlock(dst, raw)
	putScratch(p)
	return dst
}

// lz4CompressBlock appends the LZ4 block encoding of raw to dst.
func lz4CompressBlock(dst, raw []byte) []byte {
	n := len(raw)
	if n == 0 {
		return dst
	}
	emitSeq := func(lits []byte, matchLen, offset int) []byte {
		litLen := len(lits)
		token := byte(0)
		if litLen >= 15 {
			token = 0xF0
		} else {
			token = byte(litLen) << 4
		}
		ml := 0
		if matchLen > 0 {
			ml = matchLen - lz4MinMatch
			if ml >= 15 {
				token |= 0x0F
			} else {
				token |= byte(ml)
			}
		}
		dst = append(dst, token)
		if litLen >= 15 {
			rem := litLen - 15
			for rem >= 255 {
				dst = append(dst, 255)
				rem -= 255
			}
			dst = append(dst, byte(rem))
		}
		dst = append(dst, lits...)
		if matchLen > 0 {
			dst = append(dst, byte(offset), byte(offset>>8))
			if ml >= 15 {
				rem := ml - 15
				for rem >= 255 {
					dst = append(dst, 255)
					rem -= 255
				}
				dst = append(dst, byte(rem))
			}
		}
		return dst
	}

	if n < lz4MFLimit+1 {
		// Too small to contain any match; emit one literal run.
		return emitSeq(raw, 0, 0)
	}

	// The 256 KiB hash table exceeds the compiler's stack-variable limit
	// and would heap-allocate per call; recycle it instead. The reset loop
	// below makes a dirty pooled table safe.
	tp := lz4Tables.Get().(*[1 << lz4HashLog]int32)
	defer lz4Tables.Put(tp)
	table := tp
	for i := range table {
		table[i] = -1
	}
	anchor := 0
	pos := 0
	matchLimit := n - lz4MFLimit
	for pos <= matchLimit {
		cur := binary.LittleEndian.Uint32(raw[pos:])
		h := lz4Hash(cur)
		cand := int(table[h])
		table[h] = int32(pos)
		if cand >= 0 && pos-cand <= lz4MaxDistance &&
			binary.LittleEndian.Uint32(raw[cand:]) == cur {
			// Extend the match forward, respecting the tail-literal rule.
			maxEnd := n - lz4LastLits
			mlen := lz4MinMatch
			for pos+mlen < maxEnd && raw[cand+mlen] == raw[pos+mlen] {
				mlen++
			}
			dst = emitSeq(raw[anchor:pos], mlen, pos-cand)
			pos += mlen
			anchor = pos
			// Seed the table inside the match to find overlapping repeats.
			if pos <= matchLimit {
				table[lz4Hash(binary.LittleEndian.Uint32(raw[pos-2:]))] = int32(pos - 2)
			}
			continue
		}
		pos++
	}
	// Trailing literals.
	return emitSeq(raw[anchor:], 0, 0)
}

func (c lz4Codec) Decode(blob []byte) ([]float32, error) {
	n, payload, err := parseHeader(blob, LZ4)
	if err != nil {
		return nil, err
	}
	// No sequence yields more than 255 output bytes per byte it costs: a
	// match of at most 19 bytes costs token and offset, 3 bytes, and each
	// length extension byte adds at most 255. A payload shorter than
	// ⌈4n/255⌉ is refused before n elements are allocated on the header's
	// claim.
	if len(payload)*255 < 4*n {
		return nil, ErrTruncated
	}
	dst := make([]float32, n)
	if err := c.DecodeInto(dst, blob); err != nil {
		return nil, err
	}
	return dst, nil
}

func (lz4Codec) DecodeInto(dst []float32, blob []byte) error {
	n, payload, err := parseHeader(blob, LZ4)
	if err != nil {
		return err
	}
	if err := checkDst(dst, n); err != nil {
		return err
	}
	// Stage through pooled raw bytes; the block decoder fills every byte on
	// success, so a dirty recycled scratch buffer is harmless.
	p := getScratch(n * 4)
	raw := *p
	err = lz4DecompressBlock(raw, payload)
	if err == nil {
		for i := range dst {
			dst[i] = readFloat32(raw[i*4:])
		}
	}
	putScratch(p)
	return err
}

// lz4DecompressBlock decodes an LZ4 block into dst, which must be exactly
// the uncompressed size.
func lz4DecompressBlock(dst, src []byte) error {
	if len(dst) == 0 {
		if len(src) != 0 {
			return ErrCorrupt
		}
		return nil
	}
	di, si := 0, 0
	for {
		if si >= len(src) {
			return ErrTruncated
		}
		token := src[si]
		si++
		// Literal length.
		litLen := int(token >> 4)
		if litLen == 15 {
			for {
				if si >= len(src) {
					return ErrTruncated
				}
				b := src[si]
				si++
				litLen += int(b)
				if b != 255 {
					break
				}
			}
		}
		if si+litLen > len(src) || di+litLen > len(dst) {
			return ErrTruncated
		}
		copy(dst[di:], src[si:si+litLen])
		si += litLen
		di += litLen
		if si == len(src) {
			// Final literal-only sequence.
			if di != len(dst) {
				return ErrCorrupt
			}
			return nil
		}
		// Match.
		if si+2 > len(src) {
			return ErrTruncated
		}
		offset := int(src[si]) | int(src[si+1])<<8
		si += 2
		if offset == 0 || offset > di {
			return ErrCorrupt
		}
		matchLen := int(token&0x0F) + lz4MinMatch
		if token&0x0F == 0x0F {
			for {
				if si >= len(src) {
					return ErrTruncated
				}
				b := src[si]
				si++
				matchLen += int(b)
				if b != 255 {
					break
				}
			}
		}
		if di+matchLen > len(dst) {
			return ErrCorrupt
		}
		// Byte-wise copy: offsets smaller than the match length must
		// replicate (the RLE-within-LZ4 case).
		for i := 0; i < matchLen; i++ {
			dst[di] = dst[di-offset]
			di++
		}
	}
}
