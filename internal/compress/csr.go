package compress

import (
	"encoding/binary"
	"math"
)

// csrCodec implements compressed sparse row storage over the flat tensor
// viewed as rows of a fixed logical width. The payload stores row pointers,
// per-row column indices, and the non-zero values — the paper's
// "(A00B0C000) → (ABC),(035)" example. Index overhead is 4 bytes per
// non-zero (so ≈50 % of the original size at 50 % sparsity, the comparison
// the paper draws against ZVC's 3 %). A non-zero is any element with a bit
// set, so −0 is stored as a value and restores bit for bit.
type csrCodec struct{}

// csrRowWidth is the logical row width used when a tensor is flattened to a
// matrix. 1024 keeps column indices small while amortising the row-pointer
// array to <0.4 % of the original size.
const csrRowWidth = 1024

func (csrCodec) Algorithm() Algorithm { return CSR }

// MaxEncodedLen bounds the blob at the full row-pointer array plus an
// index and a value for every element non-zero.
func (csrCodec) MaxEncodedLen(n int) int {
	rows := (n + csrRowWidth - 1) / csrRowWidth
	return headerSize + 4*(rows+1) + 8*n
}

func (c csrCodec) Encode(src []float32) []byte {
	rows := (len(src) + csrRowWidth - 1) / csrRowWidth
	nnz := 0
	for _, v := range src {
		if math.Float32bits(v) != 0 {
			nnz++
		}
	}
	blob := make([]byte, 0, headerSize+4*(rows+1)+8*nnz)
	return c.AppendEncode(blob, src)
}

func (csrCodec) AppendEncode(dst []byte, src []float32) []byte {
	rows := (len(src) + csrRowWidth - 1) / csrRowWidth
	dst = putHeader(dst, CSR, len(src))
	// Row pointers: rows+1 cumulative non-zero counts.
	count := uint32(0)
	dst = appendUint32(dst, count)
	for r := 0; r < rows; r++ {
		start := r * csrRowWidth
		end := start + csrRowWidth
		if end > len(src) {
			end = len(src)
		}
		for i := start; i < end; i++ {
			if math.Float32bits(src[i]) != 0 {
				count++
			}
		}
		dst = appendUint32(dst, count)
	}
	// Column indices. The paper's CSR accounting charges a full 4-byte
	// index per non-zero ("Instead of using a float as an index for each
	// non-zero value" — Section IV-E), giving the 50 % overhead at 50 %
	// sparsity it contrasts with ZVC's 3 %; we keep that layout.
	for i, v := range src {
		if math.Float32bits(v) != 0 {
			dst = appendUint32(dst, uint32(i%csrRowWidth))
		}
	}
	// Values.
	for _, v := range src {
		if math.Float32bits(v) != 0 {
			dst = appendFloat32(dst, v)
		}
	}
	return dst
}

func (c csrCodec) Decode(blob []byte) ([]float32, error) {
	n, payload, err := parseHeader(blob, CSR)
	if err != nil {
		return nil, err
	}
	// The row pointers alone take 4 bytes per row and one more. A payload
	// shorter than that is refused before n elements are allocated on the
	// header's claim.
	if len(payload)/4 < (n+csrRowWidth-1)/csrRowWidth+1 {
		return nil, ErrTruncated
	}
	dst := make([]float32, n)
	if err := c.DecodeInto(dst, blob); err != nil {
		return nil, err
	}
	return dst, nil
}

func (csrCodec) DecodeInto(dst []float32, blob []byte) error {
	n, payload, err := parseHeader(blob, CSR)
	if err != nil {
		return err
	}
	if err := checkDst(dst, n); err != nil {
		return err
	}
	rows := (n + csrRowWidth - 1) / csrRowWidth
	ptrBytes := 4 * (rows + 1)
	if len(payload) < ptrBytes {
		return ErrTruncated
	}
	// Row pointers are read in place from the payload; no materialised
	// pointer slice on the hot path.
	rowPtr := func(i int) uint32 {
		return binary.LittleEndian.Uint32(payload[i*4:])
	}
	nnz := int(rowPtr(rows))
	if rowPtr(0) != 0 || nnz > n {
		return ErrCorrupt
	}
	colBase := ptrBytes
	valBase := colBase + 4*nnz
	if len(payload) != valBase+4*nnz {
		return ErrTruncated
	}
	// The scatter below writes only non-zeros, so a dirty recycled dst is
	// cleared first.
	clear(dst)
	for r := 0; r < rows; r++ {
		lo, hi := int(rowPtr(r)), int(rowPtr(r+1))
		if lo > hi || hi > nnz {
			return ErrCorrupt
		}
		for k := lo; k < hi; k++ {
			col := int(binary.LittleEndian.Uint32(payload[colBase+4*k:]))
			idx := r*csrRowWidth + col
			if col >= csrRowWidth || idx >= n {
				return ErrCorrupt
			}
			dst[idx] = readFloat32(payload[valBase+4*k:])
		}
	}
	return nil
}
