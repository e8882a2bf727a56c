package compress

import (
	"encoding/binary"
	"unsafe"
)

// FloatBytes is data's memory as bytes, one of the package's uses of unsafe
// (the others are floatWords and rawBytes below, and the pointer cursors of
// the Huffman loops, the paired decode's and the packer's). The view is always taken
// from a []float32, never toward one, so alignment holds by construction.
// It is the host's native byte order: the wire encoding only on a
// little-endian host (internal/wire checks), and always what the executor's
// raw path stores, because a raw blob never leaves the process that wrote
// it.
func FloatBytes(data []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 4*len(data))
}

// floatWords is data's memory as its elements' bit patterns, for the ZVC
// loops, which move bit patterns and never look at a value, and for the
// verify digest, whose lanes read two patterns per 64-bit word:
// math.Float32bits over a []float32 costs a move through a float register
// per element.
func floatWords(data []float32) []uint32 {
	return unsafe.Slice((*uint32)(unsafe.Pointer(unsafe.SliceData(data))), len(data))
}

// rawBytes is a byte slice as a bare pointer to its first byte, for the ZVC
// loops' cursors: they access it at byte offsets that a budget fixed on
// entry keeps inside the slice, instead of a bounds check per access
// (zvc.go states each budget). Only offsets whose 4 bytes lie inside the
// slice are ever added to the pointer, so it never leaves the slice, and
// under -race checkptr stops one that would. Accesses are little-endian
// whatever the host.
type rawBytes struct{ p unsafe.Pointer }

// rawOf is b, which must not be empty, as a rawBytes.
func rawOf(b []byte) rawBytes { return rawBytes{unsafe.Pointer(&b[0])} }

func (r rawBytes) load32(off int) uint32 {
	return binary.LittleEndian.Uint32((*[4]byte)(unsafe.Add(r.p, off))[:])
}

func (r rawBytes) store32(off int, v uint32) {
	binary.LittleEndian.PutUint32((*[4]byte)(unsafe.Add(r.p, off))[:], v)
}
