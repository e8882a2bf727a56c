package wire

import (
	"encoding/binary"
	"unsafe"
)

// nativeLE reports whether this host keeps a float32 in memory the way the
// wire's float field carries it: little-endian IEEE-754. Where it does — on
// every platform cswapd ships for — tensor memory is the wire payload, and
// the float-field reader and writer move it without conversion; where it
// does not, they fall back to the portable element-by-element pair.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes is data's memory as bytes, and the program's only use of
// unsafe. The view is always taken from a []float32, never toward one, so
// alignment holds by construction; it is the wire encoding only when
// nativeLE.
func floatBytes(data []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 4*len(data))
}
