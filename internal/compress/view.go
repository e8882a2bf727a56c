package compress

import "unsafe"

// FloatBytes is data's memory as bytes, one of the program's two uses of
// unsafe (the other is the paired Huffman decode loop's cursors). The view is always taken from a []float32, never toward one, so
// alignment holds by construction. It is the host's native byte order: the
// wire encoding only on a little-endian host (internal/wire checks), and
// always what the executor's raw path stores, because a raw blob never
// leaves the process that wrote it.
func FloatBytes(data []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 4*len(data))
}
