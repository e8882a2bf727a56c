package executor

import (
	"encoding/binary"
	"math"

	"cswap/internal/devmem"
)

// rawEncode serialises a tensor to little-endian bytes for an uncompressed
// swap, drawing the buffer from the cache (the cudaMallocHost-avoidance
// optimisation).
func rawEncode(data []float32, cache *devmem.Cache) []byte {
	buf := cache.Get(len(data) * 4)
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
	}
	return buf
}

// rawDecodeInto reverses rawEncode into the caller-owned dst; buf must hold
// exactly 4·len(dst) bytes. Every element is written, so a dirty recycled
// destination is fully overwritten.
func rawDecodeInto(dst []float32, buf []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
	}
}
