package compress

import (
	"math/bits"
	"runtime"
	"sync/atomic"
)

// checksumSegment is the element count of one independently digested
// segment (64 KiB of float32). It is part of the digest's definition: the
// value must not depend on how many workers computed it, so the split is
// fixed rather than derived from the core count.
const checksumSegment = 16 << 10

// Odd multipliers (the 64-bit xxHash primes): multiplication by an odd
// constant is a bijection on uint64.
const (
	csPrime1 = 0x9E3779B185EBCA87
	csPrime2 = 0xC2B2AE3D27D4EB4F
	csPrime3 = 0x165667B19E3779F9
	csPrime4 = 0x85EBCA77C2B2AE63
	csPrime5 = 0x27D4EB2F165667C5
)

// csMix folds one 64-bit word into a state. For a fixed w it is a bijection
// of s, and for a fixed s a bijection of w (xor, odd multiply and rotate
// each are), so a change confined to one word can never cancel out: it
// changes the state, and every later step carries a changed state to a
// changed state. The rotate brings the product's well-mixed high bits down
// to where the next multiply spreads them again.
func csMix(s, w uint64) uint64 {
	return bits.RotateLeft64((s^w)*csPrime1, 29)
}

// Checksum returns a 64-bit digest of the tensor's bit patterns — the
// integrity check the swapping executor takes at swap-out and compares
// after swap-in. It distinguishes −0 from +0 and every NaN payload. It is
// not cryptographic: it detects corruption, not an adversary.
//
// The tensor is digested in fixed checksumSegment-element segments. Each
// segment's digest is keyed by the segment's index, the keyed digests are
// summed, and the element count is folded in last — every step a bijection
// of the one segment digest a changed word reaches. The sum makes the value
// independent of the order segments finish in, hence of the core count,
// with no per-segment storage: tensors longer than one segment digest
// their segments on the package's worker pool; shorter ones never touch it
// and allocate nothing.
func Checksum(data []float32) uint64 {
	if len(data) <= checksumSegment {
		return csMix(csMix(segmentDigest(data), 0), uint64(len(data)))
	}
	nseg := (len(data) + checksumSegment - 1) / checksumSegment
	var sum atomic.Uint64
	runWorkers(nseg, min(runtime.GOMAXPROCS(0), nseg), func(i int) {
		seg := data[i*checksumSegment:]
		if len(seg) > checksumSegment {
			seg = seg[:checksumSegment]
		}
		sum.Add(csMix(segmentDigest(seg), uint64(i)))
	})
	return csMix(sum.Load(), uint64(len(data)))
}

// segmentDigest digests one segment: eight floats per step, two per 64-bit
// word, one word into each of four independent lanes, so the four
// multiply-rotate chains pipeline instead of waiting on one another. The
// under-eight tail goes into the first lane one float per word. Each word is
// built from the elements' bit patterns, read through floatWords, so the two
// 32-bit loads of a word merge into one 64-bit load where the host allows it
// and the value is the same on every host.
func segmentDigest(seg []float32) uint64 {
	s0, s1, s2, s3 := uint64(csPrime2), uint64(csPrime3), uint64(csPrime4), uint64(csPrime5)
	w := floatWords(seg)
	for ; len(w) >= 8; w = w[8:] {
		x := (*[8]uint32)(w)
		s0 = csMix(s0, uint64(x[0])|uint64(x[1])<<32)
		s1 = csMix(s1, uint64(x[2])|uint64(x[3])<<32)
		s2 = csMix(s2, uint64(x[4])|uint64(x[5])<<32)
		s3 = csMix(s3, uint64(x[6])|uint64(x[7])<<32)
	}
	for _, v := range w {
		s0 = csMix(s0, uint64(v))
	}
	return csMix(csMix(csMix(s0, s1), s2), s3)
}
