package wire

import "hash/crc32"

// crcCombine is the CRC-32 (IEEE) of A‖B from crcA = CRC(A), crcB = CRC(B)
// and n = len(B): crcA moved past n zero bytes — multiplied by x^(8n)
// modulo the polynomial P — then folded into crcB. It is zlib's
// crc32_combine in its x^(2^k)-table form (zlib 1.2.12 and later): a few
// dozen carry-less steps per set bit of n, whatever n is.
func crcCombine(crcA, crcB uint32, n int64) uint32 {
	return multModP(xPow8n(n), crcA) ^ crcB
}

// multModP is a·b modulo P over GF(2), in the CRC's reflected bit order:
// the top bit is x^0.
func multModP(a, b uint32) uint32 {
	var p uint32
	for ; a != 0; a <<= 1 {
		p ^= b & -(a >> 31)
		b = b>>1 ^ crc32.IEEE&-(b&1)
	}
	return p
}

// x2n[k] is x^(2^k) mod P. The powers cycle with period 32 — x^(2^32) is x
// again — so x2n[k&31] serves any k.
var x2n = func() (t [32]uint32) {
	p := uint32(1) << 30 // x^1
	for k := range t {
		t[k] = p
		p = multModP(p, p)
	}
	return t
}()

// xPow8n is x^(8n) mod P, the factor that moves a CRC past n zero bytes.
func xPow8n(n int64) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 3; n != 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = multModP(x2n[k&31], p)
		}
	}
	return p
}
