package compress

import (
	"fmt"
	"testing"

	"cswap/internal/tensor"
)

// Per-codec hot-path benchmarks. Names are stable identifiers consumed by
// cmd/cswap-benchdiff (see the bench-compress / bench-diff Makefile
// targets): renaming one orphans its baseline entry in BENCH_compress.json.

const benchElems = 16384
const benchSparsity = 0.6

func benchTensor(b *testing.B) []float32 {
	b.Helper()
	return tensor.NewGenerator(97).Uniform(benchElems, benchSparsity).Data
}

func BenchmarkCodecEncode(b *testing.B) {
	src := benchTensor(b)
	for _, a := range ExtendedAlgorithms() {
		c := MustNew(a)
		b.Run(a.String(), func(b *testing.B) {
			buf := make([]byte, 0, c.MaxEncodedLen(len(src)))
			b.SetBytes(int64(len(src) * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = c.AppendEncode(buf[:0], src)
			}
		})
	}
}

func BenchmarkCodecDecode(b *testing.B) {
	src := benchTensor(b)
	for _, a := range ExtendedAlgorithms() {
		c := MustNew(a)
		b.Run(a.String(), func(b *testing.B) {
			blob := c.Encode(src)
			dst := make([]float32, len(src))
			b.SetBytes(int64(len(src) * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.DecodeInto(dst, blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkParallelContainer(b *testing.B) {
	src := benchTensor(b)
	launch := Launch{Grid: 16, Block: 64}
	for _, a := range []Algorithm{ZVC, LZ4, Huffman} {
		b.Run(fmt.Sprintf("encode-%s", a), func(b *testing.B) {
			bound, err := MaxParallelEncodedLen(a, len(src), launch)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 0, bound)
			b.SetBytes(int64(len(src) * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := AppendParallelEncode(buf[:0], a, src, launch)
				if err != nil {
					b.Fatal(err)
				}
				buf = out[:0]
			}
		})
		b.Run(fmt.Sprintf("decode-%s", a), func(b *testing.B) {
			blob, err := ParallelEncode(a, src, launch)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]float32, len(src))
			b.SetBytes(int64(len(src) * 4))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ParallelDecodeInto(dst, blob, launch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// checksumSink keeps the digest live so the call is not optimised away.
var checksumSink uint64

// BenchmarkCodecChecksum times the verify digest at one segment (64 KiB,
// serial, the SwapHotPath size) and at the benchmark workloads' tensor
// size (8 MiB, segments on the worker pool).
func BenchmarkCodecChecksum(b *testing.B) {
	for _, size := range []struct {
		name  string
		elems int
	}{{"64KiB", 16 << 10}, {"8MiB", 2 << 20}} {
		src := tensor.NewGenerator(97).Uniform(size.elems, benchSparsity).Data
		b.Run(size.name, func(b *testing.B) {
			b.SetBytes(int64(len(src) * 4))
			for i := 0; i < b.N; i++ {
				checksumSink = Checksum(src)
			}
		})
	}
}
