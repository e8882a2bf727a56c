package compress

import (
	"fmt"
	"testing"
	"time"

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
	// The benchmark workloads' 8 MiB tensors at the daemon's launch, so 128
	// chunks of 64 KiB: HUF's at sparsity 0.2 (its chunks decode in pairs),
	// ZVC's at 0.5.
	for _, big := range []struct {
		a        Algorithm
		sparsity float64
	}{{Huffman, 0.2}, {ZVC, 0.5}} {
		a, src := big.a, tensor.NewGenerator(97).Uniform(2<<20, big.sparsity).Data
		launch := Launch{Grid: 128, Block: 64}
		b.Run(fmt.Sprintf("encode-%s-8MiB", a), func(b *testing.B) {
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
		b.Run(fmt.Sprintf("decode-%s-8MiB", a), func(b *testing.B) {
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

// BenchmarkLaunchSurface measures Fig. 5 on this substrate: the cost of
// every power-of-two-grid launch in the paper's search space, with one
// sub-benchmark per codec × tensor size × sparsity. Each iteration
// sweeps grid 1, 2, 4, …, 4096 at block 64 and 128, scoring a point as
// encode + decode wall time plus the blob's two-way transfer over a 12 GB/s
// link (the daemon tuner's default), and reports
// every point's mean as its own metric, ms/g<grid>b<block>. A grid whose
// chunk count at that size equals the previous grid's encodes the same blob
// under the chunk floor, so it is skipped rather than timed again. Run it at
// -cpu 1,2 for both core counts; EXPERIMENTS.md, "Fig. 5 on this
// substrate", reads it. It is not a BENCH_HOT row, so bench-diff ignores it.
func BenchmarkLaunchSurface(b *testing.B) {
	const link = 12e9
	sizes := []struct {
		name  string
		elems int
	}{{"4KiB", 1 << 10}, {"64KiB", 16 << 10}, {"1MiB", 256 << 10}, {"8MiB", 2 << 20}, {"64MiB", 16 << 20}}
	for _, a := range ExtendedAlgorithms() {
		for _, size := range sizes {
			for _, sparsity := range []float64{0.2, 0.5, 0.8} {
				b.Run(fmt.Sprintf("%s/%s/s%.1f", a, size.name, sparsity), func(b *testing.B) {
					src := tensor.NewGenerator(97).Uniform(size.elems, sparsity).Data
					dst := make([]float32, len(src))
					var buf []byte
					var launches []Launch
					for grid := 1; grid <= 4096; grid *= 2 {
						if grid > 1 && ChunkCount(size.elems, grid) == ChunkCount(size.elems, grid/2) {
							continue
						}
						launches = append(launches, Launch{grid, 64}, Launch{grid, 128})
					}
					sec := make([]float64, len(launches))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for j, l := range launches {
							start := time.Now()
							out, err := AppendParallelEncode(buf[:0], a, src, l)
							if err != nil {
								b.Fatal(err)
							}
							buf = out
							if err := ParallelDecodeInto(dst, buf, l); err != nil {
								b.Fatal(err)
							}
							sec[j] += time.Since(start).Seconds() + 2*float64(len(buf))/link
						}
					}
					for j, l := range launches {
						b.ReportMetric(1e3*sec[j]/float64(b.N), fmt.Sprintf("ms/g%db%d", l.Grid, l.Block))
					}
				})
			}
		}
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

// BenchmarkHUFDecodeKernel times the Huffman decode loops on two 64 KiB
// chunks, the container's chunk floor, at two sparsities: decoded one after
// the other by the single-stream loop, and together by the paired loop.
// Run it at -cpu 1; EXPERIMENTS.md, "HUF decode at twice the speed", reads
// it. It is not a BENCH_HOT row, so bench-diff ignores it.
func BenchmarkHUFDecodeKernel(b *testing.B) {
	for _, s := range []float64{0.2, 0.5} {
		gen := tensor.NewGenerator(97)
		srcA, srcB := gen.Uniform(16<<10, s).Data, gen.Uniform(16<<10, s).Data
		blobA, blobB := huffmanCodec{}.Encode(srcA), huffmanCodec{}.Encode(srcB)
		dstA, dstB := make([]float32, len(srcA)), make([]float32, len(srcB))
		b.Run(fmt.Sprintf("single/s%.1f", s), func(b *testing.B) {
			b.SetBytes(int64(4 * (len(srcA) + len(srcB))))
			for i := 0; i < b.N; i++ {
				if err := (huffmanCodec{}).DecodeInto(dstA, blobA); err != nil {
					b.Fatal(err)
				}
				if err := (huffmanCodec{}).DecodeInto(dstB, blobB); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("pair/s%.1f", s), func(b *testing.B) {
			b.SetBytes(int64(4 * (len(srcA) + len(srcB))))
			for i := 0; i < b.N; i++ {
				if errA, errB := huffDecodePair(dstA, blobA, dstB, blobB); errA != nil || errB != nil {
					b.Fatal(errA, errB)
				}
			}
		})
	}
}

// lengthsSink keeps the built code lengths live.
var lengthsSink [256]byte

// BenchmarkHUFEncodeKernel times the three stages of a Huffman encode of one
// 64 KiB chunk, the container's chunk floor, each on its own at two
// sparsities: the byte histogram, the code lengths built from it, and the
// packing of the bit stream. Run it at -cpu 1; EXPERIMENTS.md, "HUF
// encode at 1.4× speed", reads it. It is not a BENCH_HOT row, so
// bench-diff ignores it.
func BenchmarkHUFEncodeKernel(b *testing.B) {
	for _, s := range []float64{0.2, 0.5} {
		src := tensor.NewGenerator(97).Uniform(16<<10, s).Data
		var freq [256]int64
		huffHistogram(&freq, src)
		var codes huffCodeTable
		lengths := huffmanCodeLengths(freq[:])
		maxLen := codes.set(lengths)
		stream := make([]byte, huffStreamLen(&freq, &lengths)+huffSlack)
		b.Run(fmt.Sprintf("histogram/s%.1f", s), func(b *testing.B) {
			b.SetBytes(int64(4 * len(src)))
			for i := 0; i < b.N; i++ {
				var f [256]int64
				huffHistogram(&f, src)
			}
		})
		b.Run(fmt.Sprintf("tree/s%.1f", s), func(b *testing.B) {
			b.SetBytes(int64(4 * len(src)))
			for i := 0; i < b.N; i++ {
				lengthsSink = huffmanCodeLengths(freq[:])
			}
		})
		b.Run(fmt.Sprintf("pack/s%.1f", s), func(b *testing.B) {
			b.SetBytes(int64(4 * len(src)))
			for i := 0; i < b.N; i++ {
				huffPack(stream, src, &codes, maxLen)
			}
		})
	}
}

// BenchmarkZVCKernel times the ZVC encode and decode of one 64 KiB chunk,
// the container's chunk floor, at the workloads' three sparsities. Run it
// at -cpu 1; EXPERIMENTS.md, "ZVC groups as straight-line code", reads it.
// It is not a BENCH_HOT row, so bench-diff ignores it.
func BenchmarkZVCKernel(b *testing.B) {
	c := zvcCodec{}
	for _, s := range []float64{0.2, 0.5, 0.8} {
		src := tensor.NewGenerator(97).Uniform(16<<10, s).Data
		buf := make([]byte, 0, c.MaxEncodedLen(len(src)))
		blob := c.Encode(src)
		dst := make([]float32, len(src))
		b.Run(fmt.Sprintf("encode/s%.1f", s), func(b *testing.B) {
			b.SetBytes(int64(4 * len(src)))
			for i := 0; i < b.N; i++ {
				buf = c.AppendEncode(buf[:0], src)
			}
		})
		b.Run(fmt.Sprintf("decode/s%.1f", s), func(b *testing.B) {
			b.SetBytes(int64(4 * len(src)))
			for i := 0; i < b.N; i++ {
				if err := c.DecodeInto(dst, blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
