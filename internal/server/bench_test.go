package server_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"cswap/client"
	"cswap/internal/server"
	"cswap/internal/tensor"
)

// BenchmarkServerRoundTrip measures one full service round trip — an Auto
// swap-out resolved by the server plus the swap-in streaming the tensor
// back — through the real HTTP stack and wire codec. It rides in the
// bench-diff gate under the lenient rules (cswap-benchdiff -lenient): the
// path crosses the network stack, the scheduler, and the executor's run
// loop, so its ns/op and allocs/op carry noise the tight codec-loop
// thresholds would flake on; what the gate catches here is gross
// regressions — an allocation storm or a serialization cliff, not a cache
// miss.
func BenchmarkServerRoundTrip(b *testing.B) {
	s, err := server.NewServer(
		server.WithDeviceCapacity(64<<20),
		server.WithHostCapacity(64<<20),
		server.WithVerify(true))
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer func() {
		hs.Close()
		_ = s.Close()
	}()
	c := client.New(hs.URL)
	ctx := context.Background()

	data := tensor.NewGenerator(1).Uniform(64*1024, 0.6).Data
	if err := c.Register(ctx, "bench0", data); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.SetBytes(int64(len(data)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.SwapOut(ctx, "bench0"); err != nil {
			b.Fatal(err)
		}
		if _, err := c.SwapIn(ctx, "bench0"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchSwap is the batching acceptance head-to-head over real
// loopback HTTP: moving 64 one-KiB blocks out and back as 64 single-block
// batches versus one 64-block batch. Byte volume is identical; the delta
// is pure per-request control cost — framing, admission, codec launch —
// which the contiguous-run batch issues once. The 64-block case must land
// well under a quarter of the single-block wall time (the kv-smoke target
// asserts the <25% bound end to end); like ServerRoundTrip it rides in
// bench-diff's lenient band, since the path crosses the HTTP stack and
// the executor's run loop.
func BenchmarkBatchSwap(b *testing.B) {
	const blockElems, numBlocks = 256, 64
	run := func(b *testing.B, batch [][]int) {
		s, err := server.NewServer(
			server.WithDeviceCapacity(64<<20),
			server.WithHostCapacity(64<<20),
			server.WithVerify(true))
		if err != nil {
			b.Fatal(err)
		}
		hs := httptest.NewServer(s.Handler())
		defer func() {
			hs.Close()
			_ = s.Close()
		}()
		c := client.New(hs.URL)
		ctx := context.Background()

		if err := c.RegisterPool(ctx, "kv", blockElems, numBlocks); err != nil {
			b.Fatal(err)
		}
		all := make([]int, numBlocks)
		for i := range all {
			all[i] = i
		}
		data := tensor.NewGenerator(1).Uniform(numBlocks*blockElems, 0.5).Data
		if err := c.WriteBlocks(ctx, "kv", all, data); err != nil {
			b.Fatal(err)
		}

		b.ReportAllocs()
		b.SetBytes(int64(numBlocks * blockElems * 4))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, ids := range batch {
				if err := c.SwapOutBlocks(ctx, "kv", ids); err != nil {
					b.Fatal(err)
				}
				if _, err := c.SwapInBlocks(ctx, "kv", ids); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("single-block", func(b *testing.B) {
		singles := make([][]int, numBlocks)
		for i := range singles {
			singles[i] = []int{i}
		}
		run(b, singles)
	})
	b.Run("64-block", func(b *testing.B) {
		all := make([]int, numBlocks)
		for i := range all {
			all[i] = i
		}
		run(b, [][]int{all})
	})
}
