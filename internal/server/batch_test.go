package server_test

import (
	"context"
	"fmt"
	"testing"

	"cswap/client"
	"cswap/internal/metrics"
	"cswap/internal/placement"
	"cswap/internal/server"
	"cswap/internal/tensor"
)

func TestBatchBlockRoundTrip(t *testing.T) {
	s, url := newTestServer(t)
	c := client.New(url)
	ctx := context.Background()
	const elems, blocks = 128, 64

	if err := c.RegisterPool(ctx, "kv", elems, blocks); err != nil {
		t.Fatal(err)
	}
	// Quota is charged once, for the whole reservation, at register time.
	wantBytes := float64(elems * blocks * 4)
	if g, _ := s.Registry().Snapshot().Gauge("server_tenant_used_bytes", metrics.L("tenant", "default")); g != wantBytes {
		t.Fatalf("tenant used bytes = %v after register-pool, want %v", g, wantBytes)
	}

	ids := []int{0, 1, 2, 3, 9, 10, 40}
	packed := tensor.NewGenerator(7).Uniform(len(ids)*elems, 0.6).Data
	want := append([]float32(nil), packed...)
	if err := c.WriteBlocks(ctx, "kv", ids, packed); err != nil {
		t.Fatal(err)
	}

	bpBefore := counterValue(t, s, "server_backpressure_total")
	if err := c.SwapOutBlocks(ctx, "kv", ids); err != nil {
		t.Fatal(err)
	}
	bd, err := c.SwapInBlocks(ctx, "kv", ids)
	if err != nil {
		t.Fatal(err)
	}
	if bd.BlockElems != elems {
		t.Fatalf("batch-data elems = %d, want %d", bd.BlockElems, elems)
	}
	// The run table covers exactly the request: {0,4} {9,2} {40,1}.
	if len(bd.Runs) != 3 || bd.Runs[0] != (client.BlockRun{Start: 0, Count: 4}) {
		t.Fatalf("batch-data runs = %v", bd.Runs)
	}
	if len(bd.Data) != len(want) {
		t.Fatalf("batch-data payload %d elements, want %d", len(bd.Data), len(want))
	}
	for i := range want {
		if bd.Data[i] != want[i] {
			t.Fatalf("restored[%d] = %v, want %v", i, bd.Data[i], want[i])
		}
	}
	// The per-block accessor agrees with the packed layout.
	blk, ok := bd.Block(9)
	if !ok || blk[0] != want[4*elems] {
		t.Fatalf("Block(9) = %v/%v, want first element %v", blk[0], ok, want[4*elems])
	}
	if _, ok := bd.Block(5); ok {
		t.Fatal("Block(5) found data for an unrequested ID")
	}

	// Batch counters advanced; quota was never re-charged and the batch
	// took one admission slot each way — no backpressure events.
	if v := counterValue(t, s, "server_batch_blocks_total", metrics.L("op", "swap-out")); v != float64(len(ids)) {
		t.Fatalf("server_batch_blocks_total{op=swap-out} = %v, want %d", v, len(ids))
	}
	if v := counterValue(t, s, "server_batch_requests_total", metrics.L("op", "swap-out")); v != 1 {
		t.Fatalf("server_batch_requests_total{op=swap-out} = %v, want 1", v)
	}
	if v := counterValue(t, s, "server_backpressure_total"); v != bpBefore {
		t.Fatalf("server_backpressure_total moved %v -> %v during batches", bpBefore, v)
	}
	if g, _ := s.Registry().Snapshot().Gauge("server_tenant_used_bytes", metrics.L("tenant", "default")); g != wantBytes {
		t.Fatalf("tenant used bytes = %v after batches, want %v (charged once)", g, wantBytes)
	}

	if err := c.Free(ctx, "kv"); err != nil {
		t.Fatal(err)
	}
	if g, _ := s.Registry().Snapshot().Gauge("server_tenant_used_bytes", metrics.L("tenant", "default")); g != 0 {
		t.Fatalf("tenant used bytes = %v after pool free, want 0", g)
	}
}

// TestBatchOneAdmissionSlot pins the admission accounting: a batch that
// fans out into many executor runs claims ONE server admission slot, so a
// window of one admits any batch without a single 429.
func TestBatchOneAdmissionSlot(t *testing.T) {
	s, url := newTestServer(t, server.WithMaxInFlight(1))
	c := client.New(url, client.WithRetry(0, 0))
	ctx := context.Background()

	if err := c.RegisterPool(ctx, "kv", 64, 256); err != nil {
		t.Fatal(err)
	}
	// Fragmented batches: many runs per batch, sequentially issued.
	for round := 0; round < 4; round++ {
		var ids []int
		for b := 0; b < 32; b++ {
			ids = append(ids, b*8, b*8+1) // 32 runs of 2 blocks
		}
		if err := c.SwapOutBlocks(ctx, "kv", ids, client.WithCodec(client.ZVC)); err != nil {
			t.Fatalf("round %d swap-out: %v", round, err)
		}
		if _, err := c.SwapInBlocks(ctx, "kv", ids); err != nil {
			t.Fatalf("round %d swap-in: %v", round, err)
		}
	}
	if v := counterValue(t, s, "server_backpressure_total"); v != 0 {
		t.Fatalf("server_backpressure_total = %v; batches charged more than one slot", v)
	}
	if v := counterValue(t, s, "server_batch_blocks_total", metrics.L("op", "swap-out")); v != 4*64 {
		t.Fatalf("server_batch_blocks_total{op=swap-out} = %v, want %d", v, 4*64)
	}
}

// TestBatchBlocksCountCoalesced pins what server_batch_blocks_total means:
// the blocks a batch addresses after coalescing, on every operation. A
// duplicated ID is one block whether the batch swaps it out, swaps it in
// or prefetches it.
func TestBatchBlocksCountCoalesced(t *testing.T) {
	s, url := newTestServer(t)
	c := client.New(url)
	ctx := context.Background()
	if err := c.RegisterPool(ctx, "kv", 32, 8); err != nil {
		t.Fatal(err)
	}
	if err := c.SwapOutBlocks(ctx, "kv", []int{0, 1, 1, 2, 2, 2, 5}); err != nil { // 4 blocks
		t.Fatal(err)
	}
	if _, err := c.SwapInBlocks(ctx, "kv", []int{5, 5, 0}); err != nil { // 2 blocks
		t.Fatal(err)
	}
	if err := c.PrefetchBlocks(ctx, "kv", []int{1, 1, 1}); err != nil { // 1 block
		t.Fatal(err)
	}
	for op, want := range map[string]float64{"swap-out": 4, "swap-in": 2, "prefetch": 1} {
		if v := counterValue(t, s, "server_batch_blocks_total", metrics.L("op", op)); v != want {
			t.Errorf("server_batch_blocks_total{op=%s} = %v, want %v (coalesced blocks)", op, v, want)
		}
		if v := counterValue(t, s, "server_batch_requests_total", metrics.L("op", op)); v != 1 {
			t.Errorf("server_batch_requests_total{op=%s} = %v, want 1", op, v)
		}
	}
}

// TestBatchKindMismatch pins the taxonomy when tensor and pool namespaces
// collide: batch ops on a tensor name and tensor ops on a pool name are
// state conflicts, not crashes or silent misreads.
func TestBatchKindMismatch(t *testing.T) {
	_, url := newTestServer(t)
	c := client.New(url, client.WithRetry(0, 0))
	ctx := context.Background()

	if err := c.Register(ctx, "plain", make([]float32, 64)); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterPool(ctx, "paged", 8, 8); err != nil {
		t.Fatal(err)
	}
	if err := c.SwapOutBlocks(ctx, "plain", []int{0}); !isErr(err, client.ErrState) {
		t.Errorf("batch op on tensor: %v, want ErrState", err)
	}
	if err := c.SwapOut(ctx, "paged", client.WithCodec(client.ZVC)); !isErr(err, client.ErrState) {
		t.Errorf("tensor op on pool: %v, want ErrState", err)
	}
	// A pool of one block is the executor's tensor shape, but the frame
	// family it was registered with decides what it accepts.
	if err := c.RegisterPool(ctx, "one", 64, 1); err != nil {
		t.Fatal(err)
	}
	if err := c.SwapOut(ctx, "one"); !isErr(err, client.ErrState) {
		t.Errorf("tensor op on a one-block pool: %v, want ErrState", err)
	}
	if err := c.WriteBlocks(ctx, "plain", []int{0}, make([]float32, 64)); !isErr(err, client.ErrState) {
		t.Errorf("batch-write on tensor: %v, want ErrState", err)
	}
	if err := c.SwapOutBlocks(ctx, "ghost", []int{0}); !isErr(err, client.ErrNotFound) {
		t.Errorf("batch op on unknown name: %v, want ErrNotFound", err)
	}
	if err := c.RegisterPool(ctx, "paged", 8, 8); !isErr(err, client.ErrExists) {
		t.Errorf("duplicate register-pool: %v, want ErrExists", err)
	}
	if err := c.SwapOutBlocks(ctx, "paged", []int{64}); !isErr(err, client.ErrProtocol) && err == nil {
		t.Errorf("out-of-range block ID accepted")
	}
}

// TestBatchPoolQuota: a pool reservation is quota-checked like any
// register, and refusing it leaves the tenant clean.
func TestBatchPoolQuota(t *testing.T) {
	_, url := newTestServer(t, server.WithTenantQuota(4<<10))
	c := client.New(url, client.WithRetry(0, 0))
	ctx := context.Background()

	if err := c.RegisterPool(ctx, "big", 1024, 1024); !isErr(err, client.ErrQuota) {
		t.Fatalf("oversized pool: %v, want ErrQuota", err)
	}
	// The refused reservation must not have leaked quota.
	if err := c.RegisterPool(ctx, "fits", 32, 32); err != nil {
		t.Fatalf("in-quota pool after refusal: %v", err)
	}
}

// TestClusterBatchDrain is the batch acceptance e2e: batched ops route by
// pool name across shards, and a live shard drain migrates pools so every
// block restores byte-identically afterwards — while batches keep running.
func TestClusterBatchDrain(t *testing.T) {
	cl, url := newTestCluster(t)
	ctx := context.Background()
	const elems, blocks = 64, 32

	// One pool per shard, steered by name so shard 1 definitely owns one.
	m := cl.Map()
	ring := m.Ring()
	pools := map[string][]float32{}
	for shard := 0; shard < cl.NumShards(); shard++ {
		var name string
		for i := 0; ; i++ {
			name = fmt.Sprintf("pool-%d-%d/kv", shard, i)
			if o, ok := ring.Owner(placement.Key("default", name)); ok && o == shard {
				break
			}
			if i > 100000 {
				t.Fatalf("no pool name landed on shard %d in 100k probes", shard)
			}
		}
		cc := client.NewCluster(url)
		if err := cc.RegisterPool(ctx, name, elems, blocks); err != nil {
			t.Fatal(err)
		}
		allIDs := make([]int, blocks)
		for i := range allIDs {
			allIDs[i] = i
		}
		data := tensor.NewGenerator(int64(100+shard)).Uniform(blocks*elems, 0.5).Data
		pools[name] = append([]float32(nil), data...)
		if err := cc.WriteBlocks(ctx, name, allIDs, data); err != nil {
			t.Fatal(err)
		}
		// Leave half of each pool swapped for the migrator.
		var half []int
		for i := 0; i < blocks; i += 2 {
			half = append(half, i)
		}
		if err := cc.SwapOutBlocks(ctx, name, half); err != nil {
			t.Fatal(err)
		}
	}

	admin := client.NewCluster(url)
	if err := admin.DrainShard(ctx, 1); err != nil {
		t.Fatalf("drain shard 1: %v", err)
	}

	// Every pool restores byte-identically through the new topology.
	for name, want := range pools {
		cc := client.NewCluster(url)
		allIDs := make([]int, blocks)
		for i := range allIDs {
			allIDs[i] = i
		}
		bd, err := cc.SwapInBlocks(ctx, name, allIDs)
		if err != nil {
			t.Fatalf("post-drain swap-in %s: %v", name, err)
		}
		for i := range want {
			if bd.Data[i] != want[i] {
				t.Fatalf("post-drain %s element %d = %v, want %v", name, i, bd.Data[i], want[i])
			}
		}
	}
	if v, _ := cl.Registry().Snapshot().Counter("cluster_rebalanced_tensors_total"); v == 0 {
		t.Error("drain migrated nothing; shard 1 owned no pools?")
	}
}
