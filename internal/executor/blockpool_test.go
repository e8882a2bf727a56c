package executor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cswap/internal/compress"
	"cswap/internal/devmem"
	"cswap/internal/faultinject"
	"cswap/internal/sim"
	"cswap/internal/tensor"
)

func newPoolExecutor(t *testing.T) *Executor {
	t.Helper()
	e, err := New(Config{DeviceCapacity: 64 << 20, HostCapacity: 64 << 20, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e
}

// blockFill gives block id a distinctive payload so cross-block mixups
// cannot verify.
func blockFill(id, elems int) []float32 {
	data := make([]float32, elems)
	for i := range data {
		if i%3 == 0 {
			data[i] = 0 // keep some sparsity for the codecs
		} else {
			data[i] = float32(id*1000 + i)
		}
	}
	return data
}

func TestCoalesceBlockIDs(t *testing.T) {
	cases := []struct {
		ids  []int
		want []BlockRun
	}{
		{nil, nil},
		{[]int{}, nil},
		{[]int{5}, []BlockRun{{5, 1}}},
		{[]int{3, 4, 5}, []BlockRun{{3, 3}}},
		{[]int{5, 3, 4}, []BlockRun{{3, 3}}},
		{[]int{3, 3, 4, 4, 5}, []BlockRun{{3, 3}}},
		{[]int{0, 2, 3, 7}, []BlockRun{{0, 1}, {2, 2}, {7, 1}}},
		{[]int{9, 0, 1, 8, 4}, []BlockRun{{0, 2}, {4, 1}, {8, 2}}},
	}
	for _, c := range cases {
		got := CoalesceBlockIDs(c.ids)
		if len(got) != len(c.want) {
			t.Fatalf("Coalesce(%v) = %v, want %v", c.ids, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Coalesce(%v) = %v, want %v", c.ids, got, c.want)
			}
		}
	}
}

// TestEvictionRegionsCoalesce pins the workload shape the paged layout
// exists for: on the default KV decode trace, each step's eviction is one
// sequence's sequential region, so its swap-out coalesces to a single run of
// the whole region.
func TestEvictionRegionsCoalesce(t *testing.T) {
	cfg := sim.DefaultKVTrace()
	cfg.ScatterPerStep = 0 // isolate eviction traffic
	for i, st := range sim.GenKVTrace(cfg) {
		if len(st.Out) == 0 {
			continue
		}
		if runs := CoalesceBlockIDs(st.Out); len(runs) != 1 || runs[0].Count != cfg.BlocksPerSeq {
			t.Fatalf("step %d eviction coalesced to %v, want one run of %d blocks", i, runs, cfg.BlocksPerSeq)
		}
	}
}

// TestSequentialBatchCoalescesToOneRun pins the acceptance criterion: a
// batch of sequential block IDs merges into exactly one run — one codec
// operation, one host allocation, one swap counted.
func TestSequentialBatchCoalescesToOneRun(t *testing.T) {
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = i + 10
	}
	if runs := CoalesceBlockIDs(ids); len(runs) != 1 || runs[0] != (BlockRun{Start: 10, Count: 64}) {
		t.Fatalf("sequential IDs coalesced to %v, want one run [10,+64)", runs)
	}

	e := newPoolExecutor(t)
	p, err := e.RegisterBlockPool("kv", 32, 128)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats().SwapOuts
	if err := p.SwapOutBlocks(ids, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().SwapOuts - before; got != 1 {
		t.Fatalf("sequential 64-block batch issued %d swap operations, want 1", got)
	}
	if got := int(e.ins.batchRuns.Value()); got != 1 {
		t.Fatalf("executor_batch_runs_total = %d, want 1", got)
	}
	if got := int(e.ins.batchBlocks.Value()); got != 64 {
		t.Fatalf("executor_batch_blocks_total = %d, want 64", got)
	}
}

func TestBlockPoolRoundTrip(t *testing.T) {
	e := newPoolExecutor(t)
	const elems, blocks = 16, 32
	p, err := e.RegisterBlockPool("kv", elems, blocks)
	if err != nil {
		t.Fatal(err)
	}
	// Write distinctive contents into a fragmented working set.
	ids := []int{0, 1, 2, 7, 8, 20}
	var packed []float32
	for _, id := range ids {
		packed = append(packed, blockFill(id, elems)...)
	}
	if err := p.WriteBlocks(ids, packed); err != nil {
		t.Fatal(err)
	}
	// Swap out in scrambled order with duplicates; coalescing handles both.
	scrambled := []int{20, 2, 0, 8, 1, 7, 7, 0}
	if err := p.SwapOutBlocks(scrambled, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if st := p.BlockState(id); st != Swapped {
			t.Fatalf("block %d state %s after batch swap-out", id, st)
		}
	}
	if st := p.BlockState(3); st != Resident {
		t.Fatalf("unrequested block 3 state %s", st)
	}
	// Reading a swapped block refuses; restore and compare bit-exactly.
	if _, err := p.ReadBlocks([]int{7}); !errors.Is(err, ErrNotResident) {
		t.Fatalf("ReadBlocks on swapped block: %v, want ErrNotResident", err)
	}
	if err := p.SwapInBlocks(ids); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadBlocks(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range packed {
		if got[i] != packed[i] {
			t.Fatalf("restored data differs at element %d: %v != %v", i, got[i], packed[i])
		}
	}
	if e.Stats().Verified == 0 {
		t.Fatal("no verified restores counted")
	}
}

// TestBlockPoolRunGranularity pins the documented restore granularity:
// requesting one block of a stored run restores the whole run.
func TestBlockPoolRunGranularity(t *testing.T) {
	e := newPoolExecutor(t)
	p, err := e.RegisterBlockPool("kv", 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SwapOutBlocks([]int{4, 5, 6, 7}, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.SwapInBlocks([]int{5}); err != nil {
		t.Fatal(err)
	}
	for id := 4; id <= 7; id++ {
		if st := p.BlockState(id); st != Resident {
			t.Fatalf("block %d state %s, want Resident (run granularity)", id, st)
		}
	}
}

func TestBlockPoolStateErrors(t *testing.T) {
	e := newPoolExecutor(t)
	p, err := e.RegisterBlockPool("kv", 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-range IDs refuse everywhere.
	if err := p.SwapOutBlocks([]int{16}, false, 0); err == nil {
		t.Fatal("out-of-range swap-out accepted")
	}
	if err := p.SwapInBlocks([]int{-1}); err == nil {
		t.Fatal("negative-ID swap-in accepted")
	}
	if err := p.WriteBlocks([]int{3, 3}, make([]float32, 16)); err == nil {
		t.Fatal("duplicate WriteBlocks IDs accepted")
	}
	// A batch touching one already-swapped block fails whole: no block of
	// the batch changes state.
	if err := p.SwapOutBlocks([]int{0, 1}, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.SwapOutBlocks([]int{1, 2, 3}, false, 0); !errors.Is(err, ErrNotResident) {
		t.Fatalf("mixed-state batch: %v, want ErrNotResident", err)
	}
	for id := 2; id <= 3; id++ {
		if st := p.BlockState(id); st != Resident {
			t.Fatalf("block %d state %s after failed batch, want Resident (atomic claim)", id, st)
		}
	}
	// Swap-in of resident blocks is an idempotent no-op.
	if err := p.SwapInBlocks([]int{4, 5}); err != nil {
		t.Fatalf("resident swap-in: %v", err)
	}
	// Empty batches are legal no-ops.
	if err := p.SwapOutBlocks(nil, false, 0); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := p.Swap(context.Background(), "batch-prefetch", nil, 0, false, 0); err != nil {
		t.Fatalf("empty prefetch: %v", err)
	}
}

func TestBlockPoolPrefetchOverlap(t *testing.T) {
	e := newPoolExecutor(t)
	p, err := e.RegisterBlockPool("kv", 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SwapOutBlocks([]int{0, 1, 2, 3, 10, 11, 30}, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	// One batch prefetch restores all three runs.
	if err := p.Swap(context.Background(), "batch-prefetch", CoalesceBlockIDs([]int{0, 1, 2, 3, 10, 11, 30}), 7, false, 0); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 3, 10, 30} {
		if st := p.BlockState(id); st != Resident {
			t.Fatalf("block %d state %s after prefetch", id, st)
		}
	}
}

func TestBlockPoolFree(t *testing.T) {
	e := newPoolExecutor(t)
	p, err := e.RegisterBlockPool("kv", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SwapOutBlocks([]int{0, 1}, false, 0); err != nil {
		t.Fatal(err)
	}
	devUsed := e.DeviceStats().Used
	if err := p.Free(); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(); !errors.Is(err, ErrFreed) {
		t.Fatalf("double free: %v, want ErrFreed", err)
	}
	if e.DeviceStats().Used >= devUsed {
		t.Fatal("device bytes not released by pool free")
	}
	if e.HostStats().Used != 0 {
		t.Fatalf("host pool still holds %d bytes after pool free", e.HostStats().Used)
	}
	if err := p.SwapOutBlocks([]int{2}, false, 0); !errors.Is(err, ErrFreed) {
		t.Fatalf("swap-out on freed pool: %v, want ErrFreed", err)
	}
	if e.Live() != 0 {
		t.Fatalf("Live() = %d after pool free", e.Live())
	}
}

// TestBlockPoolConcurrentBatches drives disjoint batches concurrently
// (run under -race via make race): distinct runs never contend, and the
// bounded window serialises what must serialise.
func TestBlockPoolConcurrentBatches(t *testing.T) {
	e := newPoolExecutor(t)
	const elems, blocks, workers = 32, 256, 8
	p, err := e.RegisterBlockPool("kv", elems, blocks)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := w * (blocks / workers)
			ids := []int{base, base + 1, base + 2, base + 5}
			for iter := 0; iter < 10; iter++ {
				if err := p.SwapOutBlocks(ids, true, compress.ZVC); err != nil {
					errs <- fmt.Errorf("worker %d out: %w", w, err)
					return
				}
				if err := p.SwapInBlocks(ids); err != nil {
					errs <- fmt.Errorf("worker %d in: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := e.Stats().SwapOuts; got != workers*10*2 {
		t.Fatalf("swap-outs = %d, want %d (2 runs x 10 iters x %d workers)", got, workers*10*2, workers)
	}
}

// TestPoolReservationFollowsSwappedBlocks pins the device-reservation rule a
// pool shares with a tensor: the commit that leaves every block Swapped
// releases the reservation, the first swap-in re-takes it, and an OOM on
// that re-take fails the whole batch with every block still Swapped and its
// blob intact.
func TestPoolReservationFollowsSwappedBlocks(t *testing.T) {
	const elems, blocks = 256, 4
	all := []int{0, 1, 2, 3}
	e, err := New(Config{DeviceCapacity: 6000, HostCapacity: 1 << 20, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.RegisterBlockPool("kv", elems, blocks)
	if err != nil {
		t.Fatal(err)
	}
	var want []float32
	for _, id := range all {
		want = append(want, blockFill(id, elems)...)
	}
	if err := p.WriteBlocks(all, want); err != nil {
		t.Fatal(err)
	}
	used := func(step string, want int64) {
		t.Helper()
		if got := e.DeviceStats().Used; got != want {
			t.Fatalf("%s: device holds %d bytes, want %d", step, got, want)
		}
	}
	used("registered", p.Bytes())
	if err := p.SwapOutBlocks([]int{0, 1, 2}, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	used("one block resident", p.Bytes())
	if err := p.SwapOutBlocks([]int{3}, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	used("every block swapped", 0)
	if err := p.SwapInBlocks([]int{3}); err != nil {
		t.Fatal(err)
	}
	used("first block back", p.Bytes())
	if err := p.SwapOutBlocks([]int{3}, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	used("every block swapped again", 0)

	// The released bytes are someone else's now: the re-take cannot fit.
	other, err := e.Register("other", tensor.FromSlice(make([]float32, elems*blocks)))
	if err != nil {
		t.Fatalf("register into the released reservation: %v", err)
	}
	if err := p.SwapInBlocks(all); !errors.Is(err, devmem.ErrOutOfMemory) {
		t.Fatalf("swap-in with the device full: %v, want ErrOutOfMemory", err)
	}
	if got := p.SwappedIDs(); len(got) != blocks {
		t.Fatalf("failed re-take left swapped blocks %v, want all %d", got, blocks)
	}
	used("failed re-take", p.Bytes()) // the tensor's
	if err := e.Free(other); err != nil {
		t.Fatal(err)
	}
	// Two stored runs restore concurrently; one of them re-takes the
	// reservation and both decode into it.
	if err := p.SwapInBlocksCtx(context.Background(), all).Wait(); err != nil {
		t.Fatal(err)
	}
	used("restored", p.Bytes())
	if got, err := p.ReadBlocks(all); err != nil || !sameBits(got, want) {
		t.Fatalf("restore after a failed re-take: err %v, bit-exact %v", err, sameBits(got, want))
	}
}

// TestPoolPrefetchJoinsAsyncSwapIn: a prefetch that finds blocks under an
// asynchronous swap-in waits on that swap-in's ticket instead of failing
// with ErrBusy, and restores whatever else it asked for alongside; a block
// held by a swap-out still refuses it.
func TestPoolPrefetchJoinsAsyncSwapIn(t *testing.T) {
	e, err := New(Config{DeviceCapacity: 1 << 22, HostCapacity: 1 << 22, Verify: true,
		Faults: faultinject.New(
			faultinject.Fault{Site: faultinject.SiteEncode, Mode: faultinject.Delay, Delay: 50 * time.Millisecond, After: 3},
			faultinject.Fault{Site: faultinject.SiteDecode, Mode: faultinject.Delay, Delay: 50 * time.Millisecond, Every: 1},
		)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	p, err := e.RegisterBlockPool("kv", 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2, 3}
	if err := p.SwapOutBlocks(ids, true, compress.ZVC); err != nil { // encode 1
		t.Fatal(err)
	}
	if err := p.SwapOutBlocks([]int{8}, true, compress.ZVC); err != nil { // encode 2
		t.Fatal(err)
	}
	ctx := context.Background()
	in := p.SwapInBlocksCtx(ctx, ids)
	if err := p.Swap(ctx, "batch-prefetch", CoalesceBlockIDs([]int{2, 3, 8}), 3, false, 0); err != nil {
		t.Fatalf("prefetch overlapping an async swap-in: %v, want nil", err)
	}
	select {
	case <-in.Done():
	default:
		t.Fatal("prefetch returned before the swap-in it joined")
	}
	if err := in.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 3, 8} {
		if st := p.BlockState(id); st != Resident {
			t.Fatalf("block %d state %s after the joined prefetch", id, st)
		}
	}
	if st := e.Stats(); st.SwapIns != 2 || st.BusyRejections != 0 {
		t.Fatalf("stats %+v, want 2 restores (one joined) and no busy refusal", st)
	}

	out := p.SwapOutBlocksCtx(ctx, ids, true, compress.ZVC) // encode 3: delayed
	if err := p.Swap(ctx, "batch-prefetch", CoalesceBlockIDs(ids), len(ids), false, 0); !errors.Is(err, ErrBusy) {
		t.Fatalf("prefetch over an in-flight swap-out: %v, want ErrBusy", err)
	}
	if err := out.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestViewRunsAliasesPoolMemory: ViewRuns is ReadBlocks without the copy —
// one slice of the pool's own memory per run, the same content, and the
// same refusals for blocks that are not resident or out of range.
func TestViewRunsAliasesPoolMemory(t *testing.T) {
	e := newPoolExecutor(t)
	const elems, blocks = 16, 12
	p, err := e.RegisterBlockPool("kv", elems, blocks)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{1, 2, 3, 7, 9, 10}
	var packed []float32
	for _, id := range ids {
		packed = append(packed, blockFill(id, elems)...)
	}
	if err := p.WriteBlocks(ids, packed); err != nil {
		t.Fatal(err)
	}
	runs := CoalesceBlockIDs(ids)
	views, err := p.ViewRuns(nil, runs)
	if err != nil || len(views) != len(runs) {
		t.Fatalf("ViewRuns: %d views for %d runs, %v", len(views), len(runs), err)
	}
	var flat []float32
	for i, v := range views {
		if len(v) != runs[i].Count*elems || &v[0] != &p.data[runs[i].Start*elems] {
			t.Fatalf("view %d: %d elements at %p, want run %+v of the pool's own memory", i, len(v), &v[0], runs[i])
		}
		flat = append(flat, v...)
	}
	want, _ := p.ReadBlocks(ids)
	for i := range want {
		if flat[i] != want[i] {
			t.Fatalf("views differ from ReadBlocks at %d", i)
		}
	}
	if err := p.SwapOutBlocks([]int{7}, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ViewRuns(nil, runs); !errors.Is(err, ErrNotResident) {
		t.Errorf("view over a swapped block: %v, want ErrNotResident", err)
	}
	if _, err := p.ViewRuns(nil, []BlockRun{{Start: blocks - 1, Count: 2}}); err == nil {
		t.Error("view past the pool's end succeeded")
	}
}
