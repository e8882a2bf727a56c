package server

// Tests for served swaps running in their handler's goroutine: nothing is
// handed to the executor's worker pool, a client that gives up leaves
// nothing held, Close waits out a swap a handler is still running,
// speculative work — and only it — sheds at run boundaries of the handler's
// own loop, and two callers sharing a tier never see each other's
// demotions as contention. `make race` and CI's race step run them under
// -race.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"cswap/client"
	"cswap/internal/executor"
	"cswap/internal/faultinject"
	"cswap/internal/metrics"
	"cswap/internal/tensor"
)

// sameFloats compares two payloads bit for bit.
func sameFloats(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// waitFor polls cond until it holds, failing the test after two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestServedSwapsRunInHandler drives every served operation kind on a
// two-shard cluster, then drains a shard (its migrations restore and swap
// out again, reswap), and requires that no run went to the executor's
// worker pool: executor_async_submitted_total stays 0 for every op on every
// shard, and every tensor still reads back bit-exact.
func TestServedSwapsRunInHandler(t *testing.T) {
	c, err := NewCluster(WithShards(2), WithDeviceCapacity(64<<20), WithHostCapacity(64<<20),
		WithVerify(true), WithRetryAfter(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(c.Handler())
	defer func() {
		hs.Close()
		_ = c.Close()
	}()
	cl := client.New(hs.URL, client.WithRetry(0, 0))
	ctx := context.Background()

	want := map[string][]float32{}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("t%d", i)
		want[name] = tensor.NewGenerator(int64(i)).Uniform(4096, 0.5).Data
		if err := cl.Register(ctx, name, want[name]); err != nil {
			t.Fatal(err)
		}
		if err := cl.SwapOut(ctx, name, client.WithCodec(client.ZVC)); err != nil {
			t.Fatal(err)
		}
		if err := cl.Prefetch(ctx, name); err != nil {
			t.Fatal(err)
		}
		if err := cl.SwapOut(ctx, name, client.WithRaw()); err != nil {
			t.Fatal(err)
		}
		if got, err := cl.SwapIn(ctx, name); err != nil || !sameFloats(got, want[name]) {
			t.Fatalf("%s: swap-in %v, or its bytes differ", name, err)
		}
		if err := cl.SwapOut(ctx, name, client.WithCodec(client.RLE)); err != nil {
			t.Fatal(err)
		}
	}
	const blockElems = 64
	ids := []int{0, 1, 2, 5, 6, 9}
	blocks := tensor.NewGenerator(99).Uniform(len(ids)*blockElems, 0.5).Data
	if err := cl.RegisterPool(ctx, "kv", blockElems, 16); err != nil {
		t.Fatal(err)
	}
	if err := cl.WriteBlocks(ctx, "kv", ids, blocks); err != nil {
		t.Fatal(err)
	}
	if err := cl.SwapOutBlocks(ctx, "kv", ids, client.WithCodec(client.ZVC)); err != nil {
		t.Fatal(err)
	}
	if err := cl.PrefetchBlocks(ctx, "kv", ids[:3]); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SwapInBlocks(ctx, "kv", ids); err != nil {
		t.Fatal(err)
	}
	if err := cl.SwapOutBlocks(ctx, "kv", ids); err != nil {
		t.Fatal(err)
	}

	if moved, _, err := c.DrainShard(0); err != nil || moved == 0 {
		t.Fatalf("drain moved %d objects (%v), want some: no reswap ran", moved, err)
	}
	for name, data := range want {
		if got, err := cl.SwapIn(ctx, name); err != nil || !sameFloats(got, data) {
			t.Fatalf("%s after the drain: swap-in %v, or its bytes differ", name, err)
		}
	}
	bd, err := cl.SwapInBlocks(ctx, "kv", ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if got, _ := bd.Block(id); !sameFloats(got, blocks[i*blockElems:(i+1)*blockElems]) {
			t.Fatalf("pool block %d differs after the drain", id)
		}
	}

	snap := c.Registry().Snapshot()
	for shard := 0; shard < c.NumShards(); shard++ {
		for _, op := range []string{"swap-out", "swap-in", "prefetch"} {
			v, ok := snap.Counter("executor_async_submitted_total",
				metrics.L("shard", strconv.Itoa(shard)), metrics.L("op", op))
			if !ok || v != 0 {
				t.Errorf("shard %d executor_async_submitted_total{op=%s} = %v (present %v), want 0", shard, op, v, ok)
			}
		}
	}
}

// TestCanceledSwapInLeavesNothingHeld: a client that gives up mid swap-in
// sees its own context error; the swap still commits in the handler, which
// then releases the entry and its admission slot, so the next request on
// the tensor succeeds without a 409. Once the listener is closed, Close
// returns with no slot held.
func TestCanceledSwapInLeavesNothingHeld(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{Site: faultinject.SiteDecode, Mode: faultinject.Delay, Delay: 100 * time.Millisecond})
	s, err := NewServer(WithDeviceCapacity(64<<20), WithHostCapacity(64<<20), WithVerify(true),
		WithRetryAfter(time.Millisecond), WithFaults(inj))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	cl := client.New(hs.URL, client.WithRetry(0, 0))
	bg := context.Background()
	data := tensor.NewGenerator(4).Uniform(4096, 0.5).Data
	if err := cl.Register(bg, "t", data); err != nil {
		t.Fatal(err)
	}
	if err := cl.SwapOut(bg, "t", client.WithCodec(client.ZVC)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(bg)
	go func() {
		for inj.Stats().Delays == 0 { // the swap-in is decoding
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	if _, err := cl.SwapIn(ctx, "t"); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled swap-in: %v, want context.Canceled", err)
	}
	ent, err := s.session(DefaultTenant).lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the canceled swap-in to commit and release its entry", func() bool {
		if !ent.mu.TryLock() {
			return false
		}
		ent.mu.Unlock()
		return s.sched.Held() == 0
	})
	if st := ent.obj.p.BlockState(0); st != executor.Resident {
		t.Fatalf("tensor state %v after the canceled swap-in, want Resident (it ran to commit)", st)
	}
	if err := cl.SwapOut(bg, "t", client.WithRaw()); err != nil {
		t.Fatalf("next request after the cancel: %v", err)
	}
	if got, err := cl.SwapIn(bg, "t"); err != nil || !sameFloats(got, data) {
		t.Fatalf("swap-in after the cancel: %v, or its bytes differ", err)
	}
	if v := schedCounter(t, s, "server_busy_total"); v != 0 {
		t.Fatalf("server_busy_total = %v, want 0", v)
	}

	hs.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := s.sched.Held(); n != 0 {
		t.Fatalf("admission slots held after Close = %d, want 0", n)
	}
}

// TestCloseWaitsOutServedSwap: Close, called while a handler is mid
// swap-out and the listener still accepts, returns only once that swap has
// committed — the admission barrier (sched.Scheduler.Drain) is what waits
// for it, since a served swap holds no slot of the executor's window — and
// the handler still answers its client.
func TestCloseWaitsOutServedSwap(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{Site: faultinject.SiteEncode, Mode: faultinject.Delay, Delay: 150 * time.Millisecond, Every: 1})
	// The 16 KiB tensor is one chunk (compress.ChunkCount), so the delay is
	// paid once.
	s, err := NewServer(WithDeviceCapacity(64<<20), WithHostCapacity(64<<20), WithVerify(true),
		WithRetryAfter(time.Millisecond), WithFaults(inj))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	cl := client.New(hs.URL, client.WithRetry(0, 0))
	ctx := context.Background()
	if err := cl.Register(ctx, "t", tensor.NewGenerator(5).Uniform(4096, 0.5).Data); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cl.SwapOut(ctx, "t", client.WithCodec(client.ZVC)) }()
	waitFor(t, "the swap-out to start encoding", func() bool { return inj.Stats().Delays > 0 })
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := s.Executor().Stats().SwapOuts; n != 1 {
		t.Fatalf("swap-outs at Close's return = %d, want 1: Close did not wait for the handler's swap", n)
	}
	if n := s.sched.Held(); n != 0 {
		t.Fatalf("admission slots held after Close = %d, want 0", n)
	}
	if err := <-done; err != nil {
		t.Fatalf("swap-out in flight across Close: %v", err)
	}
}

// TestServedPrefetchShedsForCritical: three batch swap-ins of many runs
// hold the three slots, each run's decode slowed by a fault — a speculative
// prefetch, a normal-lane and a critical-lane swap-in — and two critical
// swap-ins queue behind them past StarveAfter. The prefetch yields at a run
// boundary of its handler's loop — 429 saturated after at least one run,
// its remaining runs back to Swapped — and the first critical swap-in takes
// its slot. The second stays starved while the other two batches run on:
// neither sheds, both restore whole and bit-exact, and so do the two
// critical swap-ins. Exactly one preemption is counted.
func TestServedPrefetchShedsForCritical(t *testing.T) {
	// Every decode — one per run, none before the batches — sleeps.
	inj := faultinject.New(faultinject.Fault{Site: faultinject.SiteDecode, Mode: faultinject.Delay, Delay: 20 * time.Millisecond, Every: 1})
	s, url := newInternalServer(t, WithMaxInFlight(3), WithTierDir(t.TempDir()), WithFaults(inj),
		WithSched(SchedConfig{Enabled: true, StarveAfter: 2 * time.Millisecond}))
	cl := client.New(url, client.WithRetry(0, 0))
	ctx := context.Background()

	const blockElems, numBlocks = 256, 32
	var ids []int
	for id := 0; id < numBlocks; id += 2 { // 16 runs
		ids = append(ids, id)
	}
	pools := []string{"kv", "normal", "critical"}
	written := map[string][]float32{}
	for i, name := range pools {
		written[name] = tensor.NewGenerator(int64(7+i)).Uniform(len(ids)*blockElems, 0.7).Data
		if err := cl.RegisterPool(ctx, name, blockElems, numBlocks); err != nil {
			t.Fatal(err)
		}
		if err := cl.WriteBlocks(ctx, name, ids, written[name]); err != nil {
			t.Fatal(err)
		}
		if err := cl.SwapOutBlocks(ctx, name, ids, client.WithCodec(client.ZVC)); err != nil {
			t.Fatal(err)
		}
	}
	kv, err := s.session(DefaultTenant).lookup("kv")
	if err != nil {
		t.Fatal(err)
	}
	if moved, err := kv.obj.p.DemoteSwapped(); err != nil || moved == 0 {
		t.Fatalf("demoting the pool's runs moved %d bytes (%v)", moved, err)
	}
	hot := map[string][]float32{}
	for i, name := range []string{"hot", "hot2"} {
		hot[name] = tensor.NewGenerator(int64(20+i)).Uniform(4096, 0.5).Data
		if err := cl.Register(ctx, name, hot[name]); err != nil {
			t.Fatal(err)
		}
		if err := cl.SwapOut(ctx, name, client.WithCodec(client.ZVC)); err != nil {
			t.Fatal(err)
		}
	}

	prefetched := make(chan error, 1)
	go func() { prefetched <- cl.PrefetchBlocks(ctx, "kv", ids) }()
	waitFor(t, "the prefetch's first run to decode", func() bool { return inj.Stats().Delays > 0 })
	restored := map[string]chan error{}
	for _, name := range pools[1:] {
		var opts []client.SwapOption
		if name == "critical" {
			opts = append(opts, client.WithLane(client.LaneCritical))
		}
		restored[name] = make(chan error, 1)
		go func() {
			bd, err := cl.SwapInBlocks(ctx, name, ids, opts...)
			for i, id := range ids {
				if err != nil {
					break
				}
				if got, _ := bd.Block(id); !sameFloats(got, written[name][i*blockElems:(i+1)*blockElems]) {
					err = fmt.Errorf("block %d differs from the written one", id)
				}
			}
			restored[name] <- err
		}()
	}
	waitFor(t, "all three batches to hold a slot", func() bool { return s.sched.Held() == 3 })
	var wg sync.WaitGroup
	for name, want := range hot {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := cl.SwapIn(ctx, name, client.WithLane(client.LaneCritical), client.WithDeadline(10*time.Second))
			if err != nil || !sameFloats(got, want) {
				t.Errorf("critical swap-in of %s: %v, or its bytes differ", name, err)
			}
		}()
	}
	if err := <-prefetched; !errors.Is(err, client.ErrSaturated) {
		t.Fatalf("shed prefetch: %v, want ErrSaturated (429 saturated)", err)
	}
	for _, name := range pools[1:] {
		if err := <-restored[name]; err != nil {
			t.Errorf("%s-lane batch swap-in under a starved critical waiter: %v, want it run to commit", name, err)
		}
	}
	wg.Wait()
	resident, swapped := 0, 0
	for _, id := range ids {
		switch st := kv.obj.p.BlockState(id); st {
		case executor.Resident:
			resident++
		case executor.Swapped:
			swapped++
		default:
			t.Fatalf("block %d state %v after the shed, want Resident or Swapped", id, st)
		}
	}
	if resident == 0 || swapped == 0 {
		t.Fatalf("after the shed %d blocks resident, %d swapped: want both (shed after at least one run)", resident, swapped)
	}
	for _, name := range []string{"executor_sched_preemptions_total", "server_sched_preemptions_total"} {
		if v := schedCounter(t, s, name); v != 1 {
			t.Fatalf("%s = %v, want 1", name, v)
		}
	}
	if v := schedCounter(t, s, "executor_sched_shed_runs_total"); v != float64(swapped) {
		t.Fatalf("executor_sched_shed_runs_total = %v, want %d (the runs left Swapped)", v, swapped)
	}
}

// TestTwoCallersShareATier: two callers on one shard each cycle their own
// sealed tensors through a host pool of about one and a half tensors over a
// spill tier, so each swap-out drops or demotes the other caller's copy —
// possibly while that caller is swapping it in. Nobody raced anyone on a
// tensor: server_busy_total stays 0, and every read is bit-exact. A
// swap-out may find no room while the other caller's copy is in flight
// (507), and then leaves its tensor resident.
//
// The callers meet in the host pool on every run: each one's first
// swap-out commits before the next one's starts and before either swaps
// in, so caller 1's finds caller 0's copy filling the pool and demotes it.
// One swapped tensor stays under the background demoter's watermark, so
// that demotion is the inline path's.
func TestTwoCallersShareATier(t *testing.T) {
	const elems = 1 << 14
	s, url := newInternalServer(t, WithHostCapacity(3*4*elems/2), WithTierDir(t.TempDir()))
	ctx := context.Background()
	type caller struct {
		cl    *client.Client
		names []string
		want  map[string][]float32
	}
	callers := make([]caller, 2)
	for g := range callers {
		c := caller{
			cl:    client.New(url, client.WithRetry(0, 0)),
			names: []string{fmt.Sprintf("c%d-a", g), fmt.Sprintf("c%d-b", g)},
			want:  map[string][]float32{},
		}
		for i, name := range c.names {
			c.want[name] = tensor.NewGenerator(int64(10*g+i)).Uniform(elems, 0.5).Data
			if err := c.cl.Register(ctx, name, c.want[name]); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.cl.SwapOut(ctx, c.names[0], client.WithRaw()); err != nil {
			t.Fatalf("%s: first swap-out: %v", c.names[0], err)
		}
		callers[g] = c
	}
	if v := schedCounter(t, s, "executor_tier_demotions_total"); v != 1 {
		t.Fatalf("executor_tier_demotions_total = %v after both first swap-outs, want 1", v)
	}
	var wg sync.WaitGroup
	for _, c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cycle := 0; cycle < 60; cycle++ {
				for i, name := range c.names {
					if cycle > 0 || i > 0 { // the first swap-out ran above
						if err := c.cl.SwapOut(ctx, name, client.WithRaw()); errors.Is(err, client.ErrOutOfMemory) {
							continue
						} else if err != nil {
							t.Errorf("%s cycle %d: swap-out: %v", name, cycle, err)
							return
						}
					}
					got, err := c.cl.SwapIn(ctx, name)
					if err != nil {
						t.Errorf("%s cycle %d: swap-in: %v", name, cycle, err)
						return
					}
					if !sameFloats(got, c.want[name]) {
						t.Errorf("%s cycle %d: read differs from the registered bytes", name, cycle)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if v := schedCounter(t, s, "server_busy_total"); v != 0 {
		t.Fatalf("server_busy_total = %v, want 0", v)
	}
	if v := schedCounter(t, s, "executor_tier_demotions_total"); v == 0 {
		t.Fatal("no demotion ran: the callers never met in the host pool")
	}
}
