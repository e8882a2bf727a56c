package executor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"cswap/internal/compress"
	"cswap/internal/faultinject"
	"cswap/internal/metrics"
	"cswap/internal/tensor"
)

// TestAsyncPipelineOverlap is the acceptance scenario: several tensors'
// swap-outs (and later prefetches) are genuinely in flight concurrently —
// the in-flight gauge observes > 1 — every restore is byte-exact under
// Verify, and the pipeline drains clean. Run with -race.
func TestAsyncPipelineOverlap(t *testing.T) {
	obs := metrics.NewObserver()
	// Delay every codec op slightly so the operations demonstrably overlap
	// instead of racing to completion between submissions.
	inj := faultinject.New(
		faultinject.Fault{Site: faultinject.SiteEncode, Mode: faultinject.Delay, Delay: 2 * time.Millisecond, Every: 1},
		faultinject.Fault{Site: faultinject.SiteDecode, Mode: faultinject.Delay, Delay: 2 * time.Millisecond, Every: 1},
	)
	e, err := New(Config{
		DeviceCapacity: 16 << 20,
		HostCapacity:   32 << 20,
		Launch:         compress.Launch{Grid: 8, Block: 64},
		Verify:         true,
		MaxInFlight:    4,
		Observer:       obs,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}

	const tensors = 4
	gen := tensor.NewGenerator(51)
	handles := make([]*Handle, tensors)
	want := make([][]float32, tensors)
	for i := range handles {
		tn := gen.Uniform(20000, 0.6)
		want[i] = append([]float32(nil), tn.Data...)
		h, err := e.Register(fmt.Sprintf("t%d", i), tn)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}

	// Issue all swap-outs without waiting — the pipelined forward pass.
	outs := make([]*Ticket, tensors)
	for i, h := range handles {
		outs[i] = e.SwapOutAsyncCtx(context.Background(), h, true, compress.Algorithms()[i%4])
	}
	e.Drain()
	for i, tk := range outs {
		if err := tk.Wait(); err != nil {
			t.Fatalf("swap-out %d: %v", i, err)
		}
		if handles[i].State() != Swapped {
			t.Fatalf("tensor %d not Swapped after drained swap-out", i)
		}
	}

	// ≥ 2 operations were in the window at once: slots are taken at
	// submission and the delays keep the first op alive past the second
	// submission, so the peak gauge must exceed 1.
	peak := obs.Reg().Gauge("executor_async_inflight_peak").Value()
	if peak <= 1 {
		t.Fatalf("in-flight peak = %v, want > 1 (no overlap observed)", peak)
	}
	if g := obs.Reg().Gauge("executor_async_inflight").Value(); g != 0 {
		t.Fatalf("in-flight gauge = %v after Drain, want 0", g)
	}

	// Prefetch everything back — the pipelined backward pass.
	ins := make([]*Ticket, tensors)
	for i := tensors - 1; i >= 0; i-- {
		ins[i] = e.PrefetchCtx(context.Background(), handles[i])
	}
	for i, tk := range ins {
		if err := tk.Wait(); err != nil {
			t.Fatalf("prefetch %d: %v", i, err)
		}
		got, err := handles[i].Data()
		if err != nil {
			t.Fatal(err)
		}
		for k := range want[i] {
			if math.Float32bits(got[k]) != math.Float32bits(want[i][k]) {
				t.Fatalf("tensor %d: restored mismatch at %d", i, k)
			}
		}
	}
	e.Drain()

	// The queue-depth histogram saw one observation per submission.
	depth := obs.Reg().HistogramWith("executor_async_queue_depth", metrics.ExpBuckets(1, 2, 10))
	if depth.Count() != 2*tensors {
		t.Fatalf("queue-depth observations = %d, want %d", depth.Count(), 2*tensors)
	}
	if st := e.Stats(); st.SwapOuts != tensors || st.SwapIns != tensors || st.Verified != tensors {
		t.Fatalf("stats %+v", st)
	}
	for _, h := range handles {
		if err := e.Free(h); err != nil {
			t.Fatal(err)
		}
	}
	if e.Live() != 0 || e.DeviceStats().Used != 0 || e.HostStats().Used != 0 {
		t.Fatal("async pipeline leaked memory")
	}
}

// TestAsyncConcurrentMisuseReturnsErrBusy drives one handle from two
// sides at once: the claim is taken synchronously at submission, so the
// second operation must observe ErrBusy — never a race or a corrupted
// tensor. Run with -race.
func TestAsyncConcurrentMisuseReturnsErrBusy(t *testing.T) {
	inj := faultinject.New(
		faultinject.Fault{Site: faultinject.SiteEncode, Mode: faultinject.Delay, Delay: 20 * time.Millisecond},
	)
	e, err := New(Config{
		DeviceCapacity: 1 << 22,
		HostCapacity:   1 << 22,
		Launch:         compress.Launch{Grid: 4, Block: 64},
		Verify:         true,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	tn := tensor.NewGenerator(52).Uniform(20000, 0.6)
	want := append([]float32(nil), tn.Data...)
	h, err := e.Register("x", tn)
	if err != nil {
		t.Fatal(err)
	}

	first := e.SwapOutAsyncCtx(context.Background(), h, true, compress.ZVC)
	// The first submission claimed SwappingOut before returning and the
	// injected delay keeps it in flight, so every concurrent operation on
	// the same handle must fail fast with ErrBusy.
	second := e.SwapOutAsyncCtx(context.Background(), h, true, compress.ZVC)
	if err := second.Wait(); !errors.Is(err, ErrBusy) {
		t.Fatalf("concurrent SwapOutAsync err = %v, want ErrBusy", err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); !errors.Is(err, ErrBusy) {
		t.Fatalf("concurrent SwapOut err = %v, want ErrBusy", err)
	}
	if err := e.SwapIn(h); !errors.Is(err, ErrBusy) {
		t.Fatalf("concurrent SwapIn err = %v, want ErrBusy", err)
	}
	if err := e.Free(h); !errors.Is(err, ErrBusy) {
		t.Fatalf("concurrent Free err = %v, want ErrBusy", err)
	}
	if err := first.Wait(); err != nil {
		t.Fatalf("winning swap-out: %v", err)
	}
	if st := e.Stats(); st.BusyRejections != 4 {
		t.Fatalf("busy rejections = %d, want 4", st.BusyRejections)
	}

	// The tensor survived the contention bit-exactly.
	if err := e.SwapIn(h); err != nil {
		t.Fatal(err)
	}
	got, err := h.Data()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("mismatch at %d after contention", i)
		}
	}
}

// TestSyncConcurrentMisuseReturnsErrBusy is the same contract on the
// fully synchronous API: two goroutines calling SwapOut on one handle,
// one wins, the other gets ErrBusy (the delay pins the loser inside the
// winner's window). Run with -race.
func TestSyncConcurrentMisuseReturnsErrBusy(t *testing.T) {
	inj := faultinject.New(
		faultinject.Fault{Site: faultinject.SiteEncode, Mode: faultinject.Delay, Delay: 20 * time.Millisecond},
	)
	e, err := New(Config{
		DeviceCapacity: 1 << 22,
		HostCapacity:   1 << 22,
		Launch:         compress.Launch{Grid: 4, Block: 64},
		Verify:         true,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.Register("x", tensor.NewGenerator(53).Uniform(20000, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	winner := make(chan error, 1)
	go func() {
		close(started)
		winner <- e.SwapOut(h, true, compress.ZVC)
	}()
	<-started
	// Wait until the winner holds the claim, then collide with it.
	for h.State() != SwappingOut {
		time.Sleep(100 * time.Microsecond)
	}
	if err := e.SwapOut(h, true, compress.ZVC); !errors.Is(err, ErrBusy) {
		t.Fatalf("loser err = %v, want ErrBusy", err)
	}
	if err := <-winner; err != nil {
		t.Fatalf("winner err = %v", err)
	}
	if err := e.SwapIn(h); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncBackpressureBoundsWindow pins the bounded window: with
// MaxInFlight=2 and slow encodes, six submissions never hold more than
// two slots, and at least one submitter had to wait. Each tensor is one
// chunk, so the per-chunk delay is each swap-out's whole encode: it must
// outlast a submission even under the race detector. The window counts
// calls, not runs: at MaxInFlight=1 a three-run batch is one submission
// that never waits on itself, and a second call issued while it runs
// waits until the batch's ticket has resolved.
func TestAsyncBackpressureBoundsWindow(t *testing.T) {
	inj := faultinject.New(
		faultinject.Fault{Site: faultinject.SiteEncode, Mode: faultinject.Delay, Delay: 10 * time.Millisecond, Every: 1},
	)
	e, err := New(Config{
		DeviceCapacity: 16 << 20,
		HostCapacity:   32 << 20,
		Launch:         compress.Launch{Grid: 4, Block: 64},
		Verify:         true,
		MaxInFlight:    2,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := tensor.NewGenerator(54)
	var tickets []*Ticket
	for i := 0; i < 6; i++ {
		h, err := e.Register(fmt.Sprintf("t%d", i), gen.Uniform(20000, 0.6))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, e.SwapOutAsyncCtx(context.Background(), h, true, compress.ZVC))
		if got := e.InFlight(); got > 2 {
			t.Fatalf("in-flight %d exceeds MaxInFlight 2", got)
		}
	}
	e.Drain()
	for i, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatalf("swap-out %d: %v", i, err)
		}
	}
	peak := int(e.reg.Gauge("executor_async_inflight_peak").Value())
	if peak != 2 {
		t.Fatalf("in-flight peak = %d, want exactly the window size 2", peak)
	}
	if bp := e.reg.Counter("executor_async_backpressure_total").Value(); bp < 1 {
		t.Fatalf("backpressure stalls = %v, want >= 1 (six submissions through a window of two)", bp)
	}

	one := newCtxExecutor(t, 1, 10*time.Millisecond)
	p, err := one.RegisterBlockPool("kv", 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 3, 4, 6} // runs [0,2), [3,5) and [6,7)
	var want []float32
	for _, id := range ids {
		want = append(want, blockFill(id, 64)...)
	}
	if err := p.WriteBlocks(ids, want); err != nil {
		t.Fatal(err)
	}
	next, _ := registerTensor(t, one, "next", 256)
	batch := p.SwapOutBlocksCtx(context.Background(), ids, true, compress.ZVC)
	// A batch counts under its operation's label, swap-out.
	if n := counterValue(t, one, "executor_async_submitted_total", metrics.L("op", "swap-out")); n != 1 {
		t.Fatalf("a three-run batch made %v submissions, want 1", n)
	}
	if bp := counterValue(t, one, "executor_async_backpressure_total"); bp != 0 {
		t.Fatalf("backpressure stalls = %v after one batch at a window of one, want 0", bp)
	}
	second := one.SwapOutAsyncCtx(context.Background(), next, true, compress.ZVC)
	select {
	case <-batch.Done():
	default:
		t.Fatal("a second call took the window's one slot before the batch's ticket resolved")
	}
	for _, tk := range []*Ticket{batch, second} {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.SwapInBlocks(ids); err != nil {
		t.Fatal(err)
	}
	if got, err := p.ReadBlocks(ids); err != nil || !sameBits(got, want) {
		t.Fatalf("batch after its round trip: err %v, bit-exact %v", err, sameBits(got, want))
	}
}

// TestAsyncFaultInterleavings extends fault injection to async
// interleavings: encode failures and transfer-in corruption keep firing
// while several swaps are in flight, and every tensor still restores
// bit-exactly (degraded where needed) with no leaks. Run with -race.
func TestAsyncFaultInterleavings(t *testing.T) {
	inj := faultinject.New(
		faultinject.Fault{Site: faultinject.SiteEncode, Mode: faultinject.Fail, After: 3, Every: 7},
		faultinject.Fault{Site: faultinject.SiteTransferIn, Mode: faultinject.Corrupt, After: 2, Every: 5},
	)
	e, err := New(Config{
		DeviceCapacity: 16 << 20,
		HostCapacity:   64 << 20,
		Launch:         compress.Launch{Grid: 8, Block: 64},
		Verify:         true,
		MaxInFlight:    8,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 6
	const width = 8
	gen := tensor.NewGenerator(55)
	for r := 0; r < rounds; r++ {
		handles := make([]*Handle, width)
		want := make([][]float32, width)
		outs := make([]*Ticket, width)
		for i := 0; i < width; i++ {
			tn := gen.Uniform(10000, 0.6)
			want[i] = append([]float32(nil), tn.Data...)
			h, err := e.Register(fmt.Sprintf("r%d-t%d", r, i), tn)
			if err != nil {
				t.Fatal(err)
			}
			handles[i] = h
			outs[i] = e.SwapOutAsyncCtx(context.Background(), h, true, compress.Algorithms()[(r+i)%4])
		}
		ins := make([]*Ticket, width)
		for i := 0; i < width; i++ {
			if err := outs[i].Wait(); err != nil {
				t.Fatalf("round %d swap-out %d: %v", r, i, err)
			}
			ins[i] = e.PrefetchCtx(context.Background(), handles[i])
		}
		for i := 0; i < width; i++ {
			if err := ins[i].Wait(); err != nil {
				t.Fatalf("round %d prefetch %d: %v", r, i, err)
			}
			got, err := handles[i].Data()
			if err != nil {
				t.Fatal(err)
			}
			for k := range want[i] {
				if math.Float32bits(got[k]) != math.Float32bits(want[i][k]) {
					t.Fatalf("round %d tensor %d: mismatch at %d", r, i, k)
				}
			}
			if err := e.Free(handles[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	e.Drain()
	st := e.Stats()
	if st.EncodeFallbacks == 0 {
		t.Fatalf("encode faults never fired under async interleaving: %+v", st)
	}
	if st.DecodeRecoveries == 0 {
		t.Fatalf("transfer corruption never recovered under async interleaving: %+v", st)
	}
	if e.Live() != 0 || e.DeviceStats().Used != 0 || e.HostStats().Used != 0 {
		t.Fatal("faulty async interleavings leaked memory")
	}
}

// TestPrefetchSemantics pins Prefetch's idempotence: resident handles
// complete immediately, a duplicate prefetch joins the in-flight restore
// (one swap-in total), and misuse surfaces like any other operation.
func TestPrefetchSemantics(t *testing.T) {
	inj := faultinject.New(
		faultinject.Fault{Site: faultinject.SiteDecode, Mode: faultinject.Delay, Delay: 10 * time.Millisecond},
	)
	e, err := New(Config{
		DeviceCapacity: 1 << 22,
		HostCapacity:   1 << 22,
		Launch:         compress.Launch{Grid: 4, Block: 64},
		Verify:         true,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.Register("x", tensor.NewGenerator(56).Uniform(20000, 0.6))
	if err != nil {
		t.Fatal(err)
	}

	// Prefetching a resident tensor is a completed no-op.
	if err := e.PrefetchCtx(context.Background(), h).Wait(); err != nil {
		t.Fatalf("prefetch of resident handle: %v", err)
	}
	if st := e.Stats(); st.SwapIns != 0 {
		t.Fatalf("no-op prefetch swapped in: %+v", st)
	}

	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	// Two prefetches of a swapped tensor share one restore: the second
	// joins the first's ticket (the injected decode delay holds the first
	// in flight across the second submission).
	t1 := e.PrefetchCtx(context.Background(), h)
	t2 := e.PrefetchCtx(context.Background(), h)
	if err := t1.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Wait(); err != nil {
		t.Fatalf("joined prefetch: %v", err)
	}
	if t1 != t2 {
		t.Fatal("duplicate prefetch did not join the in-flight ticket")
	}
	if st := e.Stats(); st.SwapIns != 1 {
		t.Fatalf("duplicate prefetch restored twice: %+v", st)
	}

	// Prefetch of a freed handle fails like everything else.
	if err := e.Free(h); err != nil {
		t.Fatal(err)
	}
	if err := e.PrefetchCtx(context.Background(), h).Wait(); !errors.Is(err, ErrFreed) {
		t.Fatalf("prefetch after Free err = %v, want ErrFreed", err)
	}
}

// TestDrainBarrier pins Drain: trivially done when idle, and after it
// returns every previously issued ticket is resolved and every handle is
// in a stable state.
func TestDrainBarrier(t *testing.T) {
	e := newTestExecutor(t, 16<<20, 32<<20)
	e.Drain() // no work: returns immediately

	gen := tensor.NewGenerator(57)
	var handles []*Handle
	var tickets []*Ticket
	for i := 0; i < 6; i++ {
		h, err := e.Register(fmt.Sprintf("t%d", i), gen.Uniform(10000, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
		tickets = append(tickets, e.SwapOutAsyncCtx(context.Background(), h, true, compress.RLE))
	}
	e.Drain()
	for i, tk := range tickets {
		select {
		case <-tk.Done():
		default:
			t.Fatalf("ticket %d unresolved after Drain", i)
		}
		if err := tk.Err(); err != nil {
			t.Fatalf("swap-out %d: %v", i, err)
		}
	}
	for i, h := range handles {
		if st := h.State(); st != Swapped {
			t.Fatalf("handle %d in state %s after Drain, want swapped", i, st)
		}
	}
}

// TestCloseRejectsNewWork pins Close: it drains, then Register and async
// submissions fail with ErrClosed (and the rejected registration's device
// reservation is released), while live handles stay usable synchronously —
// wherever their payload lives, the host pool or the disk tier.
func TestCloseRejectsNewWork(t *testing.T) {
	e, _ := newTierExecutor(t, 1<<22, 1<<22, 1<<22, nil)
	gen := tensor.NewGenerator(58)
	h, err := e.Register("kept", gen.Uniform(10000, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := e.Register("kept-on-disk", gen.Uniform(10000, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	tieredWant := append([]float32(nil), tiered.pool.data...)
	if err := e.SwapOut(tiered, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if err := e.Demote(tiered); err != nil || !inTier(tiered) {
		t.Fatalf("Demote before Close: err %v, in tier %v", err, inTier(tiered))
	}
	tk := e.SwapOutAsyncCtx(context.Background(), h, true, compress.ZVC)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tk.Wait(); err != nil {
		t.Fatalf("in-flight work must complete across Close: %v", err)
	}

	used := e.DeviceStats().Used
	if _, err := e.Register("late", gen.Uniform(1000, 0.5)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Register after Close err = %v, want ErrClosed", err)
	}
	if got := e.DeviceStats().Used; got != used {
		t.Fatalf("rejected registration leaked device memory: %d -> %d", used, got)
	}
	if err := e.SwapInAsyncCtx(context.Background(), h).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("SwapInAsync after Close err = %v, want ErrClosed", err)
	}
	if st := h.State(); st != Swapped {
		t.Fatalf("rejected submission moved the handle to %s", st)
	}
	// The synchronous path on a live handle still works after Close.
	if err := e.SwapIn(h); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Data(); err != nil {
		t.Fatal(err)
	}
	// So does promoting a payload that was demoted before Close: the tier is
	// one more place a held tensor may live, not new work.
	if err := e.SwapIn(tiered); err != nil {
		t.Fatalf("SwapIn of a tier-resident handle after Close: %v", err)
	}
	assertBitExact(t, tiered, tieredWant)
	if e.TierUsed() != 0 {
		t.Fatalf("promotion after Close left %d bytes in the tier", e.TierUsed())
	}
	if err := e.Close(); err != nil {
		t.Fatal(err) // idempotent
	}

	// A pool registered before Close is driven the same way: its synchronous
	// batches take no slot and still run, its *Ctx batches are new work.
	e2 := newPoolExecutor(t)
	p, err := e2.RegisterBlockPool("kv", 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2, 5}
	var want []float32
	for _, id := range ids {
		want = append(want, blockFill(id, 64)...)
	}
	if err := p.WriteBlocks(ids, want); err != nil {
		t.Fatal(err)
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.SwapOutBlocksCtx(context.Background(), ids, true, compress.ZVC).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("SwapOutBlocksCtx after Close err = %v, want ErrClosed", err)
	}
	if err := p.SwapOutBlocks(ids, true, compress.ZVC); err != nil {
		t.Fatalf("SwapOutBlocks after Close: %v", err)
	}
	if err := p.SwapInBlocksCtx(context.Background(), ids).Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("SwapInBlocksCtx after Close err = %v, want ErrClosed", err)
	}
	if got := p.SwappedIDs(); len(got) != len(ids) {
		t.Fatalf("refused batches moved blocks: swapped %v, want %v", got, ids)
	}
	if err := p.SwapInBlocks(ids); err != nil {
		t.Fatalf("SwapInBlocks after Close: %v", err)
	}
	if got, err := p.ReadBlocks(ids); err != nil || !sameBits(got, want) {
		t.Fatalf("pool after a post-Close round trip: err %v, bit-exact %v", err, sameBits(got, want))
	}
}

// TestCompressedWhileSwapOutInFlight: Compressed reads the stored record
// under the pool's lock and reports false unless the tensor is Swapped, so
// polling it while an async swap-out's store writes the record is no data
// race (run with -race).
func TestCompressedWhileSwapOutInFlight(t *testing.T) {
	e, err := New(Config{
		DeviceCapacity: 1 << 22,
		HostCapacity:   1 << 22,
		Launch:         compress.Launch{Grid: 1, Block: 64},
		Faults: faultinject.New(faultinject.Fault{
			Site: faultinject.SiteEncode, Mode: faultinject.Delay, Delay: 5 * time.Millisecond, Every: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.Register("x", tensor.NewGenerator(5).Uniform(4096, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	tk := e.SwapOutAsyncCtx(context.Background(), h, true, compress.ZVC)
	done := func() bool {
		select {
		case <-tk.Done():
			return true
		default:
			return false
		}
	}
	polls := 0
	for ; !done(); polls++ {
		// The commit precedes the ticket's resolution, so true is legal once
		// the handle reads Swapped — and it stays Swapped from then on.
		if h.Compressed() && h.State() != Swapped {
			t.Fatal("Compressed reported true before the swap-out committed")
		}
	}
	if polls == 0 {
		t.Fatal("the swap-out finished before Compressed was polled")
	}
	if err := tk.Wait(); err != nil || !h.Compressed() {
		t.Fatalf("swap-out err %v, compressed %v", err, h.Compressed())
	}
}

// TestAsyncManyStreams hammers the pipeline from several submitting
// goroutines at once — distinct handles, shared window — as a -race
// stress of the gate, the pool sharing, and the ticket lifecycle.
func TestAsyncManyStreams(t *testing.T) {
	e, err := New(Config{
		DeviceCapacity: 32 << 20,
		HostCapacity:   64 << 20,
		Launch:         compress.Launch{Grid: 8, Block: 64},
		Verify:         true,
		MaxInFlight:    6,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const rounds = 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := tensor.NewGenerator(int64(100 + w))
			for r := 0; r < rounds; r++ {
				tn := gen.Uniform(8000, 0.6)
				h, err := e.Register(fmt.Sprintf("w%d-r%d", w, r), tn)
				if err != nil {
					errs <- err
					return
				}
				if err := e.SwapOutAsyncCtx(context.Background(), h, true, compress.Algorithms()[(w+r)%4]).Wait(); err != nil {
					errs <- fmt.Errorf("async swap out: %w", err)
					return
				}
				if err := e.PrefetchCtx(context.Background(), h).Wait(); err != nil {
					errs <- fmt.Errorf("prefetch: %w", err)
					return
				}
				if err := e.Free(h); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	e.Drain()
	if e.Live() != 0 || e.DeviceStats().Used != 0 || e.HostStats().Used != 0 {
		t.Fatal("async streams leaked memory")
	}
	if st := e.Stats(); st.SwapOuts != workers*rounds || st.SwapIns != workers*rounds {
		t.Fatalf("stats %+v", st)
	}
}

// TestAsyncSaturatedWorkerPool is the regression test for the worker-pool
// deadlock: with MaxInFlight ≥ GOMAXPROCS, every resident pool worker can
// be running an async swap at once, and each of those swaps fans its chunks
// out to the same pool. Chunk helpers that no worker is free to pick up
// must cost parallelism only — the swaps wait on jobs completed, not on
// helpers dequeued. A per-chunk stall keeps every worker inside its swap
// long enough that the window really is saturated, by tensors and by a
// multi-run batch, which is one call and so one job for all of its runs;
// the watchdog turns a wedge into a failure. Sizes
// respect the 16 Ki-element chunk floor: a tensor is 8 chunks at grid 8,
// and a two-block run of 16 Ki-element blocks is 2.
func TestAsyncSaturatedWorkerPool(t *testing.T) {
	window := 2 * runtime.GOMAXPROCS(0)
	if window < 4 {
		window = 4
	}
	e, err := New(Config{
		DeviceCapacity: 64 << 20,
		HostCapacity:   64 << 20,
		Launch:         compress.Launch{Grid: 8, Block: 128},
		Verify:         true,
		MaxInFlight:    window,
		Faults: faultinject.New(
			faultinject.Fault{Site: faultinject.SiteEncode, Mode: faultinject.Delay, Delay: time.Millisecond, Every: 1},
			faultinject.Fault{Site: faultinject.SiteDecode, Mode: faultinject.Delay, Delay: time.Millisecond, Every: 1},
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := tensor.NewGenerator(7)
	handles := make([]*Handle, window)
	for i := range handles {
		if handles[i], err = e.Register(fmt.Sprintf("t%d", i), gen.Uniform(8<<14, 0.6)); err != nil {
			t.Fatal(err)
		}
	}
	p, err := e.RegisterBlockPool("kv", 1<<14, 4*window)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int // every other pair of blocks: `window` two-block runs
	for i := 0; i < window; i++ {
		ids = append(ids, 4*i, 4*i+1)
	}
	if err := p.WriteBlocks(ids, gen.Uniform(len(ids)<<14, 0.6).Data); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		for _, leg := range []func() []*Ticket{
			func() []*Ticket {
				ts := []*Ticket{p.SwapOutBlocksCtx(context.Background(), ids, true, compress.ZVC)}
				for _, h := range handles {
					ts = append(ts, e.SwapOutAsyncCtx(context.Background(), h, true, compress.ZVC))
				}
				return ts
			},
			func() []*Ticket {
				ts := []*Ticket{p.SwapInBlocksCtx(context.Background(), ids)}
				for _, h := range handles {
					ts = append(ts, e.SwapInAsyncCtx(context.Background(), h))
				}
				return ts
			},
		} {
			for _, tk := range leg() {
				if err := tk.Wait(); err != nil {
					done <- err
					return
				}
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("async swaps wedged with MaxInFlight=%d at GOMAXPROCS=%d", window, runtime.GOMAXPROCS(0))
	}
	if st := e.Stats(); st.SwapOuts != 2*window || st.SwapIns != 2*window {
		t.Fatalf("stats %+v, want %d swap-outs and swap-ins", st, 2*window)
	}
}
