package executor

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cswap/internal/compress"
	"cswap/internal/faultinject"
	"cswap/internal/metrics"
	"cswap/internal/tensor"
	"cswap/internal/tier"
)

// newTierExecutor builds an executor with a disk spill tier in a fresh
// temp directory, sharing the fault injector between the tier store and
// the data path (as cswapd does).
func newTierExecutor(t *testing.T, dev, host, tierCap int64, inj *faultinject.Injector) (*Executor, *tier.Store) {
	t.Helper()
	ts, err := tier.Open(t.TempDir(), tierCap, inj)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ts.Close() }) // after the executor's
	e, err := New(Config{
		DeviceCapacity: dev,
		HostCapacity:   host,
		Verify:         true,
		Faults:         inj,
		Tier:           ts,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	return e, ts
}

// inTier reports whether the handle is Swapped with its payload in the
// disk tier rather than the pinned-host pool (false while an operation holds
// it).
func inTier(h *Handle) bool {
	return h.pool.swappedIs(func(s *stored) bool { return s.tiered })
}

func assertBitExact(t *testing.T, h *Handle, want []float32) {
	t.Helper()
	got, err := h.Data()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("payload mismatch at %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestDemotePromoteRoundTrip(t *testing.T) {
	e, ts := newTierExecutor(t, 1<<22, 1<<22, 1<<22, nil)
	tn := tensor.NewGenerator(11).Uniform(50000, 0.6)
	want := append([]float32(nil), tn.Data...)
	h, err := e.Register("act", tn)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	hostUsed := e.HostStats().Used
	if hostUsed == 0 {
		t.Fatal("nothing in host pool after swap-out")
	}

	if err := e.Demote(h); err != nil {
		t.Fatal(err)
	}
	if !inTier(h) {
		t.Fatal("handle not tiered after Demote")
	}
	if h.State() != Swapped {
		t.Fatalf("tiered handle state %v, want Swapped", h.State())
	}
	if e.HostStats().Used != 0 {
		t.Fatalf("host pool still holds %d bytes after demotion", e.HostStats().Used)
	}
	if e.TierUsed() == 0 || ts.Len() != 1 {
		t.Fatalf("tier holds %d bytes / %d blobs, want the demoted blob", e.TierUsed(), ts.Len())
	}
	// Demoting an already-tiered handle is an idempotent no-op.
	if err := e.Demote(h); err != nil {
		t.Fatalf("re-demote: %v", err)
	}
	if st := e.Stats(); st.TierDemotions != 1 {
		t.Fatalf("TierDemotions = %d, want 1", st.TierDemotions)
	}

	if err := e.SwapIn(h); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, h, want)
	if inTier(h) {
		t.Fatal("handle still tiered after restore")
	}
	if e.TierUsed() != 0 || ts.Len() != 0 {
		t.Fatalf("tier not drained after promotion: %d bytes / %d blobs", e.TierUsed(), ts.Len())
	}
	if st := e.Stats(); st.TierPromotions != 1 {
		t.Fatalf("TierPromotions = %d, want 1", st.TierPromotions)
	}
	if err := e.Free(h); err != nil {
		t.Fatal(err)
	}
}

// TestChargeFollowsTier: a handle's charge sits in Held until its payload
// enters the tier and moves back whenever it leaves — promotion, prefetch
// read-ahead, free — and a re-demotion moves nothing twice.
func TestChargeFollowsTier(t *testing.T) {
	e, _ := newTierExecutor(t, 1<<22, 1<<22, 1<<22, nil)
	reg := metrics.NewRegistry()
	c := Charge{Held: reg.Gauge("held"), Tiered: reg.Gauge("tiered")}
	h, err := e.Register("charged", tensor.NewGenerator(22).Uniform(10000, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	h.Pool().SetCharge(c)
	n := float64(h.Bytes())
	c.Held.Add(n) // the caller's own register-time charge
	want := func(step string, held, tiered float64) {
		t.Helper()
		if c.Held.Value() != held || c.Tiered.Value() != tiered {
			t.Fatalf("%s: held %v tiered %v, want %v and %v", step, c.Held.Value(), c.Tiered.Value(), held, tiered)
		}
	}
	demoted := func(step string) {
		t.Helper()
		if err := e.SwapOut(h, true, compress.ZVC); err != nil {
			t.Fatal(err)
		}
		want(step+": swapped to host", n, 0)
		for i := 0; i < 2; i++ {
			if err := e.Demote(h); err != nil {
				t.Fatal(err)
			}
		}
		want(step+": demoted", 0, n)
	}
	demoted("promote")
	if err := e.SwapIn(h); err != nil {
		t.Fatal(err)
	}
	want("promoted", n, 0)
	demoted("prefetch")
	if err := e.PrefetchCtx(context.Background(), h).Wait(); err != nil {
		t.Fatal(err)
	}
	want("prefetched", n, 0)
	demoted("free")
	if err := e.Free(h); err != nil {
		t.Fatal(err)
	}
	want("freed", n, 0)
}

// TestDemoteSwappedChargesRuns: a pool's DemoteSwapped moves exactly its
// swapped, host-resident runs into the tier, reports their raw bytes, moves
// them from Held to Tiered, and moves nothing on a second call.
func TestDemoteSwappedChargesRuns(t *testing.T) {
	e, ts := newTierExecutor(t, 1<<22, 1<<22, 1<<22, nil)
	reg := metrics.NewRegistry()
	c := Charge{Held: reg.Gauge("held"), Tiered: reg.Gauge("tiered")}
	const elems = 1000
	p, err := e.RegisterBlockPool("kv", elems, 6)
	if err != nil {
		t.Fatal(err)
	}
	p.SetCharge(c)
	c.Held.Add(float64(p.Bytes()))
	if err := p.SwapOutBlocks([]int{0, 1, 4}, false, 0); err != nil { // runs {0,2} and {4,1}
		t.Fatal(err)
	}
	moved, err := p.DemoteSwapped()
	if want := int64(3 * elems * 4); err != nil || moved != want {
		t.Fatalf("DemoteSwapped = %d, %v, want %d bytes", moved, err, want)
	}
	if ts.Len() != 2 || c.Tiered.Value() != float64(moved) || c.Held.Value() != float64(p.Bytes()-moved) {
		t.Fatalf("%d blobs, held %v, tiered %v after demoting %d bytes", ts.Len(), c.Held.Value(), c.Tiered.Value(), moved)
	}
	if again, err := p.DemoteSwapped(); again != 0 || err != nil {
		t.Fatalf("second DemoteSwapped = %d, %v, want 0, nil", again, err)
	}
}

func TestDemoteTaxonomy(t *testing.T) {
	// No tier configured: ErrNoTier, and the host-pressure fallback path
	// reports no headroom rather than inventing any.
	plain := newTestExecutor(t, 1<<20, 1<<20)
	tn := tensor.NewGenerator(12).Uniform(1000, 0.5)
	h, err := plain.Register("x", tn)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if err := plain.Demote(h); !errors.Is(err, ErrNoTier) {
		t.Fatalf("Demote without tier = %v, want ErrNoTier", err)
	}
	if plain.freeHostSpace(1) {
		t.Fatal("freeHostSpace claimed headroom without a tier")
	}

	// Resident handles are not demotable (the state taxonomy applies).
	e, _ := newTierExecutor(t, 1<<20, 1<<20, 1<<20, nil)
	h2, err := e.Register("y", tensor.NewGenerator(13).Uniform(1000, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Demote(h2); err == nil {
		t.Fatal("Demote accepted a Resident handle")
	}

	// A tier too small for the blob: ErrFull, payload stays host-resident.
	small, _ := newTierExecutor(t, 1<<22, 1<<22, 64, nil)
	h3, err := small.Register("z", tensor.NewGenerator(14).Uniform(50000, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := small.SwapOut(h3, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	before := small.HostStats().Used
	if err := small.Demote(h3); !errors.Is(err, tier.ErrFull) {
		t.Fatalf("Demote into full tier = %v, want tier.ErrFull", err)
	}
	if inTier(h3) || small.HostStats().Used != before {
		t.Fatal("failed demotion disturbed the host-resident payload")
	}
	if err := small.SwapIn(h3); err != nil {
		t.Fatal(err)
	}
}

func TestFreeReleasesTierEntry(t *testing.T) {
	e, ts := newTierExecutor(t, 1<<22, 1<<22, 1<<22, nil)
	h, err := e.Register("gone", tensor.NewGenerator(15).Uniform(20000, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if err := e.Demote(h); err != nil {
		t.Fatal(err)
	}
	if err := e.Free(h); err != nil {
		t.Fatal(err)
	}
	if e.TierUsed() != 0 || ts.Len() != 0 {
		t.Fatalf("freed handle left %d bytes / %d blobs in the tier", e.TierUsed(), ts.Len())
	}
}

// TestSwapOutDemotesUnderHostPressure pins the tentpole behavior: a
// swap-out that previously failed (or burned the raw fallback) on a full
// host pool now demotes cold payloads to disk and proceeds.
func TestSwapOutDemotesUnderHostPressure(t *testing.T) {
	// Host pool fits one 40000-byte raw blob but not two.
	e, _ := newTierExecutor(t, 1<<22, 48<<10, 1<<20, nil)
	gen := tensor.NewGenerator(16)
	ta := gen.Uniform(10000, 0.5)
	tb := gen.Uniform(10000, 0.5)
	wantA := append([]float32(nil), ta.Data...)
	wantB := append([]float32(nil), tb.Data...)
	a, err := e.Register("a", ta)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Register("b", tb)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(a, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(b, false, 0); err != nil {
		t.Fatalf("swap-out under host pressure: %v", err)
	}
	if !inTier(a) {
		t.Fatal("cold payload was not demoted to make room")
	}
	if inTier(b) {
		t.Fatal("fresh swap-out landed in the tier, want host pool")
	}
	if st := e.Stats(); st.TierDemotions != 1 {
		t.Fatalf("TierDemotions = %d, want 1", st.TierDemotions)
	}
	if err := e.SwapIn(a); err != nil {
		t.Fatal(err)
	}
	if err := e.SwapIn(b); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, a, wantA)
	assertBitExact(t, b, wantB)
	if st := e.Stats(); st.TierPromotions != 1 {
		t.Fatalf("TierPromotions = %d, want 1", st.TierPromotions)
	}
}

// TestVictimRankingPrefersWellCompressedCold pins the eviction order:
// DemotionScore demotes well-compressed payloads before poorly-compressed
// ones, and colder payloads before hotter ones.
func TestVictimRankingPrefersWellCompressedCold(t *testing.T) {
	e, _ := newTierExecutor(t, 1<<22, 1<<22, 1<<22, nil)
	gen := tensor.NewGenerator(17)
	sparse, err := e.Register("sparse", gen.Uniform(20000, 0.9))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := e.Register("dense", gen.Uniform(20000, 0.0))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Handle{sparse, dense} {
		if err := e.SwapOut(h, true, compress.ZVC); err != nil {
			t.Fatal(err)
		}
	}
	vs := e.tierVictims()
	if len(vs) != 2 {
		t.Fatalf("victims = %d, want 2", len(vs))
	}
	if vs[0].score >= vs[1].score {
		t.Fatalf("victims unsorted: %v >= %v", vs[0].score, vs[1].score)
	}
	// Same idle age: the better-compressed (smaller) blob demotes first.
	if vs[0].bytes >= vs[1].bytes {
		t.Fatalf("dense payload ranked before sparse one (%d bytes before %d)",
			vs[0].bytes, vs[1].bytes)
	}

	// Make the dense payload much colder than the sparse one: idleness
	// decays its score below even the poorly-compressed ratio.
	dense.pool.mu.Lock()
	dense.pool.run[0].swappedAt -= 1000
	dense.pool.mu.Unlock()
	vs = e.tierVictims()
	if vs[0].bytes <= vs[1].bytes {
		t.Fatal("cold dense payload should now demote first")
	}
}

// TestDemoteVsSwapInConcurrent races Demote against SwapIn on the same
// handle: exactly one wins each claim, ErrBusy is the only contention
// signal, and the payload always restores bit-exact. Run with -race.
func TestDemoteVsSwapInConcurrent(t *testing.T) {
	e, _ := newTierExecutor(t, 1<<22, 1<<22, 1<<22, nil)
	tn := tensor.NewGenerator(18).Uniform(30000, 0.6)
	want := append([]float32(nil), tn.Data...)
	h, err := e.Register("contended", tn)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		if err := e.SwapOut(h, true, compress.ZVC); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := e.Demote(h); err != nil && !errors.Is(err, ErrBusy) && !errors.Is(err, ErrNotSwapped) {
				t.Errorf("demote: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			if err := e.SwapIn(h); err != nil && !errors.Is(err, ErrBusy) {
				t.Errorf("swap-in: %v", err)
			}
		}()
		wg.Wait()
		if h.State() == Swapped { // demote won, or swap-in lost the race
			if err := e.SwapIn(h); err != nil {
				t.Fatal(err)
			}
		}
		assertBitExact(t, h, want)
	}
	if e.TierUsed() != 0 {
		t.Fatalf("tier holds %d bytes after all restores", e.TierUsed())
	}
}

// TestDemoteVsSwapCycleObserved races the background demoter against full
// swap-out/swap-in cycles on a tensor handle and a block-pool run, with an
// Observer attached (as cswapd always has): a swap-out's deep accounting
// runs after the owner is published Swapped, when a demotion may already
// be rewriting the stored record, so it must work from what it took while
// it held the claim. Run with -race; the per-codec volume must also add up
// to the total, which it does not if a demoted record's blob is measured.
func TestDemoteVsSwapCycleObserved(t *testing.T) {
	ts, err := tier.Open(t.TempDir(), 1<<24, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		DeviceCapacity: 1 << 22,
		HostCapacity:   1 << 22,
		Verify:         true,
		Tier:           ts,
		Observer:       metrics.NewObserver(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })

	tn := tensor.NewGenerator(21).Uniform(30000, 0.6)
	want := append([]float32(nil), tn.Data...)
	h, err := e.Register("cycled", tn)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 4
	p, err := e.RegisterBlockPool("cycled-pool", len(want)/blocks, blocks)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2, 3}
	if err := p.WriteBlocks(ids, want); err != nil {
		t.Fatal(err)
	}

	// untilClaimed retries an operation the demoter can beat to the claim.
	untilClaimed := func(op func() error) error {
		for {
			if err := op(); !errors.Is(err, ErrBusy) {
				return err
			}
		}
	}
	stop := make(chan struct{})
	var demoter, swappers sync.WaitGroup
	demoter.Add(1)
	go func() {
		defer demoter.Done()
		for {
			select {
			case <-stop:
				return
			default:
				e.demoteUntil(func() bool { return false }) // every victim, like a watermark of 0
			}
		}
	}()
	const rounds = 50
	swappers.Add(2)
	go func() {
		defer swappers.Done()
		for i := 0; i < rounds; i++ {
			if err := e.SwapOut(h, true, compress.ZVC); err != nil {
				t.Errorf("swap-out: %v", err)
				return
			}
			if err := untilClaimed(func() error { return e.SwapIn(h) }); err != nil {
				t.Errorf("swap-in: %v", err)
				return
			}
		}
	}()
	go func() {
		defer swappers.Done()
		for i := 0; i < rounds; i++ {
			if err := p.SwapOutBlocks(ids, true, compress.ZVC); err != nil {
				t.Errorf("batch swap-out: %v", err)
				return
			}
			if err := untilClaimed(func() error { return p.SwapInBlocks(ids) }); err != nil {
				t.Errorf("batch swap-in: %v", err)
				return
			}
		}
	}()
	swappers.Wait()
	close(stop)
	demoter.Wait()
	if t.Failed() {
		return
	}

	assertBitExact(t, h, want)
	got, err := p.ReadBlocks(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("pool payload mismatch at %d", i)
		}
	}
	var byCodec, observed float64
	for _, c := range e.Registry().Snapshot().Counters {
		if c.Name == "executor_moved_bytes_by_codec_total" {
			byCodec += c.Value
		}
	}
	for _, hs := range e.Registry().Snapshot().Histograms {
		if hs.Name == "executor_blob_bytes" {
			observed += hs.Sum
		}
	}
	if moved := float64(e.Stats().MovedBytes); byCodec != moved || observed != moved {
		t.Fatalf("per-codec series lost volume to the demoter: by-codec %v, blob-bytes sum %v, moved %v", byCodec, observed, moved)
	}
	if e.TierUsed() != 0 {
		t.Fatalf("tier holds %d bytes after all restores", e.TierUsed())
	}
}

// TestTierCommitCrashConsistency pins the crash contract: a failure
// between the tier blob write and the index commit (SiteTierCommit) leaves
// the payload fully host-resident and the tier without the blob, and the
// retried demotion commits into the extent the failed one gave back. A
// restart of the store starts empty — the tier is scratch for one process —
// and reports the spill file it removed.
func TestTierCommitCrashConsistency(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{Site: faultinject.SiteTierCommit, Mode: faultinject.Fail})
	e, ts := newTierExecutor(t, 1<<22, 1<<22, 1<<22, inj)
	tn := tensor.NewGenerator(19).Uniform(30000, 0.6)
	want := append([]float32(nil), tn.Data...)
	h, err := e.Register("crash", tn)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	hostUsed := e.HostStats().Used

	if err := e.Demote(h); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Demote = %v, want injected commit failure", err)
	}
	if inTier(h) {
		t.Fatal("handle marked tiered after failed commit")
	}
	if e.HostStats().Used != hostUsed {
		t.Fatal("failed demotion released the host copy")
	}
	if ts.Len() != 0 || ts.Used() != 0 {
		t.Fatalf("failed commit left %d blobs / %d bytes in the tier", ts.Len(), ts.Used())
	}
	spill := filepath.Join(ts.Dir(), tier.SpillName)
	written, err := os.Stat(spill)
	if err != nil {
		t.Fatal(err)
	}

	// The payload is fully recoverable from host state...
	if err := e.SwapIn(h); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, h, want)

	// ...and the fault fired once, so a retried demotion commits, into the
	// extent the failed write gave back.
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if err := e.Demote(h); err != nil {
		t.Fatal(err)
	}
	retried, err := os.Stat(spill)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Len() != 1 || retried.Size() != written.Size() {
		t.Fatalf("retried demotion: %d blobs, spill file %d → %d bytes", ts.Len(), written.Size(), retried.Size())
	}

	// Simulated restart: a store opened on the directory starts empty and
	// reports the spill file it removed, unread.
	re, err := tier.Open(ts.Dir(), 1<<22, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 0 || re.Used() != 0 || re.Reclaimed() != retried.Size() {
		t.Fatalf("restarted store: %d blobs / %d bytes, reclaimed %d; want empty, reclaimed %d",
			re.Len(), re.Used(), re.Reclaimed(), retried.Size())
	}
}

// TestSwapOutMutateOwnership pins the blob-ownership fix on the
// fault-injection mutate path: when a transfer-out fault replaces the
// encode output with a mutated copy, the pristine original must survive
// until the operation resolves and then be recycled exactly once — never
// recycled early (a concurrent encode could alias it) and never confused
// with the non-arena mutated copy. Observable contract: the corruption is
// persistent (swap-in detects it), state stays coherent, and the arena
// keeps round-tripping cleanly afterwards.
func TestSwapOutMutateOwnership(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{Site: faultinject.SiteTransferOut, Mode: faultinject.Corrupt})
	e, err := New(Config{
		DeviceCapacity: 1 << 22,
		HostCapacity:   1 << 22,
		Verify:         true,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	tn := tensor.NewGenerator(20).Uniform(30000, 0.6)
	h, err := e.Register("mutated", tn)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	// The stored blob is the corrupted transfer copy: restore must fail
	// (decode error or checksum mismatch), and the handle must roll back
	// to Swapped, not wedge or crash on a recycled buffer.
	if err := e.SwapIn(h); err == nil {
		t.Fatal("swap-in verified a persistently corrupted blob")
	}
	if h.State() != Swapped {
		t.Fatalf("state %v after failed restore, want Swapped", h.State())
	}
	if err := e.Free(h); err != nil {
		t.Fatal(err)
	}

	// The fault fired once; subsequent cycles reuse the arena buffers the
	// fix recycled. Under the old ownership bug the pristine blob was
	// either recycled while still aliased or replaced by a foreign buffer,
	// which these round trips would surface as corruption or a double-put.
	for i := 0; i < 8; i++ {
		tc := tensor.NewGenerator(int64(21+i)).Uniform(30000, 0.6)
		want := append([]float32(nil), tc.Data...)
		hc, err := e.Register("clean", tc)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SwapOut(hc, true, compress.ZVC); err != nil {
			t.Fatal(err)
		}
		if err := e.SwapIn(hc); err != nil {
			t.Fatal(err)
		}
		assertBitExact(t, hc, want)
		if err := e.Free(hc); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSwapOutMutateFallbackToResident drives the mutate path into the
// no-host-room fallback: with both allocations refused, the swap must
// abort back to Resident with the device payload intact, discarding the
// mutated copy and the pristine original without mixing them up.
func TestSwapOutMutateFallbackToResident(t *testing.T) {
	inj := faultinject.New(faultinject.Fault{Site: faultinject.SiteTransferOut, Mode: faultinject.Corrupt})
	e, err := New(Config{
		DeviceCapacity: 1 << 22,
		HostCapacity:   256, // nothing fits: compressed and raw retries both fail
		Verify:         true,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	tn := tensor.NewGenerator(30).Uniform(30000, 0.6)
	want := append([]float32(nil), tn.Data...)
	h, err := e.Register("cramped", tn)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); err == nil {
		t.Fatal("swap-out succeeded into a 256-byte host pool")
	}
	if h.State() != Resident {
		t.Fatalf("state %v after aborted swap, want Resident", h.State())
	}
	assertBitExact(t, h, want)
}

// TestPoolRunDemotePromoteRoundTrip exercises the block-pool side of the
// tier: stored runs demote under pressure and batch swap-ins promote them
// transparently, bit-exact.
func TestPoolRunDemotePromoteRoundTrip(t *testing.T) {
	e, ts := newTierExecutor(t, 64<<20, 64<<20, 16<<20, nil)
	p, err := e.RegisterBlockPool("kv", 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int, 16)
	var want []float32
	for i := range all {
		all[i] = i
		want = append(want, blockFill(i, 256)...)
	}
	if err := p.WriteBlocks(all, want); err != nil {
		t.Fatal(err)
	}
	if err := p.SwapOutBlocks(all, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	runs := p.victims(nil, 0)
	if len(runs) != 1 {
		t.Fatalf("stored runs = %d, want 1 coalesced run", len(runs))
	}
	if _, err := p.demoteRun(runs[0].r); err != nil {
		t.Fatal(err)
	}
	if e.TierUsed() == 0 || ts.Len() != 1 {
		t.Fatalf("tier holds %d bytes / %d blobs after run demotion", e.TierUsed(), ts.Len())
	}
	if len(p.victims(nil, 0)) != 0 {
		t.Fatal("tiered run still offered as a demotion candidate")
	}
	// Re-demoting a stale snapshot is a silent no-op.
	if _, err := p.demoteRun(runs[0].r); err != nil {
		t.Fatalf("stale re-demote: %v", err)
	}
	if err := p.SwapInBlocks(all); err != nil {
		t.Fatal(err)
	}
	got, err := p.ReadBlocks(all)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("block payload mismatch at %d", i)
		}
	}
	if e.TierUsed() != 0 || ts.Len() != 0 {
		t.Fatalf("tier not drained after batch promotion: %d bytes", e.TierUsed())
	}
	if err := p.Free(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolFreeReleasesTieredRuns pins Free() cleanup: tiered runs leave
// the tier store with the pool instead of leaking blobs on disk.
func TestPoolFreeReleasesTieredRuns(t *testing.T) {
	e, ts := newTierExecutor(t, 64<<20, 64<<20, 16<<20, nil)
	p, err := e.RegisterBlockPool("kv", 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2, 3}
	if err := p.WriteBlocks(ids, blockFill(1, 4*256)); err != nil {
		t.Fatal(err)
	}
	if err := p.SwapOutBlocks(ids, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	for _, c := range p.victims(nil, 0) {
		if _, err := p.demoteRun(c.r); err != nil {
			t.Fatal(err)
		}
	}
	if ts.Len() == 0 {
		t.Fatal("no runs demoted")
	}
	if err := p.Free(); err != nil {
		t.Fatal(err)
	}
	if e.TierUsed() != 0 || ts.Len() != 0 {
		t.Fatalf("pool free left %d bytes / %d blobs in the tier", e.TierUsed(), ts.Len())
	}
}

// TestPromotionReadsThroughArena: a promotion reads the tier blob into an
// arena buffer and hands it back once the restore has decoded it, so the
// next promotion can reuse it instead of allocating a file image per
// swap-in.
func TestPromotionReadsThroughArena(t *testing.T) {
	e, _ := newTierExecutor(t, 1<<22, 1<<22, 1<<22, nil)
	tn := tensor.NewGenerator(5).Uniform(50000, 0.6)
	want := append([]float32(nil), tn.Data...)
	h, err := e.Register("act", tn)
	if err != nil {
		t.Fatal(err)
	}
	reg := e.Registry()
	puts := reg.Counter("executor_arena_puts_total")
	for round := 0; round < 2; round++ {
		if err := e.SwapOut(h, false, compress.ZVC); err != nil { // raw: the stored blob went home at the demotion
			t.Fatal(err)
		}
		if err := e.Demote(h); err != nil {
			t.Fatal(err)
		}
		p0 := puts.Value()
		if err := e.SwapIn(h); err != nil {
			t.Fatal(err)
		}
		assertBitExact(t, h, want)
		if puts.Value() != p0+1 {
			t.Fatalf("round %d: promotion returned %v buffers to the arena, want 1", round, puts.Value()-p0)
		}
	}
}

// TestStageReturnsBufferWhenHostFull: a prefetch of a tiered tensor while
// the host pool is full reads the blob ahead (stage) but cannot install it
// in the host pool, so the arena buffer it read into goes back, and the
// restore promotes from disk as usual. Once every block is resident, every
// arena get has been matched by a put.
func TestStageReturnsBufferWhenHostFull(t *testing.T) {
	const elems = 16 << 10 // 64 KiB raw: the host pool holds one, not two
	e, _ := newTierExecutor(t, 1<<22, 96<<10, 1<<22, nil)
	gen := tensor.NewGenerator(23)
	var hs []*Handle
	var wants [][]float32
	for _, name := range []string{"a", "b"} {
		tn := gen.Uniform(elems, 0.5)
		wants = append(wants, append([]float32(nil), tn.Data...))
		h, err := e.Register(name, tn)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	if err := e.SwapOut(hs[0], false, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if err := e.Demote(hs[0]); err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(hs[1], false, compress.ZVC); err != nil { // fills the host pool
		t.Fatal(err)
	}
	reg := e.Registry()
	hits := reg.Counter("executor_tier_hits_total")
	if err := e.PrefetchCtx(context.Background(), hs[0]).Wait(); err != nil {
		t.Fatal(err)
	}
	if hits.Value() != 2 || reg.Counter("executor_tier_readahead_total").Value() != 0 {
		t.Fatalf("prefetch read the tier %v times with %v read-aheads, want a failed stage and a promotion (2, 0)",
			hits.Value(), reg.Counter("executor_tier_readahead_total").Value())
	}
	if err := e.SwapIn(hs[1]); err != nil {
		t.Fatal(err)
	}
	for i, h := range hs {
		assertBitExact(t, h, wants[i])
	}
	gets := reg.Counter("executor_arena_gets_total", metrics.L("outcome", "hit")).Value() +
		reg.Counter("executor_arena_gets_total", metrics.L("outcome", "miss")).Value()
	if puts := reg.Counter("executor_arena_puts_total").Value(); gets != puts {
		t.Fatalf("arena gets %v, puts %v with every block resident: a buffer leaked", gets, puts)
	}
}
