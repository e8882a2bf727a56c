package executor

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"cswap/internal/compress"
	"cswap/internal/devmem"
	"cswap/internal/metrics"
	"cswap/internal/tensor"
)

// sealPayload is a tensor carrying −0 and NaN payloads among half zeros, so
// a digest or codec that bent either would show.
func sealPayload(n int) []float32 {
	data := tensor.NewGenerator(13).Uniform(n, 0.5).Data
	data[1] = float32(math.Copysign(0, -1))
	data[2] = math.Float32frombits(0x7fc00001)
	data[3] = math.Float32frombits(0xffa12345)
	return data
}

// sealCodecs are the swap-outs a sealed digest must survive: raw (Auto's
// slot) and every codec.
var sealCodecs = append([]compress.Algorithm{compress.Auto}, compress.ExtendedAlgorithms()...)

// swapOutWith swaps h out raw for compress.Auto, compressed with alg
// otherwise.
func swapOutWith(e *Executor, h *Handle, alg compress.Algorithm) error {
	return e.SwapOut(h, alg != compress.Auto, alg)
}

// codecName names a sealCodecs entry.
func codecName(alg compress.Algorithm) string {
	if alg == compress.Auto {
		return "raw"
	}
	return alg.String()
}

// TestSealedTensorReusesDigest: with Verify on, a sealed tensor's first
// swap-out digests it, and every later swap-out stores that digest without
// reading the payload. An element flipped in resident memory between a
// restore and the next swap-out shows it. A swap-out with the same codec
// commits the clean copy, and the restore after it brings back the
// registered bytes, the flip overwritten. A swap-out with another codec
// encodes the flipped bytes but stores the registered bytes' digest, so the
// next swap-in refuses the flip with ErrVerification (after its one retry)
// and leaves the tensor Swapped.
func TestSealedTensorReusesDigest(t *testing.T) {
	for _, alg := range sealCodecs {
		t.Run(codecName(alg), func(t *testing.T) {
			e := newTestExecutor(t, 1<<22, 1<<22)
			want := sealPayload(3<<14 + 5)
			h, err := e.Register("sealed", tensor.FromSlice(append([]float32(nil), want...)))
			if err != nil {
				t.Fatal(err)
			}
			h.Seal()
			digest := compress.Checksum(want)
			flip := func() { h.pool.data[7] = math.Float32frombits(math.Float32bits(h.pool.data[7]) ^ 1) }
			for cycle := 0; cycle < 3; cycle++ {
				if cycle == 2 {
					flip()
				}
				if err := swapOutWith(e, h, alg); err != nil {
					t.Fatal(err)
				}
				if got := storedOf(h).checksum; got != digest {
					t.Fatalf("cycle %d: stored digest %#x, want the registered bytes' %#x", cycle, got, digest)
				}
				if err := e.SwapIn(h); err != nil {
					t.Fatalf("cycle %d: %v", cycle, err)
				}
				assertBitExact(t, h, want)
			}
			if !h.pool.digested || h.pool.digest != digest {
				t.Fatalf("pool keeps digest %#x (set %v), want %#x", h.pool.digest, h.pool.digested, digest)
			}

			flip()
			other := compress.Auto
			if alg == compress.Auto {
				other = compress.ZVC
			}
			if err := swapOutWith(e, h, other); err != nil {
				t.Fatal(err)
			}
			if got := storedOf(h).checksum; got != digest || got == compress.Checksum(h.pool.data) {
				t.Fatalf("swap-out after the flip stored digest %#x: a pass over the resident bytes, not the registered %#x", got, digest)
			}
			retries := e.Stats().DecodeRetries
			if err := e.SwapIn(h); !errors.Is(err, ErrVerification) {
				t.Fatalf("swap-in of a flipped sealed tensor: %v, want ErrVerification", err)
			}
			if h.State() != Swapped {
				t.Fatalf("state after the refused restore = %s, want swapped", h.State())
			}
			if got := e.Stats().DecodeRetries; got != retries+1 {
				t.Fatalf("decode retries %d → %d, want one retry", retries, got)
			}
		})
	}
}

// TestUnsealedTensorRestoresRewrite pins the library contract (DESIGN §7):
// Handle.Data hands out the live slice, so an unsealed tensor's owner may
// rewrite it in place, and every swap-out digests what it finds — the same
// flip a sealed tensor refuses comes back.
func TestUnsealedTensorRestoresRewrite(t *testing.T) {
	e := newTestExecutor(t, 1<<22, 1<<22)
	h, err := e.Register("lib", tensor.FromSlice(sealPayload(3<<14+5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if err := e.SwapIn(h); err != nil {
		t.Fatal(err)
	}
	data, err := h.Data()
	if err != nil {
		t.Fatal(err)
	}
	data[7] = math.Float32frombits(math.Float32bits(data[7]) ^ 1)
	want := append([]float32(nil), data...)
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if err := e.SwapIn(h); err != nil {
		t.Fatalf("swap-in of a rewritten library tensor: %v", err)
	}
	assertBitExact(t, h, want)
	if h.pool.digested {
		t.Fatal("an unsealed tensor kept a digest")
	}
}

// TestSealedPoolRefusesWriteBlocks: a sealed tensor's pool refuses a write
// with ErrSealed and keeps its bytes; an unsealed one takes it.
func TestSealedPoolRefusesWriteBlocks(t *testing.T) {
	e := newTestExecutor(t, 1<<22, 1<<22)
	orig := sealPayload(1024)
	for _, sealed := range []bool{true, false} {
		h, err := e.Register("t", tensor.FromSlice(append([]float32(nil), orig...)))
		if err != nil {
			t.Fatal(err)
		}
		if sealed {
			h.Seal()
		}
		err = h.Pool().WriteBlocks([]int{0}, make([]float32, 1024))
		switch {
		case sealed && !errors.Is(err, ErrSealed):
			t.Fatalf("write to a sealed tensor: %v, want ErrSealed", err)
		case sealed:
			assertBitExact(t, h, orig)
		case err != nil:
			t.Fatalf("write to an unsealed tensor: %v", err)
		}
		if err := e.Free(h); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSealedTensorWithoutVerify: with Verify off a sealed tensor keeps no
// digest and still round-trips bit-exactly.
func TestSealedTensorWithoutVerify(t *testing.T) {
	e, err := New(Config{DeviceCapacity: 1 << 22, HostCapacity: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	want := sealPayload(4096)
	h, err := e.Register("t", tensor.FromSlice(append([]float32(nil), want...)))
	if err != nil {
		t.Fatal(err)
	}
	h.Seal()
	for cycle := 0; cycle < 2; cycle++ {
		if err := e.SwapOut(h, true, compress.ZVC); err != nil {
			t.Fatal(err)
		}
		if err := e.SwapIn(h); err != nil {
			t.Fatal(err)
		}
	}
	assertBitExact(t, h, want)
	if h.pool.digested {
		t.Fatal("digest kept with Verify off")
	}
}

// TestSealedDigestConcurrentSwaps: goroutines racing synchronous and
// asynchronous swaps of one sealed tensor see only the claim's refusals,
// and every restore that passes verification restores the registered
// bytes. The claim is the only thing ordering the digest's writer before
// its readers; -race checks it.
func TestSealedDigestConcurrentSwaps(t *testing.T) {
	e := newTestExecutor(t, 1<<22, 1<<22)
	want := sealPayload(3<<14 + 5)
	h, err := e.Register("sealed", tensor.FromSlice(append([]float32(nil), want...)))
	if err != nil {
		t.Fatal(err)
	}
	h.Seal()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var err error
				switch (g + i) % 4 {
				case 0:
					err = e.SwapOut(h, true, compress.ZVC)
				case 1:
					err = e.SwapIn(h)
				case 2:
					err = e.SwapOutAsyncCtx(context.Background(), h, false, compress.ZVC).Wait()
				default:
					err = e.SwapInAsyncCtx(context.Background(), h).Wait()
				}
				if err != nil && !errors.Is(err, ErrBusy) && !errors.Is(err, ErrNotResident) && !errors.Is(err, ErrNotSwapped) {
					t.Errorf("goroutine %d op %d: %v", g, i, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if h.State() == Swapped {
		if err := e.SwapIn(h); err != nil {
			t.Fatal(err)
		}
	}
	assertBitExact(t, h, want)
}

// cleanOf returns the tensor's clean copy, nil when it has none. Tests read
// it while nothing is in flight.
func cleanOf(h *Handle) *stored {
	p := h.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if pr := p.cleanCopy(); pr != nil {
		return &pr.stored
	}
	return nil
}

// cycleSealed registers want as a sealed tensor, swaps it out with alg and
// back in, and requires the restore to have kept a clean copy whose host
// bytes the pool reports as cached, not used.
func cycleSealed(t *testing.T, e *Executor, name string, want []float32, alg compress.Algorithm) *Handle {
	t.Helper()
	h, err := e.Register(name, tensor.FromSlice(append([]float32(nil), want...)))
	if err != nil {
		t.Fatal(err)
	}
	h.Seal()
	used, cached := e.HostStats().Used, e.HostStats().Cached
	if err := swapOutWith(e, h, alg); err != nil {
		t.Fatal(err)
	}
	blob := len(storedOf(h).blob)
	if err := e.SwapIn(h); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, h, want)
	if c := cleanOf(h); c == nil || len(c.blob) != blob {
		t.Fatalf("%s: the restore kept no clean copy of its %d-byte blob", name, blob)
	}
	if st := e.HostStats(); st.Used != used || st.Cached != cached+int64(blob) {
		t.Fatalf("%s: host used %d, cached %d after the restore, want %d and %d", name, st.Used, st.Cached, used, cached+int64(blob))
	}
	return h
}

// TestCleanSwapOutCommitsCleanCopy: with Verify on, a sealed tensor's
// restore keeps its blob, and the next swap-out with the same codec at the
// same launch commits that blob — the same bytes in the same buffer, no
// encode, no host allocation — for raw and every codec, cycle after cycle.
// It counts in the swap-out, raw and moved series exactly as the store it
// stands for, and leaves the per-codec series alone.
func TestCleanSwapOutCommitsCleanCopy(t *testing.T) {
	want := sealPayload(3<<14 + 5)
	for _, alg := range sealCodecs {
		t.Run(codecName(alg), func(t *testing.T) {
			e, err := New(Config{DeviceCapacity: 1 << 22, HostCapacity: 1 << 22, Verify: true,
				Launch: compress.Launch{Grid: 16, Block: 64}, Observer: metrics.NewObserver()})
			if err != nil {
				t.Fatal(err)
			}
			before := e.Stats()
			h := cycleSealed(t, e, "sealed", want, alg)
			first := e.Stats()
			enc, encodes, _, moved := e.CodecTotals(alg)
			blob := cleanOf(h).blob
			for cycle := 0; cycle < 3; cycle++ {
				prev := e.Stats()
				allocs := e.HostStats().Allocs
				if err := swapOutWith(e, h, alg); err != nil {
					t.Fatal(err)
				}
				now := e.Stats()
				if got := storedOf(h).blob; &got[0] != &blob[0] || len(got) != len(blob) {
					t.Fatalf("cycle %d: the swap-out stored another blob than the clean copy", cycle)
				}
				if now.SwapOuts != prev.SwapOuts+1 || now.RawBytes-prev.RawBytes != first.RawBytes-before.RawBytes ||
					now.MovedBytes-prev.MovedBytes != first.MovedBytes-before.MovedBytes ||
					now.CompressedTensors-prev.CompressedTensors != first.CompressedTensors-before.CompressedTensors {
					t.Fatalf("cycle %d: a clean swap-out counted %+v, the store it stands for %+v", cycle, now, first)
				}
				if st := e.HostStats(); st.Allocs != allocs || st.Cached != 0 || st.Used != int64(len(blob)) {
					t.Fatalf("cycle %d: host pool %+v after a clean swap-out of a %d-byte blob", cycle, st, len(blob))
				}
				if err := e.SwapIn(h); err != nil {
					t.Fatal(err)
				}
				assertBitExact(t, h, want)
			}
			if enc2, encodes2, _, moved2 := e.CodecTotals(alg); enc2 != enc || encodes2 != encodes || moved2 != moved {
				t.Fatalf("clean swap-outs moved the per-codec series: %v/%d/%v → %v/%d/%v", enc, encodes, moved, enc2, encodes2, moved2)
			}
			if got := e.ins.cleanSwapOuts.Value(); got != 3 {
				t.Fatalf("executor_clean_swapouts_total = %v, want 3", got)
			}
		})
	}
}

// TestCleanCopyDroppedOnMismatch: a swap-out with another codec, or raw
// after a codec, or a codec after raw, drops the clean copy and stores
// afresh, and the fresh blob is byte for byte what a fresh executor stores
// for the same bytes with that codec.
func TestCleanCopyDroppedOnMismatch(t *testing.T) {
	want := sealPayload(3<<14 + 5)
	e := newTestExecutor(t, 1<<22, 1<<22)
	h := cycleSealed(t, e, "sealed", want, compress.ZVC)
	fresh := func(alg compress.Algorithm) []byte {
		f, err := New(Config{DeviceCapacity: 1 << 22, HostCapacity: 1 << 22, Verify: true, Launch: e.Launch()})
		if err != nil {
			t.Fatal(err)
		}
		g, err := f.Register("fresh", tensor.FromSlice(append([]float32(nil), want...)))
		if err != nil {
			t.Fatal(err)
		}
		if err := swapOutWith(f, g, alg); err != nil {
			t.Fatal(err)
		}
		return storedOf(g).blob
	}
	for i, alg := range []compress.Algorithm{
		compress.Huffman, // another codec
		compress.Auto,    // raw after a codec
		compress.ZVC,     // a codec after raw
	} {
		drops, clean := e.ins.cleanDrops.Value(), e.ins.cleanSwapOuts.Value()
		if err := swapOutWith(e, h, alg); err != nil {
			t.Fatal(err)
		}
		if e.ins.cleanDrops.Value() != drops+1 || e.ins.cleanSwapOuts.Value() != clean {
			t.Fatalf("step %d: %s did not drop the clean copy", i, codecName(alg))
		}
		if !bytes.Equal(storedOf(h).blob, fresh(alg)) {
			t.Fatalf("step %d: %s stored another blob than a fresh executor", i, codecName(alg))
		}
		if st := e.HostStats(); st.Cached != 0 || st.Used != int64(len(storedOf(h).blob)) {
			t.Fatalf("step %d: host pool %+v", i, st)
		}
		if err := e.SwapIn(h); err != nil {
			t.Fatal(err)
		}
		assertBitExact(t, h, want)
	}
}

// TestCorruptCleanCopyRefused: a clean copy corrupted in the host pool while
// its tensor is resident is committed by the next swap-out unread, and the
// restore after refuses it with ErrVerification after its one retry,
// leaving the tensor Swapped, as it refuses any persistently corrupted
// stored copy; so does the next attempt.
func TestCorruptCleanCopyRefused(t *testing.T) {
	want := sealPayload(3<<14 + 5)
	for _, alg := range []compress.Algorithm{compress.Auto, compress.ZVC} {
		t.Run(codecName(alg), func(t *testing.T) {
			e := newTestExecutor(t, 1<<22, 1<<22)
			h := cycleSealed(t, e, "sealed", want, alg)
			c := cleanOf(h)
			c.blob[len(c.blob)-1] ^= 0x01 // the last value's top byte, raw or ZVC
			if err := swapOutWith(e, h, alg); err != nil {
				t.Fatal(err)
			}
			if e.ins.cleanSwapOuts.Value() != 1 {
				t.Fatal("the swap-out did not commit the clean copy")
			}
			for try := 0; try < 2; try++ {
				retries := e.Stats().DecodeRetries
				if err := e.SwapIn(h); !errors.Is(err, ErrVerification) {
					t.Fatalf("swap-in %d of a corrupted clean copy: %v, want ErrVerification", try, err)
				}
				if h.State() != Swapped || cleanOf(h) != nil {
					t.Fatalf("swap-in %d: state %s after the refused restore, want swapped with no clean copy", try, h.State())
				}
				if got := e.Stats().DecodeRetries; got != retries+1 {
					t.Fatalf("swap-in %d: decode retries %d → %d, want one retry", try, retries, got)
				}
			}
		})
	}
}

// TestCleanCopiesMakeHostRoom: without a tier, a host pool full of clean
// copies still takes another tensor's swap-out: the clean copies are
// dropped until it fits, and the bytes in use are the new blob alone.
func TestCleanCopiesMakeHostRoom(t *testing.T) {
	const elems = 1 << 14
	raw := int64(4 * elems)
	e := newTestExecutor(t, 1<<22, 3*raw)
	for i := 0; i < 3; i++ {
		cycleSealed(t, e, fmt.Sprintf("sealed%d", i), sealPayload(elems), compress.Auto)
	}
	if st := e.HostStats(); st.Used+st.Cached != st.Capacity {
		t.Fatalf("host pool %+v: want it full of clean copies", st)
	}
	other := sealPayload(elems)
	h, err := e.Register("other", tensor.FromSlice(append([]float32(nil), other...)))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, false, compress.ZVC); err != nil {
		t.Fatalf("swap-out into a host pool of clean copies: %v", err)
	}
	if st := e.HostStats(); st.Used != raw || st.Cached != 2*raw || e.ins.cleanDrops.Value() != 1 {
		t.Fatalf("host pool %+v after %v clean drops, want %d used and %d cached after one", st, e.ins.cleanDrops.Value(), raw, 2*raw)
	}
	if err := e.SwapIn(h); err != nil {
		t.Fatal(err)
	}
	assertBitExact(t, h, other)
}

// TestFreeDropsCleanCopy: freeing a tensor that holds a clean copy returns
// its host bytes, so the pool is empty again.
func TestFreeDropsCleanCopy(t *testing.T) {
	e := newTestExecutor(t, 1<<22, 1<<22)
	h := cycleSealed(t, e, "sealed", sealPayload(3<<14+5), compress.Huffman)
	if err := e.Free(h); err != nil {
		t.Fatal(err)
	}
	if st := e.HostStats(); st.Used != 0 || st.Cached != 0 || e.ins.cleanDrops.Value() != 1 {
		t.Fatalf("host pool %+v after Free, %v clean drops", st, e.ins.cleanDrops.Value())
	}
}

// TestNoCleanCopyUnlessSealedTensor: an unsealed tensor, a block pool sealed
// or not, a sealed tensor with Verify off, and a sealed tensor restored
// from the tier keep no clean copy: every restore leaves the host pool
// empty.
func TestNoCleanCopyUnlessSealedTensor(t *testing.T) {
	want := sealPayload(3<<14 + 5)
	e := newTestExecutor(t, 1<<22, 1<<22)
	lib, err := e.Register("lib", tensor.FromSlice(append([]float32(nil), want...)))
	if err != nil {
		t.Fatal(err)
	}
	pools := []*BlockPool{lib.pool}
	for _, sealed := range []bool{false, true} {
		p, err := e.RegisterBlockPool(fmt.Sprintf("pool-%v", sealed), 1<<14, 3)
		if err != nil {
			t.Fatal(err)
		}
		copy(p.data, want)
		if sealed {
			p.seal()
		}
		pools = append(pools, p)
	}
	unverified, err := New(Config{DeviceCapacity: 1 << 22, HostCapacity: 1 << 22})
	if err != nil {
		t.Fatal(err)
	}
	h, err := unverified.Register("sealed", tensor.FromSlice(append([]float32(nil), want...)))
	if err != nil {
		t.Fatal(err)
	}
	h.Seal()
	pools = append(pools, h.pool)
	for _, p := range pools {
		all := []int{0}
		if p.numBlocks > 1 {
			all = []int{0, 1, 2}
		}
		for cycle := 0; cycle < 2; cycle++ {
			if err := p.SwapOutBlocks(all, true, compress.ZVC); err != nil {
				t.Fatal(err)
			}
			if err := p.SwapInBlocks(all); err != nil {
				t.Fatal(err)
			}
			if st := p.e.HostStats(); st.Used != 0 || st.Cached != 0 {
				t.Fatalf("%s: host pool %+v after a restore", p.name, st)
			}
		}
	}

	tiered, _ := newTierExecutor(t, 1<<22, 1<<22, 1<<24, nil)
	th, err := tiered.Register("sealed", tensor.FromSlice(append([]float32(nil), want...)))
	if err != nil {
		t.Fatal(err)
	}
	th.Seal()
	if err := tiered.SwapOut(th, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if err := tiered.Demote(th); err != nil {
		t.Fatal(err)
	}
	if err := tiered.SwapIn(th); err != nil {
		t.Fatal(err)
	}
	if st := tiered.HostStats(); st.Used != 0 || st.Cached != 0 || cleanOf(th) != nil {
		t.Fatalf("host pool %+v after a restore from the tier", st)
	}
}

// TestCleanCopyDropRacesItsOwner: two goroutines cycle their own sealed
// tensor raw through a host pool that holds one and a half raw copies, over
// a tier, so a store finds the other tensor's clean copy in the way and
// drops it — while its owner may be restoring it, committing it or about to
// — or demotes its stored copy. A swap-out may still find no room while
// the other tensor's copy is in flight, and then leaves its tensor resident;
// a swap-in that finds its copy claimed by the other's demotion waits for
// it. Every other swap succeeds — none with ErrBusy — and restores the
// registered bytes, and the pool is empty once both are freed. -race checks
// that only the pool's lock orders the drop, the demotion and the owner.
// Both goroutines cycle until a clean drop and a demotion have each been
// counted, so that the race is run whatever the scheduling, and at most
// raceBound long. Each yields after every swap: a drop needs the other
// goroutine to store while this tensor is resident, a demotion while it is
// swapped out, and a lone P would rarely switch in either window.
func TestCleanCopyDropRacesItsOwner(t *testing.T) {
	const elems, raceBound = 1 << 14, 20 * time.Second
	e, _ := newTierExecutor(t, 1<<22, 3*4*elems/2, 1<<24, nil)
	raced := func() bool { return e.ins.cleanDrops.Value() > 0 && e.ins.tierDemotions.Value() > 0 }
	deadline := time.Now().Add(raceBound)
	var wg sync.WaitGroup
	handles := make([]*Handle, 2)
	for g := range handles {
		want := sealPayload(elems)
		want[9] = float32(g + 1)
		h, err := e.Register(fmt.Sprintf("sealed%d", g), tensor.FromSlice(append([]float32(nil), want...)))
		if err != nil {
			t.Fatal(err)
		}
		h.Seal()
		handles[g] = h
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; (i < 100 || !raced()) && !t.Failed() && time.Now().Before(deadline); i++ {
				runtime.Gosched()
				if err := e.SwapOut(h, false, compress.ZVC); errors.Is(err, devmem.ErrOutOfMemory) {
					continue
				} else if err != nil {
					t.Errorf("%s cycle %d: swap-out: %v", h.Name(), i, err)
					return
				}
				runtime.Gosched()
				if err := e.SwapIn(h); err != nil {
					t.Errorf("%s cycle %d: swap-in: %v", h.Name(), i, err)
					return
				}
				if got, _ := h.Data(); !sameBits(got, want) {
					t.Errorf("%s cycle %d: restore differs from the registered bytes", h.Name(), i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !raced() && !t.Failed() {
		t.Fatalf("%v of cycling made %v clean drops and %v demotions: the race was not run",
			raceBound, e.ins.cleanDrops.Value(), e.ins.tierDemotions.Value())
	}
	for _, h := range handles {
		if err := e.Free(h); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.HostStats(); st.Used != 0 || st.Cached != 0 {
		t.Fatalf("host pool %+v after both were freed", st)
	}
}
