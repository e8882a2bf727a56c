package executor

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"cswap/internal/compress"
	"cswap/internal/faultinject"
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
// reading the payload — shown by an element flipped in resident memory
// between a restore and the next swap-out, whose stored digest is still
// the registered bytes'. The next swap-in refuses the flip with
// ErrVerification (after its one retry) and leaves the tensor Swapped.
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
			for cycle := 0; cycle < 3; cycle++ {
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

			h.pool.data[7] = math.Float32frombits(math.Float32bits(h.pool.data[7]) ^ 1)
			if err := swapOutWith(e, h, alg); err != nil {
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

// TestSealedTensorKeepsPlan: with Verify on, a sealed tensor's first
// compressed swap-out records the encode plan, which holds a code table per
// chunk for HUF and none for the other codecs, and every swap-out, the ones
// that pack under the plan included, stores exactly the unplanned encode of
// the registered bytes. An unsealed tensor and a block pool, sealed or not,
// keep no plan.
func TestSealedTensorKeepsPlan(t *testing.T) {
	want := sealPayload(3<<14 + 5)
	for _, alg := range compress.ExtendedAlgorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			e := newTestExecutor(t, 1<<22, 1<<22)
			blob, err := compress.AppendParallelEncode(nil, alg, want, e.Launch())
			if err != nil {
				t.Fatal(err)
			}
			h, err := e.Register("sealed", tensor.FromSlice(append([]float32(nil), want...)))
			if err != nil {
				t.Fatal(err)
			}
			h.Seal()
			tables := 0
			if alg == compress.Huffman {
				tables = compress.ChunkCount(len(want), e.Launch().Grid)
			}
			for cycle := 0; cycle < 3; cycle++ {
				if err := e.SwapOut(h, true, alg); err != nil {
					t.Fatal(err)
				}
				if got := h.pool.plan.Tables(); got != tables {
					t.Fatalf("cycle %d: plan holds %d tables, want %d", cycle, got, tables)
				}
				if !bytes.Equal(storedOf(h).blob, blob) {
					t.Fatalf("cycle %d: stored blob is not the unplanned encode", cycle)
				}
				if err := e.SwapIn(h); err != nil {
					t.Fatal(err)
				}
				assertBitExact(t, h, want)
			}
		})
	}

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
	for _, p := range pools {
		all := []int{0}
		if p.numBlocks > 1 {
			all = []int{0, 1, 2}
		}
		for cycle := 0; cycle < 2; cycle++ {
			if err := p.SwapOutBlocks(all, true, compress.Huffman); err != nil {
				t.Fatal(err)
			}
			if got := p.plan.Tables(); got != 0 {
				t.Fatalf("%s: plan holds %d tables", p.name, got)
			}
			if err := p.SwapInBlocks(all); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSealedPlanSurvivesTransferCorruption: a transfer-out fault corrupts
// the stored copy of a sealed HUF tensor's first swap-out, and its swap-in
// is refused; the plan that swap-out kept was recorded from the resident
// bytes, not the corrupted copy, so it is the plan a clean encode records,
// and a later swap-out's encode under it is the clean blob.
func TestSealedPlanSurvivesTransferCorruption(t *testing.T) {
	e := newFaultyExecutor(t, 1<<22, 1<<23,
		faultinject.Fault{Site: faultinject.SiteTransferOut, Mode: faultinject.Corrupt})
	want := sealPayload(3<<14 + 5)
	h, err := e.Register("sealed", tensor.FromSlice(append([]float32(nil), want...)))
	if err != nil {
		t.Fatal(err)
	}
	h.Seal()
	if err := e.SwapOut(h, true, compress.Huffman); err != nil {
		t.Fatal(err)
	}
	if e.FaultStats().Corruptions != 1 {
		t.Fatal("the transfer-out fault did not fire")
	}
	if err := e.SwapIn(h); err == nil {
		t.Fatal("a corrupted stored copy was restored")
	}
	var clean compress.EncodePlan
	blob, err := compress.AppendParallelEncodeWith(nil, compress.Huffman, want, e.Launch(), nil, &clean)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h.pool.plan, clean) {
		t.Fatal("the kept plan is not the one a clean encode of the registered bytes records")
	}
	next, err := e.arenaEncode(compress.Huffman, want, &h.pool.plan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(next, blob) {
		t.Fatal("an encode under the kept plan differs from the clean blob")
	}
}
