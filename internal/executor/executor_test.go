package executor

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"cswap/internal/compress"
	"cswap/internal/devmem"
	"cswap/internal/faultinject"
	"cswap/internal/tensor"
)

func newTestExecutor(t *testing.T, dev, host int64) *Executor {
	t.Helper()
	e, err := New(Config{
		DeviceCapacity: dev,
		HostCapacity:   host,
		Launch:         compress.Launch{Grid: 16, Block: 64},
		Verify:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// storedOf returns the record of the tensor's stored run, nil when none is
// stored. Tests read it while the handle is Swapped and nothing is in
// flight.
func storedOf(h *Handle) *stored {
	p := h.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if pr := p.run[0]; pr != nil {
		return &pr.stored
	}
	return nil
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero capacities accepted")
	}
	if _, err := New(Config{DeviceCapacity: 1, HostCapacity: 1,
		Launch: compress.Launch{Grid: 10, Block: 32}}); err == nil {
		t.Fatal("invalid launch accepted")
	}
	// Zero launch gets a sane default.
	e, err := New(Config{DeviceCapacity: 1 << 20, HostCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if e.cfg.Launch.Grid == 0 {
		t.Fatal("default launch not applied")
	}
}

func TestSwapOutInRoundTripCompressed(t *testing.T) {
	e := newTestExecutor(t, 1<<22, 1<<22)
	gen := tensor.NewGenerator(1)
	tn := gen.Uniform(50000, 0.6)
	want := append([]float32(nil), tn.Data...)

	h, err := e.Register("ReLU1", tn)
	if err != nil {
		t.Fatal(err)
	}
	if h.State() != Resident {
		t.Fatal("not resident after Register")
	}
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if h.State() != Swapped {
		t.Fatal("not swapped after SwapOut")
	}
	if e.DeviceStats().Used != 0 {
		t.Fatal("device memory not released by swap-out")
	}
	if e.HostStats().Used >= h.Bytes() {
		t.Fatal("compressed swap should use less host memory than raw size")
	}
	if err := e.SwapIn(h); err != nil {
		t.Fatal(err)
	}
	got, err := h.Data()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("mismatch at %d", i)
		}
	}
	if e.HostStats().Used != 0 {
		t.Fatal("host memory not released by swap-in")
	}
	if err := e.Free(h); err != nil {
		t.Fatal(err)
	}
	if e.Live() != 0 {
		t.Fatal("handle still live")
	}
	st := e.Stats()
	if st.SwapOuts != 1 || st.SwapIns != 1 || st.CompressedTensors != 1 || st.Verified != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Ratio() >= 1 {
		t.Fatalf("compressed ratio %v", st.Ratio())
	}
}

func TestSwapOutInRoundTripRaw(t *testing.T) {
	e := newTestExecutor(t, 1<<22, 1<<22)
	tn := tensor.NewGenerator(2).Uniform(10000, 0.5)
	h, err := e.Register("x", tn)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, false, 0); err != nil {
		t.Fatal(err)
	}
	if e.HostStats().Used != h.Bytes() {
		t.Fatalf("raw swap host usage %d, want %d", e.HostStats().Used, h.Bytes())
	}
	if err := e.SwapIn(h); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Ratio() != 1 {
		t.Fatalf("raw ratio %v", e.Stats().Ratio())
	}
	if err := e.Free(h); err != nil {
		t.Fatal(err)
	}
	// The arena should have recycled the raw buffer.
	if e.arena.puts.Value() == 0 {
		t.Fatal("raw buffer never returned to the arena")
	}
}

func TestAllCodecsThroughExecutor(t *testing.T) {
	for _, a := range compress.Algorithms() {
		e := newTestExecutor(t, 1<<22, 1<<23)
		tn := tensor.NewGenerator(3).Uniform(20000, 0.7)
		h, err := e.Register(a.String(), tn)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SwapOut(h, true, a); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if err := e.SwapIn(h); err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if err := e.Free(h); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDevicePoolPressureForcesSwapping(t *testing.T) {
	// Device pool fits one tensor; registering the second without
	// swapping the first out must fail with OOM.
	e := newTestExecutor(t, 45000, 1<<22) // 40 KB tensors
	gen := tensor.NewGenerator(4)
	t1 := gen.Uniform(10000, 0.5)
	h1, err := e.Register("a", t1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("b", gen.Uniform(10000, 0.5)); !errors.Is(err, devmem.ErrOutOfMemory) {
		t.Fatalf("expected OOM, got %v", err)
	}
	if err := e.SwapOut(h1, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Register("b", gen.Uniform(10000, 0.5)); err != nil {
		t.Fatalf("register after swap-out: %v", err)
	}
}

func TestStateMachineErrors(t *testing.T) {
	e := newTestExecutor(t, 1<<22, 1<<22)
	tn := tensor.NewGenerator(5).Uniform(1000, 0.5)
	h, _ := e.Register("x", tn)
	if err := e.SwapIn(h); err == nil {
		t.Fatal("SwapIn of resident tensor accepted")
	}
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); err == nil {
		t.Fatal("double SwapOut accepted")
	}
	if _, err := h.Data(); !errors.Is(err, ErrNotResident) {
		t.Fatalf("Data on swapped tensor err = %v", err)
	}
	if err := e.Free(h); err != nil {
		t.Fatal(err)
	}
	if err := e.Free(h); !errors.Is(err, ErrFreed) {
		t.Fatalf("double Free err = %v", err)
	}
	if err := e.SwapIn(h); !errors.Is(err, ErrFreed) {
		t.Fatalf("SwapIn after Free err = %v", err)
	}
	if err := e.SwapOut(h, false, 0); !errors.Is(err, ErrFreed) {
		t.Fatalf("SwapOut after Free err = %v", err)
	}
}

func TestHostPoolExhaustion(t *testing.T) {
	e := newTestExecutor(t, 1<<22, 1024) // tiny host pool
	tn := tensor.NewGenerator(6).Uniform(10000, 0.2)
	h, _ := e.Register("x", tn)
	if err := e.SwapOut(h, false, 0); !errors.Is(err, devmem.ErrOutOfMemory) {
		t.Fatalf("expected host OOM, got %v", err)
	}
	// The tensor must remain resident and usable after the failure.
	if h.State() != Resident {
		t.Fatal("failed swap-out corrupted state")
	}
	if _, err := h.Data(); err != nil {
		t.Fatal(err)
	}
}

func TestSwapInDetectsCorruptedHostData(t *testing.T) {
	// Failure injection: flip bits in the swapped blob; SwapIn must fail
	// (codec error or checksum mismatch), never return wrong data, and
	// the pools must stay consistent.
	for _, alg := range compress.ExtendedAlgorithms() {
		e := newTestExecutor(t, 1<<22, 1<<23)
		tn := tensor.NewGenerator(9).Uniform(20000, 0.6)
		h, err := e.Register("victim", tn)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SwapOut(h, true, alg); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		// Corrupt a payload byte past the container directory.
		blob := storedOf(h).blob
		blob[len(blob)/2] ^= 0xFF
		err = e.SwapIn(h)
		if err == nil {
			// Some corruptions decode structurally but must then fail
			// verification; reaching here means wrong data was accepted.
			t.Fatalf("%s: corrupted blob accepted", alg)
		}
		// The failed swap-in must not leak device memory.
		if e.DeviceStats().Used != 0 {
			t.Fatalf("%s: device leak after failed swap-in", alg)
		}
		if h.State() != Swapped {
			t.Fatalf("%s: state corrupted", alg)
		}
	}
}

func TestRawSwapCorruptionCaughtByChecksum(t *testing.T) {
	e := newTestExecutor(t, 1<<22, 1<<22)
	tn := tensor.NewGenerator(10).Uniform(5000, 0.5)
	h, err := e.Register("raw", tn)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, false, 0); err != nil {
		t.Fatal(err)
	}
	storedOf(h).blob[100] ^= 0x01
	if err := e.SwapIn(h); !errors.Is(err, ErrVerification) {
		t.Fatalf("err = %v, want ErrVerification", err)
	}
}

// newFaultyExecutor builds an executor with the given faults armed.
func newFaultyExecutor(t *testing.T, dev, host int64, faults ...faultinject.Fault) *Executor {
	t.Helper()
	e, err := New(Config{
		DeviceCapacity: dev,
		HostCapacity:   host,
		Launch:         compress.Launch{Grid: 16, Block: 64},
		Verify:         true,
		Faults:         faultinject.New(faults...),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEncodeFailureFallsBackToRaw(t *testing.T) {
	e := newFaultyExecutor(t, 1<<22, 1<<22,
		faultinject.Fault{Site: faultinject.SiteEncode, Mode: faultinject.Fail})
	tn := tensor.NewGenerator(11).Uniform(20000, 0.6)
	want := append([]float32(nil), tn.Data...)
	h, err := e.Register("x", tn)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatalf("encode failure must degrade, not error: %v", err)
	}
	if h.Compressed() {
		t.Fatal("fallback swap still marked compressed")
	}
	st := e.Stats()
	if st.EncodeFallbacks != 1 || st.CompressedTensors != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.MovedBytes != h.Bytes() {
		t.Fatalf("raw fallback moved %d bytes, want %d", st.MovedBytes, h.Bytes())
	}
	if err := e.SwapIn(h); err != nil {
		t.Fatal(err)
	}
	got, err := h.Data()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("fallback round trip mismatch at %d", i)
		}
	}
	if fs := e.FaultStats(); fs.Failures != 1 {
		t.Fatalf("fault stats %+v", fs)
	}
}

func TestHostAllocFailureFallsBackToRaw(t *testing.T) {
	// The compressed blob's host allocation fails (injected); the executor
	// must retry the raw path instead of surfacing.
	e := newFaultyExecutor(t, 1<<22, 1<<22,
		faultinject.Fault{Site: faultinject.SiteHostAlloc, Mode: faultinject.Fail})
	tn := tensor.NewGenerator(12).Uniform(20000, 0.6)
	want := append([]float32(nil), tn.Data...)
	h, err := e.Register("x", tn)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.RLE); err != nil {
		t.Fatalf("host-pool pressure must degrade, not error: %v", err)
	}
	if h.Compressed() {
		t.Fatal("fallback swap still marked compressed")
	}
	st := e.Stats()
	if st.AllocFallbacks != 1 || st.Fallbacks() != 1 {
		t.Fatalf("stats %+v", st)
	}
	if err := e.SwapIn(h); err != nil {
		t.Fatal(err)
	}
	got, _ := h.Data()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("fallback round trip mismatch at %d", i)
		}
	}
	if hs := e.HostStats(); hs.FailedAllocs != 1 {
		t.Fatalf("host pool stats %+v", hs)
	}
}

func TestGenuineRawHostExhaustionStillSurfaces(t *testing.T) {
	// Graceful degradation must not mask real capacity exhaustion: when
	// even the raw fallback cannot be allocated, the error surfaces and
	// the tensor stays resident.
	e := newTestExecutor(t, 1<<22, 100) // host pool far too small for anything
	tn := tensor.NewGenerator(13).Uniform(10000, 0.99)
	h, _ := e.Register("x", tn)
	if err := e.SwapOut(h, true, compress.ZVC); !errors.Is(err, devmem.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	if h.State() != Resident {
		t.Fatal("failed swap-out corrupted state")
	}
	if st := e.Stats(); st.Fallbacks() != 0 || st.SwapOuts != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTransferInCorruptionRecoveredFromRetainedBlob(t *testing.T) {
	// In-flight corruption on the host→device transfer: the first decode
	// (or its checksum) fails, the retry from the retained host blob
	// succeeds, and the swap-in commits.
	for _, raw := range []bool{false, true} {
		e := newFaultyExecutor(t, 1<<22, 1<<23,
			faultinject.Fault{Site: faultinject.SiteTransferIn, Mode: faultinject.Corrupt})
		tn := tensor.NewGenerator(14).Uniform(20000, 0.6)
		want := append([]float32(nil), tn.Data...)
		h, err := e.Register("x", tn)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SwapOut(h, !raw, compress.ZVC); err != nil {
			t.Fatal(err)
		}
		if err := e.SwapIn(h); err != nil {
			t.Fatalf("raw=%v: transient corruption must be recovered: %v", raw, err)
		}
		st := e.Stats()
		if st.DecodeRetries != 1 || st.DecodeRecoveries != 1 {
			t.Fatalf("raw=%v: stats %+v", raw, st)
		}
		got, _ := h.Data()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("raw=%v: recovered data mismatch at %d", raw, i)
			}
		}
	}
}

func TestTransferInTruncationRecoveredFromRetainedBlob(t *testing.T) {
	e := newFaultyExecutor(t, 1<<22, 1<<23,
		faultinject.Fault{Site: faultinject.SiteTransferIn, Mode: faultinject.Truncate})
	tn := tensor.NewGenerator(15).Uniform(20000, 0.6)
	h, err := e.Register("x", tn)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.LZ4); err != nil {
		t.Fatal(err)
	}
	if err := e.SwapIn(h); err != nil {
		t.Fatalf("truncated transfer must be recovered: %v", err)
	}
	if st := e.Stats(); st.DecodeRecoveries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestInjectedDecodeFailureRecovered(t *testing.T) {
	e := newFaultyExecutor(t, 1<<22, 1<<23,
		faultinject.Fault{Site: faultinject.SiteDecode, Mode: faultinject.Fail})
	tn := tensor.NewGenerator(16).Uniform(20000, 0.6)
	h, err := e.Register("x", tn)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.CSR); err != nil {
		t.Fatal(err)
	}
	if err := e.SwapIn(h); err != nil {
		t.Fatalf("one-shot injected decode failure must be recovered: %v", err)
	}
	if st := e.Stats(); st.DecodeRetries != 1 || st.DecodeRecoveries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestHUFDecodeRetryRestoresPairedTensor: a 16-chunk HUF tensor, whose
// chunks decode in interleaved pairs at up to four cores, survives a
// one-shot corrupted transfer and a one-shot failed chunk decode through the
// retry from the retained blob, and restores bit-exact.
func TestHUFDecodeRetryRestoresPairedTensor(t *testing.T) {
	for _, f := range []faultinject.Fault{
		{Site: faultinject.SiteTransferIn, Mode: faultinject.Corrupt},
		{Site: faultinject.SiteDecode, Mode: faultinject.Fail},
	} {
		e := newFaultyExecutor(t, 1<<23, 1<<23, f)
		tn := tensor.NewGenerator(18).Uniform(16*16<<10, 0.2)
		want := append([]float32(nil), tn.Data...)
		h, err := e.Register("x", tn)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SwapOut(h, true, compress.Huffman); err != nil {
			t.Fatal(err)
		}
		if err := e.SwapIn(h); err != nil {
			t.Fatalf("%s: one-shot fault must be recovered: %v", f.Site, err)
		}
		if st := e.Stats(); st.DecodeRetries != 1 || st.DecodeRecoveries != 1 {
			t.Fatalf("%s: stats %+v", f.Site, st)
		}
		got, _ := h.Data()
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s: recovered data mismatch at %d", f.Site, i)
			}
		}
	}
}

func TestTransferOutCorruptionSurfacesChunkContext(t *testing.T) {
	// Persistent corruption of the stored blob (the transfer-out copy is
	// what the host pool retains): the retry rereads the same bad bytes,
	// so the failure must surface — wrapped with codec and chunk context
	// when the codec caught it — and never as silent wrong data.
	e := newTestExecutor(t, 1<<22, 1<<23)
	tn := tensor.NewGenerator(17).Uniform(20000, 0.6)
	h, err := e.Register("victim", tn)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	// Flip the first chunk's algorithm byte — deterministic structural
	// corruption the decoder pins to chunk 0.
	blob := storedOf(h).blob
	numChunks := int(binary.LittleEndian.Uint32(blob[10:14]))
	blob[14+8*numChunks] ^= 0xFF
	err = e.SwapIn(h)
	if err == nil {
		t.Fatal("persistently corrupted blob accepted")
	}
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("err = %v, want wrapped ErrCorrupt", err)
	}
	var ce *compress.ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want codec+chunk context (*compress.ChunkError)", err)
	}
	if ce.Alg != compress.ZVC || ce.Chunk != 0 {
		t.Fatalf("chunk context %+v", ce)
	}
	if st := e.Stats(); st.DecodeRetries != 1 || st.DecodeRecoveries != 0 {
		t.Fatalf("stats %+v", st)
	}
	if h.State() != Swapped || e.DeviceStats().Used != 0 {
		t.Fatal("failed swap-in corrupted state or leaked device memory")
	}
}

func TestInjectedTransferOutCorruptionNeverSilent(t *testing.T) {
	// An injector-armed transfer-out fault corrupts what the host pool
	// stores; whatever byte it hits, the swap-in must error (codec or
	// checksum), never silently return wrong data.
	for _, alg := range compress.ExtendedAlgorithms() {
		e := newFaultyExecutor(t, 1<<22, 1<<23,
			faultinject.Fault{Site: faultinject.SiteTransferOut, Mode: faultinject.Corrupt})
		tn := tensor.NewGenerator(18).Uniform(20000, 0.6)
		h, err := e.Register("victim", tn)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SwapOut(h, true, alg); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if err := e.SwapIn(h); err == nil {
			t.Fatalf("%s: persistently corrupted blob accepted", alg)
		}
		if h.State() != Swapped || e.DeviceStats().Used != 0 {
			t.Fatalf("%s: failed swap-in corrupted state or leaked device memory", alg)
		}
	}
}

func TestInjectedDeviceAllocFailureLeavesTensorSwapped(t *testing.T) {
	e := newFaultyExecutor(t, 1<<22, 1<<23,
		faultinject.Fault{Site: faultinject.SiteDeviceAlloc, Mode: faultinject.Fail, After: 2})
	tn := tensor.NewGenerator(19).Uniform(10000, 0.5)
	h, err := e.Register("x", tn) // device alloc #1
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if err := e.SwapIn(h); !errors.Is(err, faultinject.ErrInjected) { // device alloc #2 fails
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if h.State() != Swapped {
		t.Fatal("failed swap-in lost the tensor")
	}
	// The fault was one-shot: the caller can simply try again.
	if err := e.SwapIn(h); err != nil {
		t.Fatalf("retry after transient device-alloc failure: %v", err)
	}
}

func TestDelayedCodecWorkStillCompletes(t *testing.T) {
	e := newFaultyExecutor(t, 1<<22, 1<<23,
		faultinject.Fault{Site: faultinject.SiteEncode, Mode: faultinject.Delay, Delay: time.Millisecond},
		faultinject.Fault{Site: faultinject.SiteDecode, Mode: faultinject.Delay, Delay: time.Millisecond},
	)
	tn := tensor.NewGenerator(20).Uniform(5000, 0.5)
	h, err := e.Register("x", tn)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	if err := e.SwapIn(h); err != nil {
		t.Fatal(err)
	}
	if fs := e.FaultStats(); fs.Delays != 2 {
		t.Fatalf("fault stats %+v", fs)
	}
	if st := e.Stats(); st.DecodeRetries != 0 || st.Fallbacks() != 0 {
		t.Fatalf("delays must not trigger fallbacks: %+v", st)
	}
}

func TestConcurrentSwapStreamsUnderFaults(t *testing.T) {
	// The concurrency contract with the fault layer active: several
	// goroutines drive handles through swap cycles while encode failures
	// and transfer corruptions keep firing. Everything must still complete
	// (degraded where needed) with no races (-race) and no leaks.
	inj := faultinject.New(
		faultinject.Fault{Site: faultinject.SiteEncode, Mode: faultinject.Fail, After: 3, Every: 17},
		faultinject.Fault{Site: faultinject.SiteTransferIn, Mode: faultinject.Corrupt, After: 2, Every: 5},
		// The injector's counters are shared by ALL workers, so which stream
		// draws which fault depends on the schedule. Spacing the decode
		// faults 271 chunk-ops apart makes most of them land alone (and
		// recover on the one retry), but a swap-in can still draw a
		// transfer-in corruption AND a decode fault on its retry; the
		// executor's one-retry rule then legitimately surfaces it. The
		// workers below hold that case to the retry-safe contract instead
		// of pretending the spacing rules it out.
		faultinject.Fault{Site: faultinject.SiteDecode, Mode: faultinject.Fail, After: 7, Every: 271},
	)
	e, err := New(Config{
		DeviceCapacity: 8 << 20,
		HostCapacity:   32 << 20,
		Launch:         compress.Launch{Grid: 16, Block: 64},
		Verify:         true,
		Faults:         inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const rounds = 15
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := tensor.NewGenerator(int64(w))
			for r := 0; r < rounds; r++ {
				tn := gen.Uniform(10000, 0.6)
				want := append([]float32(nil), tn.Data...)
				h, err := e.Register(fmt.Sprintf("w%d-r%d", w, r), tn)
				if err != nil {
					errs <- err
					return
				}
				alg := compress.Algorithms()[(w+r)%4]
				if err := e.SwapOut(h, true, alg); err != nil {
					errs <- fmt.Errorf("swap out: %w", err)
					return
				}
				err = e.SwapIn(h)
				// A surfaced injected fault means both attempts drew one. The
				// documented contract: the handle is still cleanly Swapped
				// and another SwapIn restores it. That retry draws from the
				// same shared counters, so it gets a few tries of its own
				// (decode faults are 271 chunk-ops apart; three surfaced
				// swap-ins in a row would need three of them).
				for try := 0; try < 3 && errors.Is(err, faultinject.ErrInjected); try++ {
					if st := h.State(); st != Swapped {
						errs <- fmt.Errorf("surfaced swap-in left %s %s, want swapped", h.Name(), st)
						return
					}
					err = e.SwapIn(h)
				}
				if err != nil {
					errs <- fmt.Errorf("swap in: %w", err)
					return
				}
				got, err := h.Data()
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						errs <- fmt.Errorf("%s restored[%d] = %v, want %v", h.Name(), i, got[i], want[i])
						return
					}
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
	if e.Live() != 0 || e.DeviceStats().Used != 0 || e.HostStats().Used != 0 {
		t.Fatal("faulty concurrent streams leaked memory")
	}
	st := e.Stats()
	if st.SwapOuts != workers*rounds || st.SwapIns != workers*rounds {
		t.Fatalf("stats %+v", st)
	}
	if st.EncodeFallbacks == 0 || st.DecodeRecoveries == 0 {
		t.Fatalf("faults never fired under concurrency: %+v", st)
	}
	if fs := e.FaultStats(); fs.Total() == 0 {
		t.Fatalf("fault stats %+v", fs)
	}
}

// TestSwapOutDevFreeFailureRecyclesBlob pins the blob-leak fix: when the
// device block cannot be released after the host copy landed, the encoded
// (or raw) blob must go back to the arena — its puts counter accounts for
// it — and the swap-out rolls back with the host reservation released.
func TestSwapOutDevFreeFailureRecyclesBlob(t *testing.T) {
	for _, compressed := range []bool{true, false} {
		e := newTestExecutor(t, 1<<22, 1<<22)
		tn := tensor.NewGenerator(60).Uniform(20000, 0.6)
		h, err := e.Register("x", tn)
		if err != nil {
			t.Fatal(err)
		}
		// Sabotage: release the device block out from under the handle so
		// the swap-out's own Free fails with ErrDoubleFree.
		if err := h.pool.devBlock.Free(); err != nil {
			t.Fatal(err)
		}
		arenaPuts := e.arena.puts.Value()
		if err := e.SwapOut(h, compressed, compress.ZVC); !errors.Is(err, devmem.ErrDoubleFree) {
			t.Fatalf("compressed=%v: err = %v, want ErrDoubleFree", compressed, err)
		}
		if h.State() != Resident {
			t.Fatalf("compressed=%v: failed swap-out left state %s", compressed, h.State())
		}
		if e.HostStats().Used != 0 {
			t.Fatalf("compressed=%v: failed swap-out leaked host memory", compressed)
		}
		if got := e.arena.puts.Value(); got != arenaPuts+1 {
			t.Fatalf("compressed=%v: arena puts %v -> %v: blob leaked on the dev-free failure path", compressed, arenaPuts, got)
		}
	}
}

// TestSwapInHostFreeFailureAtomic pins the atomic-failure fix: when the
// host block cannot be released after a successful decode, the handle
// must stay cleanly Swapped — retained blob intact, device reservation
// released, registered region kept for the retry, bookkeeping consistent —
// and the failure must look identical on a retry.
func TestSwapInHostFreeFailureAtomic(t *testing.T) {
	e := newTestExecutor(t, 1<<22, 1<<22)
	tn := tensor.NewGenerator(61).Uniform(20000, 0.6)
	region := tn.Data
	h, err := e.Register("x", tn)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SwapOut(h, true, compress.ZVC); err != nil {
		t.Fatal(err)
	}
	// Sabotage: release the host block out from under the handle so the
	// swap-in's commit-time Free fails with ErrDoubleFree.
	rec := storedOf(h)
	if err := rec.hostBlock.Free(); err != nil {
		t.Fatal(err)
	}
	blob := rec.blob
	for attempt := 0; attempt < 2; attempt++ { // the failure is retry-stable
		if err := e.SwapIn(h); !errors.Is(err, devmem.ErrDoubleFree) {
			t.Fatalf("attempt %d: err = %v, want ErrDoubleFree", attempt, err)
		}
		if h.State() != Swapped {
			t.Fatalf("attempt %d: failed swap-in left state %s, want swapped", attempt, h.State())
		}
		if rec := storedOf(h); &rec.blob[0] != &blob[0] || rec.hostBlock == nil {
			t.Fatalf("attempt %d: retained blob or host block lost on the failure path", attempt)
		}
		if e.DeviceStats().Used != 0 {
			t.Fatalf("attempt %d: failed swap-in leaked device memory", attempt)
		}
		if &h.pool.data[0] != &region[0] {
			t.Fatalf("attempt %d: decode region dropped instead of retained", attempt)
		}
		if st := e.Stats(); st.SwapIns != 0 {
			t.Fatalf("attempt %d: failed swap-in counted as committed: %+v", attempt, st)
		}
	}
}

func TestConcurrentSwapStreams(t *testing.T) {
	// Several goroutines each drive their own tensors through the full
	// register/swap-out/swap-in/free cycle against shared pools — the
	// multi-stream usage a real swapping executor sees. Run with -race.
	e := newTestExecutor(t, 8<<20, 32<<20)
	const workers = 8
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := tensor.NewGenerator(int64(w))
			for r := 0; r < rounds; r++ {
				tn := gen.Uniform(10000, 0.6)
				h, err := e.Register(fmt.Sprintf("w%d-r%d", w, r), tn)
				if err != nil {
					errs <- err
					return
				}
				alg := compress.Algorithms()[(w+r)%4]
				if err := e.SwapOut(h, true, alg); err != nil {
					errs <- err
					return
				}
				if err := e.SwapIn(h); err != nil {
					errs <- err
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
	if e.Live() != 0 || e.DeviceStats().Used != 0 || e.HostStats().Used != 0 {
		t.Fatal("concurrent streams leaked memory")
	}
	st := e.Stats()
	if st.SwapOuts != workers*rounds || st.Verified != workers*rounds {
		t.Fatalf("stats %+v", st)
	}
}
