// Package executor is the functional swapping executor: where internal/swap
// simulates *when* things happen, this package actually does them. Real
// float32 tensors are registered into a fixed-capacity device pool, swapped
// out through the real compression codecs (partitioned by the tuned launch
// geometry) into a pinned-host pool, and swapped back in bit-exactly — the
// data path of Figure 4's "swapping executor", with the memory-pool reuse
// the paper's prototype takes from Torch.
//
// # Failure semantics
//
// The executor never loses a tensor to a codec or allocator fault. Like
// cDMA's raw DMA engine beside the compressing one, a raw (uncompressed)
// path shadows every compressed swap-out: a codec encode failure or a
// host-pool allocation failure for the compressed blob degrades to a raw
// swap-out instead of erroring (counted in Stats.EncodeFallbacks /
// Stats.AllocFallbacks). On swap-in, the host blob is retained until the
// restore commits, so a decode or verification failure retries once from
// the retained copy before surfacing (Stats.DecodeRetries /
// Stats.DecodeRecoveries) — transient in-flight corruption cannot kill a
// training iteration, while persistent corruption surfaces as an error
// wrapped with codec and chunk context (compress.ChunkError), never as
// silent wrong data. Fault injection for all of these paths is wired
// through internal/faultinject via Config.Faults.
//
// # Concurrency
//
// There is one kind of swappable object, the block pool (blockpool.go); a
// tensor Handle is a pool of one block. Every block carries a guarded
// state machine: an operation first claims its blocks (Resident→SwappingOut,
// Swapped→SwappingIn) under the pool's lock, owns their storage exclusively
// while the transitional state holds, and commits the final state when
// done. Concurrent misuse of one object — two goroutines swapping it at
// once, a Free racing a swap — fails fast with ErrBusy instead of
// corrupting memory; only a block a demotion holds is waited for. Distinct
// objects, and disjoint blocks of one pool, may always be driven
// concurrently; the async API (SwapOutAsyncCtx / SwapInAsyncCtx /
// PrefetchCtx and the pool's *BlocksCtx calls, see async.go) builds its
// bounded in-flight pipeline on exactly this guarantee: each call runs the
// synchronous loop as one job under one slot of the window. A swap service
// runs each request's swap synchronously in its own goroutine
// (BlockPool.Swap), outside the window: it admits its requests itself.
package executor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cswap/internal/compress"
	"cswap/internal/devmem"
	"cswap/internal/faultinject"
	"cswap/internal/metrics"
	"cswap/internal/tensor"
	"cswap/internal/tier"
)

// Common executor errors.
var (
	ErrNotResident  = errors.New("executor: tensor not resident on device")
	ErrNotSwapped   = errors.New("executor: tensor not swapped out")
	ErrFreed        = errors.New("executor: tensor already freed")
	ErrVerification = errors.New("executor: swapped-in tensor differs from original")
	// ErrSealed reports a write to a sealed tensor's memory (Handle.Seal).
	ErrSealed = errors.New("executor: tensor is sealed")
	// ErrBusy reports that another operation holds the handle: a swap is
	// in flight on it (SwappingOut/SwappingIn). The caller raced itself —
	// wait for the in-flight operation (its Ticket, or the synchronous
	// call) and retry.
	ErrBusy = errors.New("executor: handle busy")
	// ErrClosed reports that the executor has been closed; no new tensors
	// or async work are accepted.
	ErrClosed = errors.New("executor: closed")
	// ErrShed reports that a swap yielded at a run boundary because the
	// yield function on its context (WithYield) asked it to. The runs not
	// yet started did not run: the handle (or the batch's remaining runs)
	// rolled back to the state it was claimed from, so the caller may
	// simply resubmit later — it is load shedding, not failure.
	ErrShed = errors.New("executor: speculative work shed for critical backlog")
)

// DefaultMaxInFlight is the async pipeline's in-flight window when
// Config.MaxInFlight is zero.
const DefaultMaxInFlight = 4

// Config configures an executor.
type Config struct {
	// DeviceCapacity and HostCapacity are the pool sizes in bytes.
	DeviceCapacity, HostCapacity int64
	// Launch is the kernel geometry that partitions parallel compression,
	// fixed for the executor's life: its Grid is the most chunks a blob
	// this executor encodes is cut into (compress.ChunkCount). Decoding
	// reads the chunking from the blob, so it takes no launch.
	Launch compress.Launch
	// Verify compares every restored payload with a digest of what was
	// swapped out (compress.Checksum): the executor's end-to-end integrity
	// guarantee, and the daemon default. An unsealed payload is digested
	// at every swap-out, because its owner may have rewritten it since the
	// last; a sealed tensor (Handle.Seal) only at its first, and every
	// later swap-out reuses that digest. For the same reason a sealed
	// tensor's verified restore keeps its stored blob as a clean copy,
	// which its next swap-out commits instead of encoding again. Each
	// digest is one more pass over the payload beside the codec's. With
	// Verify off no digest is taken and no clean copy kept.
	Verify bool
	// MaxInFlight bounds how many asynchronous calls (SwapOutAsyncCtx,
	// SwapInAsyncCtx, PrefetchCtx and a pool's *BlocksCtx batches) may be in
	// flight at once, one slot each, however many runs the call's batch
	// has. A submission past the bound blocks until a slot frees —
	// backpressure, not an error. Zero selects DefaultMaxInFlight.
	// Synchronous calls (SwapOut, SwapIn, Demote, Free, SwapOutBlocks,
	// SwapInBlocks, Swap) take no slot: a swap service that runs its
	// requests' swaps with Swap bounds them with its own admission.
	MaxInFlight int
	// Faults optionally injects deterministic failures into the data path
	// (codec work, pool allocations, transfers). Nil injects nothing.
	Faults *faultinject.Injector
	// Tier optionally attaches a disk-backed spill tier below the
	// pinned-host pool: under host pressure, cold swapped payloads demote
	// into it (ranked by compression ratio × re-access prediction) instead
	// of failing the allocation, and swap-ins promote back transparently.
	// The store is one scratch file that starts empty; its owner closes it
	// (removing the file) after the executor, which never does. Nil
	// disables tiering; see tier.go.
	Tier *tier.Store
	// TierWatermark, in (0,1), enables background watermark demotion: a
	// demoter goroutine demotes ranked cold payloads whenever host-pool
	// occupancy, cached bytes included, exceeds TierWatermark×HostCapacity,
	// so swap-outs find headroom already freed instead of demoting inline
	// on the hot path. It wakes on the events that raise occupancy (a
	// committed swap-out, a read-ahead stage, a restore that keeps a clean
	// copy), not on a timer. Zero disables the demoter; a non-zero value
	// requires a Tier.
	TierWatermark float64
	// Observer optionally receives deep instrumentation: per-codec encode/
	// decode timings and byte volumes, and fallback/retry events. When it
	// carries a metrics registry, that registry also becomes the backing
	// store the Stats view reads from. A nil Observer is valid and costs
	// ~zero on the hot path (one pointer check; no timing calls, no
	// allocations).
	Observer *metrics.Observer
}

// Executor moves real tensors between a device pool and a host pool.
type Executor struct {
	cfg    Config
	device *devmem.Pool
	host   *devmem.Pool
	arena  *arena
	hooks  *compress.Hooks

	// reg backs the Stats view: the Observer's registry when one is
	// configured, otherwise a private registry. ins holds the pre-resolved
	// cells so counting never allocates; obs gates the deep
	// (timing/event) instrumentation; epoch anchors the swappedAt clock.
	reg   *metrics.Registry
	ins   instruments
	obs   *metrics.Observer
	epoch time.Time

	// gate is the async pipeline's bounded in-flight window (async.go), the
	// only one: tier I/O is serialized by the store's own lock (tier.go).
	// tier is the optional disk spill tier, demoter its background demoter
	// (nil without Config.TierWatermark).
	gate    asyncGate
	tier    *tier.Store
	demoter *demoter

	// mu guards the object registry and the closed flag; counters are
	// atomic registry cells. Per-block state is guarded by each pool's own
	// lock (see BlockPool).
	mu     sync.Mutex
	closed bool
	nextID int
	pools  map[int]*BlockPool
}

// Stats is a point-in-time view over the executor's metrics registry — the
// former ad-hoc counter struct, kept readable for back-compat. Mutate
// nothing here; the registry (see Registry) is the source of truth.
type Stats struct {
	SwapOuts, SwapIns int
	// RawBytes is the uncompressed volume swapped out; MovedBytes the
	// volume that actually crossed the (simulated) link.
	RawBytes, MovedBytes int64
	// CompressedTensors counts swap-outs that used a codec.
	CompressedTensors int
	Verified          int
	// EncodeFallbacks counts swap-outs that degraded to the raw path after
	// a codec encode failure; AllocFallbacks counts those that degraded
	// after the compressed blob failed host-pool allocation.
	EncodeFallbacks, AllocFallbacks int
	// DecodeRetries counts swap-ins whose first decode or verification
	// attempt failed and was retried from the retained host blob;
	// DecodeRecoveries counts the retries that restored the tensor.
	DecodeRetries, DecodeRecoveries int
	// BusyRejections counts operations refused with ErrBusy because
	// another swap held the handle.
	BusyRejections int
	// TierDemotions counts payloads demoted host→disk; TierPromotions
	// counts restores that moved a payload back out of the disk tier.
	TierDemotions, TierPromotions int
}

// Ratio returns moved/raw bytes over the executor's lifetime.
func (s Stats) Ratio() float64 {
	if s.RawBytes == 0 {
		return 1
	}
	return float64(s.MovedBytes) / float64(s.RawBytes)
}

// Fallbacks returns the total number of swap-outs that degraded to raw.
func (s Stats) Fallbacks() int { return s.EncodeFallbacks + s.AllocFallbacks }

// State of a block's (or a tensor's) backing storage.
type State int

// Block states. Resident/Swapped/Freed are the stable states;
// SwappingOut/SwappingIn are transitional claims held by exactly one
// in-flight operation (DESIGN.md §10 documents the legal transitions).
const (
	Resident    State = iota // data lives in the device pool
	Swapped                  // data lives (possibly compressed) in the host pool
	Freed                    // released
	SwappingOut              // a swap-out (or a demotion) owns the block
	SwappingIn               // a swap-in owns the block
)

// String names the state for errors and logs.
func (s State) String() string {
	switch s {
	case Resident:
		return "resident"
	case Swapped:
		return "swapped"
	case Freed:
		return "freed"
	case SwappingOut:
		return "swapping-out"
	case SwappingIn:
		return "swapping-in"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Handle identifies one registered tensor: a block pool of one block of
// the tensor's length, every operation on it the pool's run path for the
// run {0,1}.
type Handle struct {
	pool *BlockPool
}

// whole is a tensor's one run, shared read-only by every tensor call.
var whole = []BlockRun{{Start: 0, Count: 1}}

// Pool returns the one-block pool behind the tensor.
func (h *Handle) Pool() *BlockPool { return h.pool }

// Seal promises that nothing writes the tensor's memory from now on but
// its own restores — its owner neither rewrites the slice it registered nor
// calls WriteBlocks on its pool, which refuses with ErrSealed. Under
// Config.Verify a sealed tensor is then digested at its first swap-out
// only: every later swap-out reuses that digest, and every restore is still
// checked against it. Each verified restore from the host pool also keeps
// the stored blob there as a clean copy, its bytes reported as cached
// (devmem.Stats.Cached): the next swap-out with the same codec commits it,
// with no encode, no digest and no host allocation, and one with another
// codec drops it and encodes afresh. Memory that
// changed behind the seal never comes back: an encode of it fails the next
// swap-in with ErrVerification, and a committed clean copy restores the
// sealed bytes over it. Free drops the clean copy, and whatever needs host
// room drops clean copies before it demotes a payload to the tier. Call it
// while no swap of the tensor is in flight.
func (h *Handle) Seal() { h.pool.seal() }

// Name returns the tensor's registration name.
func (h *Handle) Name() string { return h.pool.name }

// State returns the handle's current storage state.
func (h *Handle) State() State { return h.pool.BlockState(0) }

// Compressed reports whether the swapped payload is a codec blob — false
// for raw swaps, including compressed swap-outs that fell back to raw, and
// whenever the tensor is not Swapped: an operation in flight owns the
// record until it commits.
func (h *Handle) Compressed() bool {
	return h.pool.swappedIs(func(s *stored) bool { return s.compressed })
}

// Bytes returns the uncompressed tensor size.
func (h *Handle) Bytes() int64 { return h.pool.Bytes() }

// Data returns the resident payload, or ErrNotResident.
func (h *Handle) Data() ([]float32, error) {
	p := h.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed || p.state[0] != Resident {
		return nil, fmt.Errorf("%w: %s", ErrNotResident, p.name)
	}
	return p.data, nil
}

// swappedIs reports whether block 0 is Swapped with a stored record that
// satisfies f, which runs under the pool's lock.
func (p *BlockPool) swappedIs(f func(*stored) bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.freed && p.state[0] == Swapped && f(&p.run[0].stored)
}

// New creates an executor with the given pools.
func New(cfg Config) (*Executor, error) {
	if cfg.DeviceCapacity <= 0 || cfg.HostCapacity <= 0 {
		return nil, fmt.Errorf("executor: capacities must be positive")
	}
	if cfg.MaxInFlight < 0 {
		return nil, fmt.Errorf("executor: MaxInFlight must be non-negative")
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.Launch.Grid == 0 {
		cfg.Launch = compress.Launch{Grid: 128, Block: 64}
	}
	if err := cfg.Launch.Validate(); err != nil {
		return nil, err
	}
	reg := cfg.Observer.Reg()
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	e := &Executor{
		cfg:    cfg,
		device: devmem.NewPool("device", cfg.DeviceCapacity),
		host:   devmem.NewPool("pinned-host", cfg.HostCapacity),
		arena:  newArena(reg, cfg.HostCapacity),
		pools:  map[int]*BlockPool{},
		reg:    reg,
		ins:    newInstruments(reg),
		obs:    cfg.Observer,
		epoch:  time.Now(),
	}
	e.gate.init(cfg.MaxInFlight, &e.ins)
	e.tier = cfg.Tier
	// The gauge reports what the directory holds from the first scrape on,
	// not only after this process's first demotion.
	e.ins.tierOccupancy.Set(float64(e.TierUsed()))
	if cfg.TierWatermark != 0 {
		if cfg.TierWatermark < 0 || cfg.TierWatermark >= 1 {
			return nil, fmt.Errorf("executor: TierWatermark %v outside (0,1)", cfg.TierWatermark)
		}
		if cfg.Tier == nil {
			return nil, fmt.Errorf("executor: TierWatermark needs a Tier to demote into")
		}
		e.startDemoter(cfg.TierWatermark)
	}
	if inj := cfg.Faults; inj != nil {
		e.device.SetAllocHook(func(int64) error { return inj.Fail(faultinject.SiteDeviceAlloc) })
		e.host.SetAllocHook(func(int64) error { return inj.Fail(faultinject.SiteHostAlloc) })
		e.hooks = &compress.Hooks{
			ChunkEncode: func(compress.Algorithm, int) error {
				inj.Sleep(faultinject.SiteEncode)
				return inj.Fail(faultinject.SiteEncode)
			},
			ChunkDecode: func(compress.Algorithm, int) error {
				inj.Sleep(faultinject.SiteDecode)
				return inj.Fail(faultinject.SiteDecode)
			},
		}
	}
	return e, nil
}

// Register places a tensor into device memory as a one-block pool, taking
// ownership of its data slice as the pool's region. It fails with
// devmem.ErrOutOfMemory when the device pool is full — the caller must swap
// something out first, exactly the pressure that motivates swapping — and
// with ErrClosed after Close; the device reservation is released whenever
// registration cannot complete.
func (e *Executor) Register(name string, t *tensor.Tensor) (*Handle, error) {
	p, err := e.registerPool(name, t.Len(), 1, t.Data)
	if err != nil {
		return nil, err
	}
	return &Handle{pool: p}, nil
}

// SwapOut moves the tensor to the host pool. With compress true, the data
// is encoded with alg (partitioned by the configured launch) and only the
// compressed bytes consume host capacity and count as moved; otherwise the
// tensor's own bytes move. The commit releases the tensor's device
// reservation, which is what lets the next Register succeed under pressure.
//
// A compressed swap-out never fails on the codec: if the encode errors, or
// the compressed blob cannot be allocated in the host pool, the tensor
// degrades to a raw swap-out (the cDMA-style raw path) and the fallback is
// counted in Stats. Only a raw-path allocation failure surfaces, leaving
// the tensor resident and intact. A handle already being swapped by
// another goroutine returns ErrBusy.
func (e *Executor) SwapOut(h *Handle, doCompress bool, alg compress.Algorithm) error {
	return h.pool.swapOut(context.Background(), "swap-out", whole, 0, doCompress, alg)
}

// Launch returns the launch geometry the executor encodes at.
func (e *Executor) Launch() compress.Launch { return e.cfg.Launch }

// arenaEncode runs the parallel encode at the executor's launch into an
// arena buffer sized by the codec's worst-case bound, so the encode itself
// allocates nothing. On error the buffer goes straight back to the arena;
// on success the caller owns the returned blob and recycles it via
// arena.put.
func (e *Executor) arenaEncode(alg compress.Algorithm, data []float32) ([]byte, error) {
	launch := e.cfg.Launch
	bound, err := compress.MaxParallelEncodedLen(alg, len(data), launch)
	if err != nil {
		return nil, err
	}
	buf := e.arena.get(bound)
	blob, err := compress.AppendParallelEncodeWith(buf, alg, data, launch, e.hooks)
	if err != nil {
		e.arena.put(buf)
		return nil, err
	}
	return blob, nil
}

// SwapIn restores the tensor to device memory, decompressing if needed and
// (when configured) verifying the payload against the digest its swap-out
// took.
//
// The host blob is retained until the restore commits: if the first decode
// or verification attempt fails recoverably (data-level corruption,
// truncation, or an injected fault — not structural misuse), SwapIn retries
// once from the retained blob before surfacing the failure. A surfaced
// decode failure carries codec and chunk context (compress.ChunkError);
// wrong data is never returned silently. Every failure is atomic: the
// handle stays cleanly Swapped with its retained blob intact, so the call
// is safe to retry. The device reservation is re-taken before the decode,
// into the tensor's own registered slice, so a warm round trip allocates no
// new one; a full device pool fails the call with devmem.ErrOutOfMemory. A
// handle already being swapped by another goroutine returns ErrBusy.
func (e *Executor) SwapIn(h *Handle) error {
	return h.pool.swapIn(context.Background(), "swap-in", whole, 0)
}

// retryable reports whether a failed first restore attempt is worth a
// second decode from the retained host blob: always when the transfer copy
// was perturbed in flight, and for data-level (compress.Recoverable),
// injected, or checksum failures generally — never for structural misuse a
// retry cannot fix.
func retryable(err error, transient bool) bool {
	if transient {
		return true
	}
	if errors.Is(err, faultinject.ErrInjected) || errors.Is(err, ErrVerification) {
		return true
	}
	return compress.Recoverable(err)
}

// Free releases the tensor from whichever pool holds it. A handle with a
// swap in flight returns ErrBusy — wait for the operation, then Free.
func (e *Executor) Free(h *Handle) error { return h.pool.Free() }

// Stats returns a snapshot of executor activity, read from the backing
// metrics registry. Each field is read atomically; a snapshot taken while
// swaps are in flight is internally consistent per counter, like the old
// struct under its mutex.
func (e *Executor) Stats() Stats {
	return Stats{
		SwapOuts:          int(e.ins.swapOuts.Value()),
		SwapIns:           int(e.ins.swapIns.Value()),
		RawBytes:          int64(e.ins.rawBytes.Value()),
		MovedBytes:        int64(e.ins.movedBytes.Value()),
		CompressedTensors: int(e.ins.compressed.Value()),
		Verified:          int(e.ins.verified.Value()),
		EncodeFallbacks:   int(e.ins.encodeFallbacks.Value()),
		AllocFallbacks:    int(e.ins.allocFallbacks.Value()),
		DecodeRetries:     int(e.ins.decodeRetries.Value()),
		DecodeRecoveries:  int(e.ins.decodeRecoveries.Value()),
		BusyRejections:    int(e.ins.busyRejections.Value()),
		TierDemotions:     int(e.ins.tierDemotions.Value()),
		TierPromotions:    int(e.ins.tierPromotions.Value()),
	}
}

// Registry exposes the metrics registry backing Stats: the configured
// Observer's registry when one was supplied, otherwise the executor's
// private one. Sinks can snapshot it at any time.
func (e *Executor) Registry() *metrics.Registry { return e.reg }

// DeviceStats and HostStats expose pool accounting.
func (e *Executor) DeviceStats() devmem.Stats { return e.device.Stats() }

// HostStats exposes the pinned pool accounting.
func (e *Executor) HostStats() devmem.Stats { return e.host.Stats() }

// FaultStats exposes the injector's fired-fault counts (zero when no
// injector is configured).
func (e *Executor) FaultStats() faultinject.Stats { return e.cfg.Faults.Stats() }

// Live returns the number of non-freed handles and block pools.
func (e *Executor) Live() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.pools)
}
