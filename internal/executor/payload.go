package executor

// The stored-payload path: one record for a swapped-out payload — a pool
// run's, a tensor's one run included — and the four bodies that act on it:
// store, restore, demote, stage. They are written once, the way cDMA puts
// one compressing engine with one raw path beside it under every transfer,
// whatever its granularity. The claim, its commit and its rollback belong
// to the pool (blockpool.go), which passes the commit in as a callback.

import (
	"errors"
	"fmt"
	"time"

	"cswap/internal/compress"
	"cswap/internal/devmem"
	"cswap/internal/faultinject"
	"cswap/internal/metrics"
	"cswap/internal/tensor"
)

// stored is one swapped-out payload. Its fields are owned exclusively by
// whichever operation holds the run's blocks in a transitional state
// (SwappingOut/SwappingIn), so they need no lock of their own; readers
// outside a claim read them under the pool's lock while the blocks are
// Swapped.
type stored struct {
	blob       []byte // codec blob or the payload's own bytes, in an arena buffer; nil while tiered
	hostBlock  *devmem.Block
	alg        compress.Algorithm
	compressed bool
	// elems is the uncompressed payload's element count; the pool fills it
	// at swap-out, before store. checksum is its digest as store found it,
	// taken only when Config.Verify is on.
	elems    int
	checksum uint64
	// tiered marks a payload that lives in the disk tier instead of the
	// host pool (blob and hostBlock are nil), under tierKey — set by the
	// pool at each demotion, unique per live payload so re-registrations
	// of one name can never collide on disk. swappedAt is
	// the executor-epoch time of the last store, feeding the re-access
	// prediction that ranks demotion victims.
	tiered    bool
	swappedAt float64
	tierKey   string
	// charge is the quota ledger the payload's raw bytes count against,
	// the pool's at swap-out; the zero Charge (a pool or tensor no one
	// charged, the library's) charges nothing.
	charge Charge
}

// rawBytes is the uncompressed payload size.
func (s *stored) rawBytes() int64 { return int64(s.elems) * tensor.BytesPerElement }

// encodedAs reports whether s holds what a store of the same bytes would
// store for the request: a codec blob of alg (the launch is the executor's,
// fixed), or for a raw request a raw copy. A compressed request that fell
// back to raw does not match, so the next store tries the codec again.
func (s *stored) encodedAs(doCompress bool, alg compress.Algorithm) bool {
	return s.compressed == doCompress && (!doCompress || s.alg == alg)
}

// Charge is the quota ledger a pool's bytes — a tensor's, a one-block pool's
// — count against: Held while they are on the device or in the host pool,
// Tiered while a stored run holds them in the disk tier. The executor moves
// each run's uncompressed size between the two at the only places a payload
// enters or leaves the tier (demote and tierDelete), so the gauges say where
// the bytes are at every instant. Whoever owns the gauges adds a pool's bytes
// to Held before registering it and takes them back out of Held after
// freeing it.
type Charge struct{ Held, Tiered *metrics.Gauge }

// toTier moves n bytes of charge from Held to Tiered (negative n: back).
// Nil gauges charge nothing.
func (c Charge) toTier(n int64) {
	c.Held.Add(-float64(n))
	c.Tiered.Add(float64(n))
}

// SetCharge attaches the quota ledger the pool's stored runs count against.
// Call it before the pool's first swap-out, while no run is in the tier.
func (p *BlockPool) SetCharge(c Charge) {
	p.mu.Lock()
	p.charge = c
	p.mu.Unlock()
}

// store is the swap-out body: encode src (or copy its bytes raw), park the
// bytes in the host pool and fill s, then run the owner's commit. The
// caller holds the claim and rolls it back when store fails — src is then
// untouched and nothing is held. digested says s.checksum already holds
// src's verify digest (a sealed tensor's), so store takes none.
//
// A compressed store never fails on the codec: an encode error, or a host
// allocation failure for the compressed blob, degrades to the raw path.
// Only a raw-path allocation failure (after the spill tier, if any, was
// asked to make room) or a commit error surfaces. Counters move only once
// commit has succeeded, so they describe committed outcomes.
func (e *Executor) store(s *stored, name string, src []float32, digested, doCompress bool, alg compress.Algorithm, commit func() error) error {
	timed := e.obs != nil // deep instrumentation only when observed
	var t0 float64
	if timed {
		t0 = e.sinceEpoch()
	}
	if e.cfg.Verify && !digested {
		// Taken here, of the bytes about to be stored, not at registration:
		// the owner of an unsealed payload may have rewritten it in place
		// since.
		s.checksum = compress.Checksum(src)
	}
	compressed := doCompress
	encodeFellBack, allocFellBack := false, false
	var blob []byte
	var encDur time.Duration
	if doCompress {
		var encStart time.Time
		if timed {
			encStart = time.Now()
		}
		// The encode output lands in an arena buffer sized by the codec's
		// worst-case bound, so the whole compressed path allocates nothing
		// once the arena is warm.
		b, err := e.arenaEncode(alg, src)
		if timed {
			encDur = time.Since(encStart)
		}
		if err != nil {
			// The raw path beside the compressing one: a codec failure
			// must not lose the payload, it just forfeits the bandwidth
			// saving for this transfer.
			compressed = false
			encodeFellBack = true
		} else {
			blob = b
		}
	}
	if !compressed {
		blob = e.rawCopy(src)
	}
	// The bytes that land in the host pool are the transferred copy; a
	// transfer-out fault corrupts the stored blob persistently. Ownership
	// stays explicit: the pristine encode output remains owned by this
	// operation until the swap resolves (recycling it at mutation time
	// would let a concurrent encode reuse a buffer an in-place mutation
	// could still alias), and the mutated copy — which MutateBlob
	// allocates outside the arena — is discarded under the same
	// transfer-copy convention as restore's transient copies.
	if mutated, ok := e.cfg.Faults.MutateBlob(faultinject.SiteTransferOut, blob); ok {
		defer e.arena.put(blob) // the pristine original, once the swap has resolved
		blob = mutated
	}
	hostBlock, err := e.hostAlloc(int64(len(blob)))
	if err != nil && compressed {
		// Host-pool pressure on the compressed path: retry raw before
		// surfacing (core.HostCapacityFor budgets the pool for the all-raw
		// worst case, so the raw reservation is the accounted-for size).
		raw := e.rawCopy(src)
		rawBlock, rerr := e.hostAlloc(int64(len(raw)))
		if rerr != nil {
			e.arena.put(raw)
		} else {
			e.arena.put(blob) // the compressed blob never ships
			compressed = false
			allocFellBack = true
			blob, hostBlock, err = raw, rawBlock, nil
		}
	}
	if err != nil {
		e.arena.put(blob) // nothing ships
		return fmt.Errorf("executor: host pool: %w", err)
	}
	s.blob, s.hostBlock = blob, hostBlock
	s.alg, s.compressed = alg, compressed
	s.swappedAt = e.sinceEpoch()
	// commit publishes the owner as Swapped, after which a demotion or the
	// next swap-in may claim it and rewrite s: everything the accounting
	// below needs is taken from s here, while the claim is still held.
	cells, rawBytes, moved := e.ins.forPayload(s), s.rawBytes(), len(blob)
	if err := commit(); err != nil {
		_ = e.drop(s)
		s.alg, s.compressed = 0, false // a rolled-back owner reports no stale encoding
		return err
	}
	e.wakeDemoter()

	e.ins.swapOuts.Inc()
	e.ins.rawBytes.Add(float64(rawBytes))
	e.ins.movedBytes.Add(float64(moved))
	if compressed {
		e.ins.compressed.Inc()
	}
	if encodeFellBack {
		e.ins.encodeFallbacks.Inc()
	}
	if allocFellBack {
		e.ins.allocFallbacks.Inc()
	}
	if timed {
		e.observeSwapOut(name, cells, moved, encDur, t0, e.sinceEpoch(), encodeFellBack, allocFellBack)
	}
	return nil
}

// storeClean is store for a payload whose clean copy stands in for it: s
// still holds the blob a store of the same bytes with the same codec would
// write, and its host bytes, so the swap-out is only the
// commit. It counts as that store in the swap-out, raw and moved series,
// but not in the per-codec ones or the Observer's spans, since no encode
// ran and no bytes moved. A failed commit leaves the clean copy as it was.
func (e *Executor) storeClean(s *stored, commit func() error) error {
	s.hostBlock.Cache(false)
	s.swappedAt = e.sinceEpoch()
	rawBytes, moved, compressed := s.rawBytes(), len(s.blob), s.compressed
	if err := commit(); err != nil {
		s.hostBlock.Cache(true)
		return err
	}
	e.wakeDemoter()
	e.ins.swapOuts.Inc()
	e.ins.rawBytes.Add(float64(rawBytes))
	e.ins.movedBytes.Add(float64(moved))
	e.ins.cleanSwapOuts.Inc()
	if compressed {
		e.ins.compressed.Inc()
	}
	return nil
}

// rawCopy is the raw path's whole encoding: the payload's byte view copied
// into an arena buffer, host byte order — a raw blob never leaves the process
// that wrote it, so it needs no portable form.
func (e *Executor) rawCopy(src []float32) []byte {
	view := compress.FloatBytes(src)
	return append(e.arena.get(len(view)), view...)
}

// hostAlloc reserves n host-pool bytes; when the pool is out of room it
// makes some (freeHostSpace) and retries once.
func (e *Executor) hostAlloc(n int64) (*devmem.Block, error) {
	b, err := e.host.Alloc(n)
	if errors.Is(err, devmem.ErrOutOfMemory) && e.freeHostSpace(n) {
		b, err = e.host.Alloc(n)
	}
	return b, err
}

// restore is the swap-in body: decode s into dst — promoting it from the
// disk tier first if it lives there — verify it, release the stored copy
// and run the owner's commit. With keep, which the caller sets only for a
// host-resident s, the stored copy stays as the owner's clean copy, its
// host bytes cached, instead of being released. The caller holds the claim
// and rolls it back when restore fails.
//
// The stored blob (for a tiered payload, the in-memory copy just read) is
// retained until the restore has passed: a first attempt that fails
// recoverably retries exactly once from it. Every failure is atomic — s is
// left as it was, still tiered with its committed tier entry if it was —
// so the call is safe to retry.
func (e *Executor) restore(s *stored, name string, dst []float32, keep bool, commit func()) error {
	timed := e.obs != nil
	var t0 float64
	var decDur time.Duration
	if timed {
		t0 = e.sinceEpoch()
	}
	// commit publishes the owner as Resident, after which the next swap-out
	// may claim it and rewrite s: the series the decode timing lands in is
	// resolved here, while the claim is still held.
	cells := e.ins.forPayload(s)
	blob := s.blob
	if s.tiered {
		b, err := e.promoteRead(s.tierKey)
		if err != nil {
			return err
		}
		blob = b
	}
	decode := func(blob []byte) error {
		if s.compressed { // chunk bounds come from the blob, not the launch
			return compress.ParallelDecodeIntoWith(dst, blob, e.hooks)
		}
		// The length check is what refuses a short or long raw blob; the copy
		// overwrites every element of a dirty recycled destination.
		if len(blob) != len(dst)*4 {
			return fmt.Errorf("%w: raw blob is %d bytes, want %d",
				compress.ErrTruncated, len(blob), len(dst)*4)
		}
		copy(compress.FloatBytes(dst), blob)
		return nil
	}
	check := func() error {
		if e.cfg.Verify && compress.Checksum(dst) != s.checksum {
			return ErrVerification
		}
		return nil
	}

	// The first attempt decodes the transferred copy, which a transfer-in
	// fault may have perturbed in flight.
	transfer, transient := e.cfg.Faults.MutateBlob(faultinject.SiteTransferIn, blob)
	var decStart time.Time
	if timed {
		decStart = time.Now()
	}
	derr := decode(transfer)
	if timed {
		decDur = time.Since(decStart)
	}
	if derr == nil {
		derr = check()
	}
	retried := derr != nil && retryable(derr, transient)
	if retried {
		// Retry from the retained blob, overwriting whatever the failed
		// attempt left in dst.
		e.ins.decodeRetries.Inc()
		if derr = decode(blob); derr == nil {
			derr = check()
		}
	}
	if transient {
		// The in-flight copy is dead after the decode attempts, pass or
		// fail; only the stored blob survives a failed restore.
		e.arena.put(transfer)
	}
	if s.tiered {
		// Nor does the copy promoteRead made: the tier still holds the blob.
		e.arena.put(blob)
	}
	if derr != nil {
		if timed {
			e.observeSwapIn(name, cells, decDur, t0, e.sinceEpoch(), retried, false)
		}
		return derr
	}
	// The blob leaves its store only after the restore has passed —
	// recycling (or deleting from the tier) earlier would destroy the
	// bytes a failed swap-in still needs for its retry.
	promoted := s.tiered
	if keep {
		s.hostBlock.Cache(true)
	} else if err := e.drop(s); err != nil {
		return err
	}
	if promoted {
		e.ins.tierPromotions.Inc()
	}
	commit()
	if keep {
		e.wakeDemoter()
	}

	e.ins.swapIns.Inc()
	if e.cfg.Verify {
		e.ins.verified.Inc()
	}
	if retried {
		e.ins.decodeRecoveries.Inc()
	}
	if timed {
		e.observeSwapIn(name, cells, decDur, t0, e.sinceEpoch(), retried, retried)
	}
	return nil
}

// demote is the demotion body: move s's host-resident blob into the disk
// tier. The caller holds the claim, has checked s is not already tiered, and
// returns the owner to Swapped whatever the outcome — s is tiered on
// success, unchanged on failure.
func (e *Executor) demote(s *stored) error {
	meta := tierMeta{
		RawBytes:   s.rawBytes(),
		BlobBytes:  int64(len(s.blob)),
		Compressed: s.compressed,
		Alg:        s.alg.String(),
		Elems:      s.elems,
		Checksum:   s.checksum,
	}
	// Ordering: the blob must be committed on disk before the host copy
	// is released — an interruption here leaves the payload fully
	// host-resident and the tier cleanly without it.
	if err := e.tier.Put(s.tierKey, s.blob, meta); err != nil {
		return err
	}
	if err := s.hostBlock.Free(); err != nil {
		_, _ = e.tier.Delete(s.tierKey)
		return err
	}
	e.arena.put(s.blob)
	s.blob, s.hostBlock = nil, nil
	s.tiered = true
	s.charge.toTier(s.rawBytes())
	e.ins.tierDemotions.Inc()
	e.ins.tierOccupancy.Set(float64(e.tier.Used()))
	return nil
}

// stage moves a tiered payload from the disk store back into the host pool
// ahead of its decode — prefetch read-ahead, so a later (possibly
// critical) demand swap-in pays a host-memory read instead of a disk
// fault. Best-effort: on any failure the payload simply stays tiered and
// the restore promotes from disk as before. In particular, staging never
// demotes other payloads to make room — the speculative copy is not worth
// evicting warmer bytes for. The caller holds the SwappingIn claim.
func (e *Executor) stage(s *stored) {
	if e.tier == nil || !s.tiered {
		return
	}
	blob, err := e.promoteRead(s.tierKey)
	if err != nil {
		return
	}
	hostBlock, err := e.host.Alloc(int64(len(blob)))
	if err != nil {
		e.arena.put(blob)
		return
	}
	// Same ordering as a committed restore: the host copy is installed
	// before the tier entry is deleted, so an interruption never strands
	// the payload in neither store.
	s.blob, s.hostBlock = blob, hostBlock
	e.tierDelete(s)
	e.ins.tierPromotions.Inc()
	e.ins.tierReadahead.Inc()
	e.wakeDemoter()
}

// drop releases a stored payload from whichever tier holds it, once nothing
// will read it again: its restore has passed, its owner is freed, the
// store that produced it failed to commit, or it was a clean copy given
// up.
func (e *Executor) drop(s *stored) error {
	if s.tiered {
		e.tierDelete(s)
		return nil
	}
	if err := s.hostBlock.Free(); err != nil {
		return err
	}
	e.arena.put(s.blob)
	s.blob, s.hostBlock = nil, nil
	return nil
}

// tierDelete removes s's committed tier entry, clears its tiered mark and
// moves its charge back to Held.
func (e *Executor) tierDelete(s *stored) {
	_, _ = e.tier.Delete(s.tierKey)
	s.tiered = false
	s.charge.toTier(-s.rawBytes())
	e.ins.tierOccupancy.Set(float64(e.tier.Used()))
}
