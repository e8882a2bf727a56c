package executor

// The executor's tier manager: demotion of cold swapped payloads from the
// pinned-host pool into the disk spill tier (Config.Tier), and transparent
// promotion back on swap-in. Demotion candidates — stored runs, a swapped
// tensor's one run among them — are ranked by costmodel.DemotionScore
// (compression ratio × re-access prediction): well-compressed blobs are
// the cheapest to re-fetch and cold ones the least likely to be needed,
// so they go first. Tier I/O runs in the goroutine that asked for it and is
// bounded by the store itself: tier.Store holds one lock across each Put,
// GetInto and Delete, so disk operations run one at a time whoever issues
// them, and none consumes a slot of the async window.
//
// Ordering rules (the crash-consistency contract, DESIGN.md §15):
//   - demote: tier.Put commits the blob on disk BEFORE the host block is
//     freed — an interrupted demotion leaves the payload host-resident
//     and the tier without a committed entry (the extent the write used
//     goes back to the store's free list), never in neither place;
//   - promote: the tier entry is deleted only AFTER the restore commits —
//     a failed promotion leaves the run Swapped and tiered with the
//     committed entry intact, retry-safe.

import (
	"errors"
	"sort"
	"time"

	"cswap/internal/costmodel"
	"cswap/internal/tier"
)

// ErrNoTier reports a tier operation on an executor configured without a
// spill tier.
var ErrNoTier = errors.New("executor: no spill tier configured")

// tierMeta is the metadata section written into every demoted payload's
// tier file; it mirrors the record fields a restore needs, so tier contents
// stay self-describing on disk.
type tierMeta struct {
	RawBytes   int64  `json:"raw_bytes"`
	BlobBytes  int64  `json:"blob_bytes"`
	Compressed bool   `json:"compressed"`
	Alg        string `json:"alg"`
	Elems      int    `json:"elems"`
	Checksum   uint64 `json:"checksum"`
}

// TierUsed returns the attached tier's committed bytes (0 without a tier).
func (e *Executor) TierUsed() int64 {
	if e.tier == nil {
		return 0
	}
	return e.tier.Used()
}

// Demote moves a swapped handle's payload from the pinned-host pool into
// the disk tier, freeing its host bytes; a later SwapIn promotes it back
// transparently. The handle must be Swapped (ErrBusy while a swap is in
// flight, the usual taxonomy otherwise); demoting an already-tiered
// handle is a no-op. Fails with ErrNoTier when no tier is configured and
// tier.ErrFull when the tier cannot hold the blob — in both cases the
// payload stays host-resident and intact. Like every demotion it runs in
// the caller's goroutine: inline demotion (freeHostSpace) happens inside
// swap bodies that are themselves pool work, so it must never go through
// compress.Go.
func (e *Executor) Demote(h *Handle) error {
	_, err := h.pool.demoteRun(whole[0])
	return err
}

// promoteRead reads one committed tier blob into an arena buffer, counting
// the tier hit. The buffer is the caller's to recycle; the tier entry itself
// is deleted only after the restore (or staging) that asked for it has its
// own copy safe.
func (e *Executor) promoteRead(key string) ([]byte, error) {
	if e.tier == nil {
		return nil, ErrNoTier
	}
	blob, err := e.tier.GetInto(key, nil, e.arena.get)
	if err != nil {
		return nil, err
	}
	e.ins.tierHits.Inc()
	return blob, nil
}

// demotionScore ranks a host-resident payload for eviction at time now and
// reports the host bytes its demotion would free. The caller holds the
// owner's lock (or claim).
func (s *stored) demotionScore(now float64) (score float64, bytes int64) {
	bytes = int64(len(s.blob))
	return costmodel.DemotionScore(float64(bytes)/float64(s.rawBytes()), now-s.swappedAt, 0), bytes
}

// tierVictim is one demotion candidate: a stored run of a pool, its
// eviction score and the bytes its demotion would free from the host pool.
type tierVictim struct {
	p     *BlockPool
	r     BlockRun
	score float64
	bytes int64
}

// tierVictims snapshots and ranks every demotable payload — the stored,
// host-resident runs of every pool — cheapest expected re-fetch first.
// Races are benign: each victim's demote re-claims its blocks, and a
// candidate that moved on is skipped.
func (e *Executor) tierVictims() []tierVictim {
	now := e.sinceEpoch()
	e.mu.Lock()
	pools := make([]*BlockPool, 0, len(e.pools))
	for _, p := range e.pools {
		pools = append(pools, p)
	}
	e.mu.Unlock()

	var vs []tierVictim
	for _, p := range pools {
		vs = p.victims(vs, now)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i].score < vs[j].score })
	return vs
}

// demoteUntil demotes ranked victims, cheapest expected re-fetch first,
// until done reports true, returning how many it moved (a victim skipped as
// aged out or already tiered is not counted). Individual demote
// failures (a victim turned busy) skip to the next candidate; a full tier
// fails every remaining candidate the same way, so it ends the sweep.
func (e *Executor) demoteUntil(done func() bool) int {
	moved := 0
	for _, v := range e.tierVictims() {
		if done() {
			break
		}
		n, err := v.p.demoteRun(v.r)
		if errors.Is(err, tier.ErrFull) {
			break
		}
		if n > 0 {
			moved++
		}
	}
	return moved
}

// freeHostSpace demotes victims until the host pool has room for `need`
// more bytes, reporting whether it does — false without a tier, or
// without enough demotable bytes.
func (e *Executor) freeHostSpace(need int64) bool {
	if e.tier == nil {
		return false
	}
	headroom := func() bool {
		return e.host.Capacity()-e.host.Used() >= need
	}
	if !headroom() {
		e.demoteUntil(headroom)
	}
	return headroom()
}

// watermarkLoop is the background demoter started by Config.TierWatermark:
// each tick it pushes host-pool occupancy back under the watermark by
// demoting ranked victims, so foreground swap-outs find headroom already
// freed instead of paying freeHostSpace's demote-retry inline. It exits
// when stopWatermark closes the stop channel (Close does, before it drains
// the async window, so no background demotion outlives Close).
func (e *Executor) watermarkLoop(interval time.Duration) {
	defer close(e.watermarkDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-e.watermarkStop:
			return
		case <-tick.C:
			e.demoteToWatermark()
		}
	}
}

// demoteToWatermark demotes victims until host occupancy is at or under
// TierWatermark×capacity.
func (e *Executor) demoteToWatermark() {
	target := int64(e.cfg.TierWatermark * float64(e.host.Capacity()))
	moved := e.demoteUntil(func() bool { return e.host.Used() <= target })
	e.ins.watermarkDemotions.Add(float64(moved))
}

// stopWatermark shuts the background demoter down, idempotently, and
// waits for its final sweep to finish.
func (e *Executor) stopWatermark() {
	e.watermarkOnce.Do(func() {
		if e.watermarkStop != nil {
			close(e.watermarkStop)
			<-e.watermarkDone
		}
	})
}
