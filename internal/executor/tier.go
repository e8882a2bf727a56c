package executor

// The executor's tier manager: demotion of cold swapped payloads from the
// pinned-host pool into the disk spill tier (Config.Tier), and transparent
// promotion back on swap-in. Demotion candidates — stored runs, a swapped
// tensor's one run among them — are ranked by costmodel.DemotionScore
// (compression ratio × re-access prediction): well-compressed blobs are
// the cheapest to re-fetch and cold ones the least likely to be needed,
// so they go first. Tier I/O runs in the goroutine that asked for it — a
// swap body, a Demote caller, or the background demoter that
// Config.TierWatermark starts — and is bounded by the store itself:
// tier.Store holds one lock across each Put, GetInto and Delete, so disk
// operations run one at a time whoever issues them, and none consumes a slot
// of the async window.
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
	"cmp"
	"errors"
	"slices"
	"sync"

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

// ranking holds the buffers one sweep snapshots the pools and ranks its
// victims in. The background demoter owns one for its whole life, so a
// wake-up allocates nothing to rank; the inline path, which any swap body
// may run concurrently, takes a fresh one per call.
type ranking struct {
	pools []*BlockPool
	vs    []tierVictim
}

// makeRoom drops clean copies, then — with a tier — demotes ranked victims,
// cheapest expected re-fetch first, until done reports true, returning how
// many it demoted (a victim skipped as aged out or already tiered is not
// counted). Giving a clean copy up costs no tier write, so it goes before
// any demotion. Races are benign: each victim's demote re-claims its blocks,
// and a candidate that moved on is skipped. Individual demote failures (a
// victim turned busy) skip to the next candidate; a full tier fails every
// remaining candidate the same way, so it ends the sweep.
func (e *Executor) makeRoom(rk *ranking, done func() bool) int {
	defer rk.reset()
	rk.snapshot(e)
	for _, p := range rk.pools {
		if done() {
			return 0
		}
		p.mu.Lock()
		p.dropClean()
		p.mu.Unlock()
	}
	if e.tier == nil || done() {
		return 0
	}
	rk.rank(e.sinceEpoch())
	moved := 0
	for _, v := range rk.vs {
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

// snapshot fills rk.pools with the registered pools.
func (rk *ranking) snapshot(e *Executor) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range e.pools {
		rk.pools = append(rk.pools, p)
	}
}

// rank fills rk.vs with the demotion candidates of the snapshot's pools,
// ranked at time now, cheapest expected re-fetch first.
func (rk *ranking) rank(now float64) {
	for _, p := range rk.pools {
		rk.vs = p.victims(rk.vs, now)
	}
	slices.SortFunc(rk.vs, func(a, b tierVictim) int { return cmp.Compare(a.score, b.score) })
}

// reset empties the buffers, keeping their capacity but no pool: a freed
// pool must not stay reachable from a sweep that is over.
func (rk *ranking) reset() {
	clear(rk.pools)
	clear(rk.vs)
	rk.pools, rk.vs = rk.pools[:0], rk.vs[:0]
}

// freeHostSpace makes room (makeRoom) until the host pool has room for
// `need` more bytes, reporting whether it does.
func (e *Executor) freeHostSpace(need int64) bool {
	headroom := func() bool { return e.host.Available() >= need }
	e.makeRoom(new(ranking), headroom)
	return headroom()
}

// demoter is the background host->tier demoter Config.TierWatermark starts.
// Only an allocation raises host occupancy, so it runs on events, not on a
// timer: each committed store, each stage and each restore that keeps a
// clean copy (wakeDemoter) that leaves occupancy above target puts a token
// in wake, whose one slot coalesces the wake-ups that arrive while a sweep
// is pending or running.
type demoter struct {
	target     int64 // host bytes, cached ones included, a sweep demotes down to
	wake       chan struct{}
	stop, done chan struct{}
	once       sync.Once
	rank       ranking // the loop's own; no one else touches it
}

// startDemoter starts the background demoter for a watermark fraction of
// the host pool.
func (e *Executor) startDemoter(fraction float64) {
	d := &demoter{
		target: int64(fraction * float64(e.host.Capacity())),
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	e.demoter = d
	go e.demoterLoop(d)
}

// demoterLoop sweeps once per token until stopDemoter closes the stop
// channel (Close does, before it drains the async window, so no background
// demotion outlives Close). A sweep pushes host occupancy, cached bytes
// included, back under the watermark, so foreground swap-outs find headroom
// already freed instead of paying freeHostSpace's demote-retry inline.
func (e *Executor) demoterLoop(d *demoter) {
	defer close(d.done)
	done := func() bool { return !e.aboveMark(d) }
	for {
		select {
		case <-d.stop:
			return
		case <-d.wake:
			e.ins.watermarkDemotions.Add(float64(e.makeRoom(&d.rank, done)))
			e.ins.demoterPending.Add(-1)
		}
	}
}

// wakeDemoter wakes the background demoter, if there is one, when host
// occupancy is above its watermark. Without a demoter it is one nil check.
// The pending gauge counts the token before it is offered, so it never
// reads 0 while a sweep is owed.
func (e *Executor) wakeDemoter() {
	d := e.demoter
	if d == nil || !e.aboveMark(d) {
		return
	}
	e.ins.demoterPending.Add(1)
	select {
	case d.wake <- struct{}{}:
	default: // a sweep is already owed; it will see these bytes too
		e.ins.demoterPending.Add(-1)
	}
}

// aboveMark reports whether host occupancy, cached bytes included, is above
// d's watermark.
func (e *Executor) aboveMark(d *demoter) bool {
	return e.host.Capacity()-e.host.Available() > d.target
}

// stopDemoter shuts the background demoter down, idempotently, and waits
// for its last sweep to finish.
func (e *Executor) stopDemoter() {
	if d := e.demoter; d != nil {
		d.once.Do(func() {
			close(d.stop)
			<-d.done
		})
	}
}
