package executor

// Block pools: the executor's one kind of swappable object. A BlockPool is
// ONE device reservation carved into numBlocks fixed-size blocks of
// blockElems float32s — the paged layout inference engines give their KV
// caches — and its operations move *lists* of block IDs. A tensor is the
// degenerate case: Register makes a pool of one block of the tensor's
// length, and Handle (executor.go) drives its run {0,1} through the same
// claim, store, restore, demote and free bodies below.
//
// The batch ops sort and dedup the requested IDs and merge contiguous
// runs (swiftLLM's block_swapping names exactly this merge as its own
// future work): source and destination of a run are both sequential
// memory, so one codec/pool operation per RUN replaces one per block —
// the cDMA amortization that makes compressed swapping pay off at small
// granularity. Every call stores or restores its runs one after another in
// one loop (serial): a synchronous call — SwapOutBlocks, SwapInBlocks, and
// Swap, a swap service's six operations under the request's context — runs
// it in the caller's goroutine and takes no slot of the async window; a *Ctx
// call runs it as one job on the worker pool under one slot (dispatch,
// async.go), so calls overlap one another while a call's runs do not.
//
// State machine: every block carries a State (Resident / Swapped /
// SwappingOut / SwappingIn), guarded by one per-pool mutex. An operation
// claims ALL its target blocks atomically before any work starts — it
// either starts whole or fails whole with the first offending block's
// error — and each run commits or rolls back only its own blocks. The one
// exception is a block a demotion holds: a demotion is one tier write that
// never waits on the pool's owner, so a swap-in or Free that meets one waits
// for it (settled) instead of failing with ErrBusy. The
// stored run is the restore granularity: a swap-in that requests any block
// of a stored run restores the whole run (the blocks were encoded as one
// blob; decoding it is one operation either way).
//
// Device reservation: a pool holds it exactly while some block's contents
// are on the device. The commit (or rollback) that leaves every block
// Swapped releases it — which is what lets the next Register succeed after
// a tensor's swap-out — and the first restore of a swap-in re-takes it
// before it decodes. A paged KV region whose blocks are never all out keeps
// its reservation for its lifetime; host-pool bytes are charged per stored
// run while it is swapped.

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"cswap/internal/compress"
	"cswap/internal/devmem"
)

// CoalesceBlockIDs sorts ids, drops duplicates, and merges contiguous
// runs — the pure coalescing rule both the executor and the simulator
// score by. A nil/empty input returns nil. The run table is sized to the
// runs it holds.
func CoalesceBlockIDs(ids []int) []BlockRun {
	if len(ids) == 0 {
		return nil
	}
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	n := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] > sorted[i-1]+1 {
			n++
		}
	}
	runs := make([]BlockRun, 0, n)
	runs = append(runs, BlockRun{Start: sorted[0], Count: 1})
	for _, id := range sorted[1:] {
		last := &runs[len(runs)-1]
		switch id {
		case last.Start + last.Count - 1: // duplicate
		case last.Start + last.Count:
			last.Count++
		default:
			runs = append(runs, BlockRun{Start: id, Count: 1})
		}
	}
	return runs
}

// BlockRun is one contiguous run of block IDs: Count blocks starting at
// Start. It is the unit of codec and pool work in a batch.
type BlockRun struct {
	Start, Count int
}

// BlockPool is one named paged block region: a single device reservation
// divided into fixed-size blocks, addressed by ID.
type BlockPool struct {
	e          *Executor
	id         int
	name       string
	blockElems int
	numBlocks  int
	data       []float32 // the whole region; block i is [i*blockElems, (i+1)*blockElems)

	// mu guards the per-block state vector and run map, the swapped count,
	// the device block and the charge. Run payload fields are owned
	// exclusively by the operation holding the blocks' transitional state.
	mu    sync.Mutex
	state []State
	run   []*poolRun // per block: the stored run holding it while Swapped
	// swapped counts the blocks whose contents are off the device: Swapped,
	// or claimed by a demotion. devBlock, the reservation, is nil once it
	// reaches numBlocks, until the next restore re-takes it.
	swapped  int
	devBlock *devmem.Block
	charge   Charge // the ledger every stored run's bytes count against
	freed    bool
	// one is a one-block pool's run record, reused by every swap-out: a
	// tensor's round trip allocates no record.
	one poolRun
	// sealed marks a pool whose memory only a verified restore writes
	// (Seal): WriteBlocks refuses it. A sealed one-block pool's first store
	// under Config.Verify keeps its digest here, and every later store
	// reuses it instead of reading the payload again — every resident copy
	// since was written by a restore that checked against that digest. For
	// the same reason its verified restores keep the stored blob as a clean
	// copy (cleanCopy), which the next swap-out commits instead of encoding
	// again. The block's claim serializes store and restore, so the claim
	// holder owns digest and digested.
	sealed   bool
	digested bool
	digest   uint64
	// settled is signalled, on mu, whenever claimed blocks return to a
	// stable state (settle) — what a claim waiting out a demotion waits on.
	settled sync.Cond
}

// poolRun is one stored (swapped-out) run: the shared payload record for
// count blocks starting at start.
type poolRun struct {
	start, count int
	// pending is the ticket of the asynchronous swap-in restoring the run,
	// which a prefetch joins; nil while no swap-in, or a synchronous one,
	// holds it.
	pending *Ticket
	// demoting marks a run whose blocks a demotion holds; guarded by the
	// pool's mu, like pending.
	demoting bool
	stored
}

// blocks is the run's block range.
func (pr *poolRun) blocks() BlockRun { return BlockRun{Start: pr.start, Count: pr.count} }

// runRecords recycles the stored-run records of pools of more than one
// block: a record goes back once its run's restore has committed, or its
// store has failed — when no block points at it and no claim holds it — so
// a batch round trip allocates none.
var runRecords = sync.Pool{New: func() any { return new(poolRun) }}

// recycle returns a dead record to runRecords; a one-block pool's own
// record (p.one) stays where it is.
func (p *BlockPool) recycle(pr *poolRun) {
	if pr != &p.one {
		*pr = poolRun{}
		runRecords.Put(pr)
	}
}

// RegisterBlockPool reserves numBlocks fixed-size blocks of blockElems
// float32s as one device allocation. It fails with devmem.ErrOutOfMemory
// when the device pool cannot hold the region and ErrClosed after Close.
func (e *Executor) RegisterBlockPool(name string, blockElems, numBlocks int) (*BlockPool, error) {
	if blockElems <= 0 || numBlocks <= 0 {
		return nil, fmt.Errorf("executor: block pool %s: geometry %d elems x %d blocks must be positive",
			name, blockElems, numBlocks)
	}
	return e.registerPool(name, blockElems, numBlocks, make([]float32, blockElems*numBlocks))
}

// registerPool reserves the device region for numBlocks blocks of
// blockElems and registers a pool over data, which becomes its memory.
func (e *Executor) registerPool(name string, blockElems, numBlocks int, data []float32) (*BlockPool, error) {
	p := &BlockPool{
		e:          e,
		name:       name,
		blockElems: blockElems,
		numBlocks:  numBlocks,
		data:       data,
		state:      make([]State, numBlocks),
		run:        make([]*poolRun, numBlocks),
	}
	p.settled.L = &p.mu
	var err error
	if p.devBlock, err = e.device.Alloc(p.Bytes()); err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		_ = p.devBlock.Free()
		return nil, fmt.Errorf("%w: register %s", ErrClosed, name)
	}
	e.nextID++
	p.id = e.nextID
	e.pools[p.id] = p
	e.mu.Unlock()
	return p, nil
}

// Name returns the pool's registration name.
func (p *BlockPool) Name() string { return p.name }

// BlockElems returns the per-block element count.
func (p *BlockPool) BlockElems() int { return p.blockElems }

// NumBlocks returns the pool size in blocks.
func (p *BlockPool) NumBlocks() int { return p.numBlocks }

// Bytes returns the pool's device reservation size.
func (p *BlockPool) Bytes() int64 { return int64(p.blockElems) * int64(p.numBlocks) * 4 }

// BlockState returns one block's current storage state (Freed once the
// pool itself is freed).
func (p *BlockPool) BlockState(id int) State {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return Freed
	}
	return p.state[id]
}

// SwappedIDs returns the IDs of currently swapped-out blocks, ascending —
// the work list a migration (or a restore-everything drain) walks.
func (p *BlockPool) SwappedIDs() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var ids []int
	for i, st := range p.state {
		if st == Swapped {
			ids = append(ids, i)
		}
	}
	return ids
}

// checkIDs validates a strictly-ascending unique ID list against the pool
// bounds — the shape WriteBlocks and ReadBlocks require, because it gives
// the packed data buffer an unambiguous layout.
func (p *BlockPool) checkIDs(ids []int) error {
	for i, id := range ids {
		if id < 0 || id >= p.numBlocks {
			return fmt.Errorf("executor: block pool %s: block %d out of range [0,%d)", p.name, id, p.numBlocks)
		}
		if i > 0 && id <= ids[i-1] {
			return fmt.Errorf("executor: block pool %s: block IDs must be strictly ascending (%d after %d)",
				p.name, id, ids[i-1])
		}
	}
	return nil
}

// seal marks the pool's memory immutable; see BlockPool.sealed.
func (p *BlockPool) seal() {
	p.mu.Lock()
	p.sealed = true
	p.mu.Unlock()
}

// WriteBlocks stores packed block contents: data holds len(ids) blocks
// back to back, in the order of the strictly-ascending ID list. Every
// target block must be Resident (a swapped or in-flight block refuses —
// its stored copy would silently diverge from the device copy), and the
// pool must not be sealed.
func (p *BlockPool) WriteBlocks(ids []int, data []float32) error {
	if err := p.checkIDs(ids); err != nil {
		return err
	}
	if len(data) != len(ids)*p.blockElems {
		return fmt.Errorf("executor: block pool %s: %d blocks need %d elements, got %d",
			p.name, len(ids), len(ids)*p.blockElems, len(data))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return p.freedErr()
	}
	if p.sealed {
		return fmt.Errorf("%w: %s", ErrSealed, p.name)
	}
	for _, id := range ids {
		if st := p.state[id]; st != Resident {
			return p.blockStateErr(id, st)
		}
	}
	for i, id := range ids {
		copy(p.data[id*p.blockElems:(id+1)*p.blockElems], data[i*p.blockElems:(i+1)*p.blockElems])
	}
	return nil
}

// ReadBlocks returns packed block contents for a strictly-ascending ID
// list. Every block must be Resident; swap the batch in first.
func (p *BlockPool) ReadBlocks(ids []int) ([]float32, error) {
	if err := p.checkIDs(ids); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return nil, p.freedErr()
	}
	for _, id := range ids {
		if st := p.state[id]; st != Resident {
			return nil, p.blockStateErr(id, st)
		}
	}
	out := make([]float32, len(ids)*p.blockElems)
	for i, id := range ids {
		copy(out[i*p.blockElems:(i+1)*p.blockElems], p.data[id*p.blockElems:(id+1)*p.blockElems])
	}
	return out, nil
}

// ViewRuns appends to dst the pool's own memory for each run of a canonical
// (sorted, disjoint) run table, one slice per run — ReadBlocks without the
// copy — and returns the extended list (dst, a list to reuse, may be nil).
// Every block must be Resident. The slices alias live pool memory: the
// caller must exclude writes and swaps of those blocks for as long as it
// reads them (the server holds the pool's entry lock).
func (p *BlockPool) ViewRuns(dst [][]float32, runs []BlockRun) ([][]float32, error) {
	if err := p.validateRuns(runs); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return nil, p.freedErr()
	}
	if err := p.inState(runs, Resident); err != nil {
		return nil, err
	}
	for _, r := range runs {
		dst = append(dst, p.data[r.Start*p.blockElems:(r.Start+r.Count)*p.blockElems])
	}
	return dst, nil
}

// inState returns the error for the first block of runs that is not in
// st, nil when none is. Caller holds p.mu.
func (p *BlockPool) inState(runs []BlockRun, st State) error {
	for _, r := range runs {
		for id := r.Start; id < r.Start+r.Count; id++ {
			if p.state[id] != st {
				return p.blockStateErr(id, p.state[id])
			}
		}
	}
	return nil
}

// setState puts every block of runs in st. Caller holds p.mu.
func (p *BlockPool) setState(runs []BlockRun, st State) {
	for _, r := range runs {
		for id := r.Start; id < r.Start+r.Count; id++ {
			p.state[id] = st
		}
	}
}

// freedErr is the error every operation on a freed pool returns.
func (p *BlockPool) freedErr() error { return fmt.Errorf("%w: %s", ErrFreed, p.name) }

// blockStateErr maps a block's offending state onto the executor error
// taxonomy. Caller holds p.mu.
func (p *BlockPool) blockStateErr(id int, st State) error {
	switch st {
	case SwappingOut, SwappingIn:
		p.e.ins.busyRejections.Inc()
		return fmt.Errorf("%w: %s block %d (%s in flight)", ErrBusy, p.name, id, st)
	case Swapped:
		return fmt.Errorf("%w: %s block %d already swapped out", ErrNotResident, p.name, id)
	case Resident:
		return fmt.Errorf("%w: %s block %d already resident", ErrNotSwapped, p.name, id)
	}
	return fmt.Errorf("executor: %s block %d in unexpected state %s", p.name, id, st)
}

// SwapOutBlocks moves the listed blocks' contents to the host pool and
// waits: IDs are coalesced into contiguous runs, and each run is encoded
// and stored as one operation, one after another in the caller's
// goroutine. Per-run failure semantics match SwapOut (encode and
// compressed-alloc failures degrade to raw; only a raw-path allocation
// failure surfaces, with that run's blocks left Resident).
func (p *BlockPool) SwapOutBlocks(ids []int, doCompress bool, alg compress.Algorithm) error {
	return p.swapOut(context.Background(), "batch-swap-out", CoalesceBlockIDs(ids), len(ids), doCompress, alg)
}

// SwapOutBlocksCtx is SwapOutBlocks as a pipeline stage: the blocks are
// claimed at once, and the call then takes one slot of the async window and
// stores its runs one after another on the worker pool (dispatch). The
// returned Ticket resolves once every run has committed or rolled back. ctx
// governs the slot acquisition — a refused slot rolls every claimed block
// back — and, as for Swap, the shed signal at each run boundary.
func (p *BlockPool) SwapOutBlocksCtx(ctx context.Context, ids []int, doCompress bool, alg compress.Algorithm) *Ticket {
	return p.dispatch(ctx, "batch-swap-out", CoalesceBlockIDs(ids), len(ids), doCompress, alg)
}

// SwapInBlocks restores the listed blocks' contents from the host pool
// and waits, run after run in the caller's goroutine. Already-resident
// blocks are skipped (idempotent restore); restore granularity is the
// stored run, so requesting any block of a stored run restores the whole
// run.
func (p *BlockPool) SwapInBlocks(ids []int) error {
	return p.swapIn(context.Background(), "batch-swap-in", CoalesceBlockIDs(ids), len(ids))
}

// SwapInBlocksCtx is SwapInBlocks as a pipeline stage; see
// SwapOutBlocksCtx for ticket and context semantics.
func (p *BlockPool) SwapInBlocksCtx(ctx context.Context, ids []int) *Ticket {
	return p.dispatch(ctx, "batch-swap-in", CoalesceBlockIDs(ids), len(ids), false, 0)
}

// Swap runs one operation of a swap service synchronously, in the
// caller's goroutine: op is "swap-out", "swap-in" or "prefetch" on block 0 —
// with its tensor meaning — or the "batch-" form of one of them on runs, the
// request's IDs as CoalesceBlockIDs merged them, of which there were
// requested before the merge (the batch series record both); a tensor
// operation ignores the two. The caller coalesces, so a service that already
// has the run table — to price or count the request — does not pay for it
// twice. It is the loop SwapOutBlocks and SwapInBlocks run, under ctx: a
// yield function on ctx (WithYield) makes the operation sheddable at run
// boundaries (ErrShed, the runs not yet started back in the state they were
// claimed from). A prefetch is an idempotent swap-in: resident blocks need
// no work, a block an asynchronous swap-in is restoring is waited for rather
// than refused, and tier-resident runs are staged back into the host pool
// first (read-ahead), so a failed or shed prefetch still leaves the later
// demand swap-in a host-memory read. A run once started commits or rolls
// back whatever ctx does. Swap takes no slot of the async window, so Drain
// and Close do not wait for it: its caller bounds and waits out its own
// swaps.
func (p *BlockPool) Swap(ctx context.Context, op string, runs []BlockRun, requested int, doCompress bool, alg compress.Algorithm) error {
	kind, batch := strings.CutPrefix(op, "batch-")
	if !batch {
		runs, requested = whole, 0
	}
	switch kind {
	case "swap-out":
		return p.swapOut(ctx, op, runs, requested, doCompress, alg)
	case "swap-in", "prefetch":
		return p.swapIn(ctx, op, runs, requested)
	}
	return fmt.Errorf("executor: block pool %s: unknown operation %q", p.name, op)
}

// swapOut is every synchronous swap-out: claim the runs, then store them
// in the caller's goroutine. requested is a batch call's ID count, which
// the batch series record; a tensor call passes 0.
func (p *BlockPool) swapOut(ctx context.Context, op string, runs []BlockRun, requested int, doCompress bool, alg compress.Algorithm) error {
	if err := p.claimOut(runs, requested, doCompress, alg); err != nil {
		return err
	}
	return p.storeRuns(ctx, op, runs, doCompress, alg)
}

// storeRuns is every swap-out's loop over its claimed runs.
func (p *BlockPool) storeRuns(ctx context.Context, op string, runs []BlockRun, doCompress bool, alg compress.Algorithm) error {
	return p.serial(ctx, op, runs, Resident, func(r BlockRun) error { return p.storeRun(r, doCompress, alg) })
}

// swapIn is every synchronous swap-in and prefetch: claim the stored runs
// the request touches, then restore them in the caller's goroutine. The
// claimed list is the call's scratch, taken from runLists and given back.
func (p *BlockPool) swapIn(ctx context.Context, op string, req []BlockRun, requested int) error {
	scratch := runLists.Get().(*[]BlockRun)
	defer runLists.Put(scratch)
	runs, joined, err := p.claimIn(op, req, requested, nil, (*scratch)[:0])
	if cap(runs) > cap(*scratch) {
		*scratch = runs[:0]
	}
	if err != nil {
		return err
	}
	return p.restoreRuns(ctx, op, runs, joined)
}

// runLists recycles the run lists synchronous swap-ins claim into.
var runLists = sync.Pool{New: func() any { return new([]BlockRun) }}

// restoreRuns is every swap-in's loop over its claimed runs; a prefetch
// then also waits for the asynchronous swap-ins it joined.
func (p *BlockPool) restoreRuns(ctx context.Context, op string, runs []BlockRun, joined []*Ticket) error {
	prefetch := isPrefetch(op)
	err := p.serial(ctx, op, runs, Swapped, func(r BlockRun) error { return p.restoreRun(r, prefetch) })
	for _, j := range joined {
		if jerr := j.Wait(); jerr != nil && err == nil {
			err = jerr
		}
	}
	return err
}

// serial is the one run loop, synchronous calls' and async jobs' alike: body
// over claimed runs one after another in the calling goroutine. It returns
// the first error; every run commits or rolls back whatever its siblings do.
// Each run boundary first asks ctx's yield function, if any, whether to
// stop (shed).
func (p *BlockPool) serial(ctx context.Context, op string, runs []BlockRun, from State, body func(BlockRun) error) error {
	yield, _ := ctx.Value(yieldKey{}).(func() bool)
	var first error
	for i, r := range runs {
		if yield != nil && yield() {
			return p.shed(op, runs[i:], from)
		}
		if err := body(r); err != nil && first == nil {
			first = err
		}
	}
	return first
}

type yieldKey struct{}

// WithYield returns a context under which a swap — BlockPool.Swap, or an
// asynchronous call, which runs the same loop — calls yield at every run
// boundary, and stops when it reports true: the runs not yet started roll
// back to the state they were claimed from and the call fails with ErrShed.
// It is how a swap service preempts work it admitted, say a long
// speculative prefetch that holds a slot a latency-critical request waits
// for; which work may yield, and when, is the service's policy.
func WithYield(ctx context.Context, yield func() bool) context.Context {
	return context.WithValue(ctx, yieldKey{}, yield)
}

// shed is the preemption at a run boundary whose yield fired: runs, the
// ones not yet started, roll back to from, the state they were claimed out
// of, and ErrShed is returned.
func (p *BlockPool) shed(op string, runs []BlockRun, from State) error {
	p.e.ins.schedPreemptions.Inc()
	p.e.ins.schedShedRuns.Add(float64(len(runs)))
	p.settle(runs, from)
	return fmt.Errorf("executor: %s %s: %w", op, p.name, ErrShed)
}

func isPrefetch(op string) bool { return op == "prefetch" || op == "batch-prefetch" }

// claimIn is every swap-in's claim, atomic under p.mu: it collects the
// stored runs holding the requested blocks, appends them to dst and claims
// their blocks SwappingIn for t (nil: a synchronous call). A Resident block
// is skipped — except by a tensor's swap-in, op "swap-in", which refuses
// it — and a prefetch that finds a block under an asynchronous swap-in
// returns that swap-in's ticket in joined instead of failing with ErrBusy.
// A block a demotion holds is waited for (awaitDemotions); any other block
// in flight fails the whole call before it starts.
func (p *BlockPool) claimIn(op string, req []BlockRun, requested int, t *Ticket, dst []BlockRun) (runs []BlockRun, joined []*Ticket, err error) {
	if err := p.validateRuns(req); err != nil {
		return nil, nil, err
	}
	prefetch := isPrefetch(op)
	p.mu.Lock()
	defer p.mu.Unlock()
	// A demotion holds a whole stored run, so waiting out the requested
	// blocks' covers their runs' other blocks too.
	p.awaitDemotions(req)
	if p.freed {
		return nil, nil, p.freedErr()
	}
	runs, n := dst, 0
	for _, r := range req {
		for id := r.Start; id < r.Start+r.Count; id++ {
			switch st, pr := p.state[id], p.run[id]; {
			case st == Swapped:
				// IDs ascend and a stored run is contiguous, so one run's
				// blocks arrive back to back.
				if b := pr.blocks(); len(runs) == 0 || runs[len(runs)-1] != b {
					runs = append(runs, b)
					n += b.Count
				}
			case st == Resident && op != "swap-in":
			case st == SwappingIn && prefetch && pr.pending != nil:
				if len(joined) == 0 || joined[len(joined)-1] != pr.pending {
					joined = append(joined, pr.pending)
				}
			default:
				return nil, nil, p.blockStateErr(id, st)
			}
		}
	}
	if err := p.inState(runs, Swapped); err != nil { // a stored run's unrequested blocks too
		return nil, nil, err
	}
	p.swapped -= n
	p.setState(runs, SwappingIn)
	for _, r := range runs {
		p.run[r.Start].pending = t
	}
	p.e.observeBatch(requested, runs)
	return runs, joined, nil
}

// claimRuns atomically moves every block of every run from `from` to
// `to`, or changes nothing and returns the first offending block's error.
// before, if not nil, runs under the same lock once the claim is sure to
// succeed, while every block is still in from; if it returns false, the
// claim is abandoned with nothing changed and nil returned.
func (p *BlockPool) claimRuns(runs []BlockRun, from, to State, before func() bool) error {
	if err := p.validateRuns(runs); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return p.freedErr()
	}
	if err := p.inState(runs, from); err != nil {
		return err
	}
	if before != nil && !before() {
		return nil
	}
	p.setState(runs, to)
	return nil
}

// claimOut is every swap-out's claim; requested is as for swapOut. A clean
// copy the store cannot stand for — one encoded with another codec — is
// dropped under the claim's lock while its owner is still Resident; one that
// matches stays for storeRun to commit.
func (p *BlockPool) claimOut(runs []BlockRun, requested int, doCompress bool, alg compress.Algorithm) error {
	err := p.claimRuns(runs, Resident, SwappingOut, func() bool {
		if pr := p.cleanCopy(); pr != nil && !pr.encodedAs(doCompress, alg) {
			p.dropClean()
		}
		return true
	})
	if err == nil {
		p.e.observeBatch(requested, runs)
	}
	return err
}

// cleanCopy returns the pool's clean copy: the stored record a verified
// restore of a sealed one-block pool left in place, with its blob still in
// the host pool (cached, see devmem.Pool) while the block is Resident. Only
// a pool that keeps (keeps) has one. Caller holds p.mu.
func (p *BlockPool) cleanCopy() *poolRun {
	if p.freed || p.numBlocks > 1 || p.state[0] != Resident {
		return nil
	}
	return p.run[0]
}

// dropClean releases the pool's clean copy, if it has one. Caller holds
// p.mu.
func (p *BlockPool) dropClean() {
	if pr := p.cleanCopy(); pr != nil {
		_ = p.e.drop(&pr.stored) // a host block freed twice is the only failure, and mu rules it out
		p.run[0] = nil
		p.e.ins.cleanDrops.Inc()
	}
}

// keeps reports whether the pool's verified restores keep a clean copy and
// its stores reuse their first digest: a sealed one-block pool under
// Config.Verify. The seal is set before the first swap-out, and the claim
// orders this read after it.
func (p *BlockPool) keeps() bool { return p.sealed && p.numBlocks == 1 && p.e.cfg.Verify }

// settle returns claimed blocks to the stable state st: a failed or
// refused run rolls back, and a demotion hands its run back, waking the
// claims that wait for it (awaitDemotions). Blocks a
// swap-in had claimed leave the device again, so the rollback that makes
// every block Swapped releases the reservation.
func (p *BlockPool) settle(runs []BlockRun, st State) {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, r := range runs {
		for id := r.Start; id < r.Start+r.Count; id++ {
			if p.state[id] == SwappingIn {
				n++
			}
			p.state[id] = st
		}
		if pr := p.run[r.Start]; pr != nil {
			pr.pending, pr.demoting = nil, false
		}
	}
	_ = p.swapOff(n)
	p.settled.Broadcast()
}

// demoting reports whether a demotion holds a block of runs. Caller holds
// p.mu.
func (p *BlockPool) demoting(runs []BlockRun) bool {
	for _, r := range runs {
		for id := r.Start; id < r.Start+r.Count; id++ {
			if pr := p.run[id]; pr != nil && pr.demoting {
				return true
			}
		}
	}
	return false
}

// awaitDemotions waits, on p.mu, until no demotion holds a block of runs.
// A demotion is one tier write that never waits on the pool's owner, so the
// owner's claim waiting for it cannot deadlock — and the owner, who raced
// no one, is not told ErrBusy.
func (p *BlockPool) awaitDemotions(runs []BlockRun) {
	for p.demoting(runs) {
		p.settled.Wait()
	}
}

// commitRun publishes a finished run: its blocks take the stable state st
// and point at the stored run that now holds them — once restored, nil, or
// the clean copy the restore kept. A
// swap-out commit that leaves no block on the device releases the
// reservation; if that fails, nothing is published.
func (p *BlockPool) commitRun(r BlockRun, st State, pr *poolRun) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st == Swapped {
		if err := p.swapOff(r.Count); err != nil {
			p.swapped -= r.Count
			return err
		}
	}
	for id := r.Start; id < r.Start+r.Count; id++ {
		p.state[id] = st
		p.run[id] = pr
	}
	return nil
}

// swapOff counts n more blocks off the device and releases the
// reservation once every block is. The reservation is dropped even when
// its release fails — devmem refuses only a block already released — and
// the error is returned for a commit to surface. Caller holds p.mu.
func (p *BlockPool) swapOff(n int) (err error) {
	if n > 0 && p.swapped+n == p.numBlocks && p.devBlock != nil {
		err, p.devBlock = p.devBlock.Free(), nil
	}
	p.swapped += n
	return err
}

// reserve re-takes the device reservation the pool gave up when its last
// block was swapped out, for a restore about to write into the region.
func (p *BlockPool) reserve() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.devBlock != nil {
		return nil
	}
	b, err := p.e.device.Alloc(p.Bytes())
	if err != nil {
		return fmt.Errorf("executor: device pool: %w", err)
	}
	p.devBlock = b
	return nil
}

// validateRuns bounds-checks coalesced runs against the pool. Runs come
// from CoalesceBlockIDs, so checking the first start and each end
// suffices.
func (p *BlockPool) validateRuns(runs []BlockRun) error {
	for _, r := range runs {
		if r.Start < 0 || r.Start+r.Count > p.numBlocks {
			return fmt.Errorf("executor: block pool %s: run [%d,+%d) out of range [0,%d)",
				p.name, r.Start, r.Count, p.numBlocks)
		}
	}
	return nil
}

// storeRun runs the shared store body for one contiguous run. The blocks
// are claimed SwappingOut; commit publishes the stored run and marks them
// Swapped, rollback returns them to Resident with the device copy intact.
// A clean copy the claim found matching is committed as it is; otherwise a
// sealed one-block pool hands store the digest its first store took.
func (p *BlockPool) storeRun(r BlockRun, doCompress bool, alg compress.Algorithm) error {
	p.mu.Lock()
	pr := p.run[r.Start] // nil but for a clean copy
	p.mu.Unlock()
	commit := func() error { return p.commitRun(r, Swapped, pr) }
	var err error
	if pr != nil {
		err = p.e.storeClean(&pr.stored, commit)
	} else {
		pr = &p.one
		if p.numBlocks > 1 {
			pr = runRecords.Get().(*poolRun)
		}
		// The charge is set before the first swap-out, and the claim
		// ordered this read after it.
		*pr = poolRun{start: r.Start, count: r.Count, stored: stored{elems: r.Count * p.blockElems, charge: p.charge, checksum: p.digest}}
		keep := p.keeps()
		src := p.data[r.Start*p.blockElems : (r.Start+r.Count)*p.blockElems]
		err = p.e.store(&pr.stored, p.name, src, keep && p.digested, doCompress, alg, func() error {
			if keep { // before the commit hands the record to the next claim
				p.digest, p.digested = pr.checksum, true
			}
			return commit()
		})
		if err != nil {
			p.recycle(pr) // never published
		}
	}
	if err != nil {
		p.settle([]BlockRun{r}, Resident)
	}
	return err
}

// restoreRun runs the shared restore body for the stored run r, decoding
// into the pool's region once the reservation is held — staging it from
// the tier first for a prefetch. The blocks are claimed SwappingIn; any
// surfaced failure, an OOM re-taking the reservation included, leaves the
// run cleanly Swapped with its blob intact — retry-safe, never silently
// wrong data. A pool that keeps (keeps) keeps a host-resident blob as its
// clean copy once the restore has passed; one read from the tier is not
// kept.
func (p *BlockPool) restoreRun(r BlockRun, stage bool) error {
	p.mu.Lock()
	pr := p.run[r.Start]
	p.mu.Unlock()
	if stage {
		p.e.stage(&pr.stored)
	}
	var clean *poolRun
	if p.keeps() && !pr.tiered {
		clean = pr
	}
	err := p.reserve()
	if err == nil {
		dst := p.data[r.Start*p.blockElems : (r.Start+r.Count)*p.blockElems]
		err = p.e.restore(&pr.stored, p.name, dst, clean != nil, func() { _ = p.commitRun(r, Resident, clean) })
	}
	if err != nil {
		p.settle([]BlockRun{r}, Swapped)
		return fmt.Errorf("executor: restore %s run [%d,+%d): %w", p.name, r.Start, r.Count, err)
	}
	if clean == nil {
		p.recycle(pr) // the commit unlinked it from every block
	}
	return nil
}

// Free releases the pool: the device reservation and every stored run's
// host or tier bytes. A demotion in flight is waited for; any block with a
// swap in flight refuses with ErrBusy — wait for the tickets, then Free.
// Freeing twice returns ErrFreed.
func (p *BlockPool) Free() error {
	p.mu.Lock()
	p.awaitDemotions([]BlockRun{{Count: p.numBlocks}})
	if p.freed {
		p.mu.Unlock()
		return p.freedErr()
	}
	for id, st := range p.state {
		if st == SwappingOut || st == SwappingIn {
			err := p.blockStateErr(id, st)
			p.mu.Unlock()
			return err
		}
	}
	p.dropClean()
	p.freed = true
	dev := p.devBlock
	p.mu.Unlock()
	if dev != nil {
		if err := dev.Free(); err != nil {
			p.mu.Lock()
			p.freed = false
			p.mu.Unlock()
			return err
		}
	}
	// Freed, the pool admits no claim, so its run map is this call's.
	e := p.e
	for id, pr := range p.run {
		if pr != nil && pr.start == id { // each stored run once, at its first block
			_ = e.drop(&pr.stored)
		}
	}
	e.mu.Lock()
	delete(e.pools, p.id)
	e.mu.Unlock()
	return nil
}

// victims appends the pool's demotion candidates — stored, host-resident
// runs — ranked at time now. Tiered and in-flight runs are excluded.
func (p *BlockPool) victims(vs []tierVictim, now float64) []tierVictim {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return vs
	}
	for id, pr := range p.run {
		// State first: a run's record may only be read while no claim
		// holds its blocks, which Swapped under p.mu guarantees.
		if pr == nil || pr.start != id || p.state[id] != Swapped || pr.tiered {
			continue
		}
		score, bytes := pr.demotionScore(now)
		vs = append(vs, tierVictim{p: p, r: pr.blocks(), score: score, bytes: bytes})
	}
	return vs
}

// demoteRun runs the shared demote body for the stored run at r and
// reports the raw bytes it moved into the tier: its blocks are claimed for
// the move and return to Swapped afterwards, tiered on success. A range that
// no longer holds one stored run — a ranking snapshot that aged out — is not
// claimed and moves nothing, and neither is a run already in the tier; so a
// demotion only ever holds one whole stored run, and a swap-in or Free that
// meets it waits for it (awaitDemotions).
func (p *BlockPool) demoteRun(r BlockRun) (int64, error) {
	e := p.e
	if e.tier == nil {
		return 0, ErrNoTier
	}
	runs := []BlockRun{r}
	var pr *poolRun
	if err := p.claimRuns(runs, Swapped, SwappingOut, func() bool {
		if pr = p.run[r.Start]; pr.blocks() != r || pr.tiered {
			pr = nil
			return false
		}
		pr.demoting = true
		return true
	}); err != nil || pr == nil {
		return 0, err
	}
	defer p.settle(runs, Swapped)
	// Pool name, pool ID (re-registrations of one name must not collide),
	// and the run's start block (unique per stored run at any instant — one
	// stored run per block).
	pr.tierKey = fmt.Sprintf("%s#p%d@%d", p.name, p.id, pr.start)
	if err := e.demote(&pr.stored); err != nil {
		return 0, fmt.Errorf("executor: demote %s run [%d,+%d): %w", p.name, pr.start, pr.count, err)
	}
	return pr.rawBytes(), nil
}

// DemoteSwapped moves every swapped, host-resident run of the pool into the
// disk tier and reports the raw bytes it moved — what the pool's Charge
// moved from Held to Tiered. Resident blocks, runs already tiered and runs
// an operation holds are left alone, so a pool with nothing to demote moves
// 0 bytes without error. It stops at the first failed demotion (ErrNoTier,
// tier.ErrFull, ...), reporting what moved before it.
func (p *BlockPool) DemoteSwapped() (moved int64, err error) {
	for _, v := range p.victims(nil, 0) {
		var n int64
		if n, err = p.demoteRun(v.r); err != nil {
			break
		}
		moved += n
	}
	return moved, err
}

// observeBatch records one batch's coalescing outcome: how many blocks
// the caller asked for (pre-dedup), how many runs they merged into, and
// the batch size — the "requests and frames, not bytes" win this layout
// exists for. A tensor call (requested 0) is not a batch and records
// nothing.
func (e *Executor) observeBatch(requested int, runs []BlockRun) {
	blocks := 0
	for _, r := range runs {
		blocks += r.Count
	}
	if requested == 0 || blocks == 0 {
		return
	}
	e.ins.batchBlocks.Add(float64(blocks))
	e.ins.batchRuns.Add(float64(len(runs)))
	e.ins.batchSize.Observe(float64(requested))
	e.ins.coalesceRatio.Observe(float64(len(runs)) / float64(blocks))
}
