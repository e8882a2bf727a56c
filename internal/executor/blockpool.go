package executor

// Block pools: the paged KV-cache layout for the LLM-serving workload
// class. Where Register gives each tensor its own device reservation, a
// BlockPool carves ONE reservation into numBlocks fixed-size blocks of
// blockElems float32s — the paged layout inference engines give their KV
// caches — and the batch operations move *lists* of block IDs per call.
//
// The batch ops sort and dedup the requested IDs and merge contiguous
// runs (swiftLLM's block_swapping names exactly this merge as its own
// future work): source and destination of a run are both sequential
// memory, so one codec/pool operation per RUN replaces one per block —
// the cDMA amortization that makes compressed swapping pay off at small
// granularity. Each run rides the existing async ticket pipeline (one
// bounded-window slot per run), so runs within a batch overlap exactly
// like independent tensor swaps.
//
// State machine: every block carries the same State values as a Handle
// (Resident / Swapped / SwappingOut / SwappingIn), guarded by one
// per-pool mutex. A batch claims ALL its target blocks atomically before
// submitting any run — a batch either starts whole or fails whole with
// the first offending block's error — and each run commits or rolls back
// only its own blocks. The stored run is the restore granularity: a
// swap-in that requests any block of a stored run restores the whole run
// (the blocks were encoded as one blob; decoding it is one operation
// either way).
//
// Unlike a tensor handle, the pool's device reservation is permanent: a
// paged KV region is allocated once for the serving engine's lifetime,
// and swapped-out blocks' physical slots are the engine's to reuse. What
// the batch ops move is block *contents*; host-pool bytes are charged per
// stored run while it is swapped.

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"cswap/internal/compress"
	"cswap/internal/devmem"
)

// CoalesceBlockIDs sorts ids, drops duplicates, and merges contiguous
// runs — the pure coalescing rule both the executor and the simulator
// score by. A nil/empty input returns nil.
func CoalesceBlockIDs(ids []int) []BlockRun {
	if len(ids) == 0 {
		return nil
	}
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	runs := make([]BlockRun, 0, 4)
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
	devBlock   *devmem.Block
	data       []float32 // the whole region; block i is [i*blockElems, (i+1)*blockElems)

	// mu guards the per-block state vector and run map. Run payload fields
	// are owned exclusively by the operation holding the transitional
	// state, like a Handle's storage.
	mu    sync.Mutex
	state []State
	run   []*poolRun // per block: the stored run holding it while Swapped
	freed bool
}

// poolRun is one stored (swapped-out) run: the shared payload record for
// count blocks starting at start.
type poolRun struct {
	start, count int
	stored
}

// blocks is the run's block range.
func (pr *poolRun) blocks() BlockRun { return BlockRun{Start: pr.start, Count: pr.count} }

// RegisterBlockPool reserves numBlocks fixed-size blocks of blockElems
// float32s as one device allocation. It fails with devmem.ErrOutOfMemory
// when the device pool cannot hold the region and ErrClosed after Close.
func (e *Executor) RegisterBlockPool(name string, blockElems, numBlocks int) (*BlockPool, error) {
	if blockElems <= 0 || numBlocks <= 0 {
		return nil, fmt.Errorf("executor: block pool %s: geometry %d elems x %d blocks must be positive",
			name, blockElems, numBlocks)
	}
	total := int64(blockElems) * int64(numBlocks) * 4
	block, err := e.device.Alloc(total)
	if err != nil {
		return nil, err
	}
	p := &BlockPool{
		e:          e,
		name:       name,
		blockElems: blockElems,
		numBlocks:  numBlocks,
		devBlock:   block,
		data:       make([]float32, blockElems*numBlocks),
		state:      make([]State, numBlocks),
		run:        make([]*poolRun, numBlocks),
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		_ = block.Free()
		return nil, fmt.Errorf("%w: register block pool %s", ErrClosed, name)
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

// BlockHandle is a lightweight per-block view into a pool — the paged
// analogue of a tensor Handle, for callers that track residency block by
// block.
type BlockHandle struct {
	pool *BlockPool
	id   int
}

// Handle returns the per-block handle for one block ID.
func (p *BlockPool) Handle(id int) (BlockHandle, error) {
	if id < 0 || id >= p.numBlocks {
		return BlockHandle{}, fmt.Errorf("executor: block pool %s: block %d out of range [0,%d)", p.name, id, p.numBlocks)
	}
	return BlockHandle{pool: p, id: id}, nil
}

// Pool returns the owning pool.
func (h BlockHandle) Pool() *BlockPool { return h.pool }

// ID returns the block's index in its pool.
func (h BlockHandle) ID() int { return h.id }

// State returns the block's current storage state.
func (h BlockHandle) State() State { return h.pool.BlockState(h.id) }

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

// WriteBlocks stores packed block contents: data holds len(ids) blocks
// back to back, in the order of the strictly-ascending ID list. Every
// target block must be Resident (a swapped or in-flight block refuses —
// its stored copy would silently diverge from the device copy).
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
		return fmt.Errorf("%w: block pool %s", ErrFreed, p.name)
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
		return nil, fmt.Errorf("%w: block pool %s", ErrFreed, p.name)
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

// ViewRuns returns the pool's own memory for each run of a canonical
// (sorted, disjoint) run table, one slice per run — ReadBlocks without the
// copy. Every block must be Resident. The slices alias live pool memory:
// the caller must exclude writes and swaps of those blocks for as long as
// it reads them (the server holds the pool's entry lock).
func (p *BlockPool) ViewRuns(runs []BlockRun) ([][]float32, error) {
	if err := p.validateRuns(runs); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return nil, fmt.Errorf("%w: block pool %s", ErrFreed, p.name)
	}
	views := make([][]float32, len(runs))
	for i, r := range runs {
		for id := r.Start; id < r.Start+r.Count; id++ {
			if st := p.state[id]; st != Resident {
				return nil, p.blockStateErr(id, st)
			}
		}
		views[i] = p.data[r.Start*p.blockElems : (r.Start+r.Count)*p.blockElems]
	}
	return views, nil
}

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
// waits: IDs are coalesced into contiguous runs, each run is encoded and
// stored as one operation on the async pipeline, and runs overlap within
// the bounded in-flight window. Per-run failure semantics match SwapOut
// (encode and compressed-alloc failures degrade to raw; only a raw-path
// allocation failure surfaces, with that run's blocks left Resident).
func (p *BlockPool) SwapOutBlocks(ids []int, doCompress bool, alg compress.Algorithm) error {
	return p.SwapOutBlocksCtx(context.Background(), ids, doCompress, alg).Wait()
}

// SwapOutBlocksCtx is SwapOutBlocks as a pipeline stage: the returned
// Ticket resolves when every run has committed. The context governs slot
// acquisition for not-yet-submitted runs; already-running runs always
// finish and commit.
func (p *BlockPool) SwapOutBlocksCtx(ctx context.Context, ids []int, doCompress bool, alg compress.Algorithm) *Ticket {
	runs := CoalesceBlockIDs(ids)
	t := newTicket("batch-swap-out", p.name)
	if err := p.claimRuns(runs, Resident, SwappingOut); err != nil {
		return t.complete(err)
	}
	if len(runs) == 0 {
		return t.complete(nil)
	}
	p.e.observeBatch(len(ids), runs)
	p.submitRuns(ctx, t, runs, Resident, func(r BlockRun) error {
		return p.storeRun(r, doCompress, alg)
	})
	return t
}

// SwapInBlocks restores the listed blocks' contents from the host pool
// and waits. Already-resident blocks are skipped (idempotent restore);
// restore granularity is the stored run, so requesting any block of a
// stored run restores the whole run.
func (p *BlockPool) SwapInBlocks(ids []int) error {
	return p.SwapInBlocksCtx(context.Background(), ids).Wait()
}

// SwapInBlocksCtx is SwapInBlocks as a pipeline stage; see
// SwapOutBlocksCtx for ticket and context semantics.
func (p *BlockPool) SwapInBlocksCtx(ctx context.Context, ids []int) *Ticket {
	return p.swapInCtx(ctx, "batch-swap-in", ids)
}

// PrefetchBlocksCtx requests residency for the listed blocks ahead of need
// and returns immediately with the batch's aggregate ticket. It is
// SwapInBlocksCtx under a prefetch label: already-resident blocks
// complete without work, and tier-resident runs are staged back into the
// host pool first (read-ahead), so a failed or shed prefetch still leaves
// the later demand swap-in a host-memory read instead of a disk fault. A
// speculative sched.Hint on ctx makes the batch sheddable at run
// boundaries (ErrShed) while a critical waiter is starved.
func (p *BlockPool) PrefetchBlocksCtx(ctx context.Context, ids []int) *Ticket {
	return p.swapInCtx(ctx, "batch-prefetch", ids)
}

// swapInCtx is the shared batch swap-in/prefetch body: collect the stored
// runs intersecting the requested IDs, claim their blocks atomically, and
// submit one restore per run.
func (p *BlockPool) swapInCtx(ctx context.Context, op string, ids []int) *Ticket {
	t := newTicket(op, p.name)
	reqRuns := CoalesceBlockIDs(ids)
	if err := p.validateRuns(reqRuns); err != nil {
		return t.complete(err)
	}

	// Claim phase, atomic under p.mu: every requested block must be
	// Resident (skip) or Swapped (restore via its stored run); any
	// in-flight block fails the whole batch before it starts.
	p.mu.Lock()
	if p.freed {
		p.mu.Unlock()
		return t.complete(fmt.Errorf("%w: block pool %s", ErrFreed, p.name))
	}
	var runs []BlockRun // the stored runs to restore
	for _, r := range reqRuns {
		for id := r.Start; id < r.Start+r.Count; id++ {
			switch p.state[id] {
			case Resident:
			case Swapped:
				// IDs ascend and a stored run is contiguous, so one run's
				// blocks arrive back to back.
				if b := p.run[id].blocks(); len(runs) == 0 || runs[len(runs)-1] != b {
					runs = append(runs, b)
				}
			default:
				err := p.blockStateErr(id, p.state[id])
				p.mu.Unlock()
				return t.complete(err)
			}
		}
	}
	p.setRuns(runs, SwappingIn)
	p.mu.Unlock()

	if len(runs) == 0 {
		return t.complete(nil)
	}
	p.e.observeBatch(len(ids), runs)
	p.submitRuns(ctx, t, runs, Swapped, func(r BlockRun) error {
		p.mu.Lock()
		pr := p.run[r.Start]
		p.mu.Unlock()
		if op == "batch-prefetch" {
			p.e.stage(&pr.stored)
		}
		return p.restoreRun(pr)
	})
	return t
}

// claimRuns atomically moves every block of every run from `from` to
// `to`, or changes nothing and returns the first offending block's error.
func (p *BlockPool) claimRuns(runs []BlockRun, from, to State) error {
	if err := p.validateRuns(runs); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return fmt.Errorf("%w: block pool %s", ErrFreed, p.name)
	}
	for _, r := range runs {
		for id := r.Start; id < r.Start+r.Count; id++ {
			if p.state[id] != from {
				return p.blockStateErr(id, p.state[id])
			}
		}
	}
	p.setRuns(runs, to)
	return nil
}

// setRuns stamps every block of every run with st. Caller holds p.mu.
func (p *BlockPool) setRuns(runs []BlockRun, st State) {
	for _, r := range runs {
		for id := r.Start; id < r.Start+r.Count; id++ {
			p.state[id] = st
		}
	}
}

// rollbackRuns reverts claimed blocks to the stable state they came from.
func (p *BlockPool) rollbackRuns(runs []BlockRun, to State) {
	p.mu.Lock()
	p.setRuns(runs, to)
	p.mu.Unlock()
}

// commitRun publishes a finished run: its blocks take the stable state st
// and point at the stored run that now holds them (nil once restored).
func (p *BlockPool) commitRun(r BlockRun, st State, pr *poolRun) {
	p.mu.Lock()
	for id := r.Start; id < r.Start+r.Count; id++ {
		p.state[id] = st
		p.run[id] = pr
	}
	p.mu.Unlock()
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

// submitRuns dispatches one pipeline operation per claimed run and wires
// the aggregate ticket: it resolves with the first run error (nil when
// all commit) once every run has committed or rolled back. Submission
// happens in the caller's goroutine, so a full in-flight window applies
// the same backpressure as submitAsync; if the gate refuses mid-batch
// (closed executor, dead context), the not-yet-submitted runs roll back
// to `from`, the state they were claimed out of, and the refusal joins the
// aggregate error.
// Each run boundary also consults the scheduler's shed signal: a batch
// whose context carries a speculative sched.Hint yields its remaining
// runs with ErrShed while a critical waiter is starved — the mid-batch
// preemption point that keeps a long speculative prefetch from holding
// the window against latency-critical work.
func (p *BlockPool) submitRuns(ctx context.Context, t *Ticket, runs []BlockRun, from State, body func(BlockRun) error) {
	e := p.e
	e.ins.asyncSubmitted(t.op).Add(float64(len(runs)))
	children := make([]*Ticket, 0, len(runs))
	var submitErr error
	for i, r := range runs {
		var err error
		if e.shedHint(ctx) {
			e.shedPreempt(len(runs) - i)
			err = ErrShed
		} else {
			ct := newTicket(t.op, p.name)
			if err = dispatch(ctx, e, ct, body, r); err == nil {
				children = append(children, ct)
			}
		}
		if err != nil {
			p.rollbackRuns(runs[i:], from)
			submitErr = fmt.Errorf("executor: %s %s: %w", t.op, p.name, err)
			break
		}
	}
	go func() {
		err := submitErr
		for _, ct := range children {
			if cerr := ct.Wait(); cerr != nil && err == nil {
				err = cerr
			}
		}
		t.complete(err)
	}()
}

// storeRun runs the shared store body for one contiguous run. The blocks
// are claimed SwappingOut; commit publishes the stored run and marks them
// Swapped, rollback returns them to Resident with the device copy intact.
func (p *BlockPool) storeRun(r BlockRun, doCompress bool, alg compress.Algorithm) error {
	e := p.e
	src := p.data[r.Start*p.blockElems : (r.Start+r.Count)*p.blockElems]
	pr := &poolRun{start: r.Start, count: r.Count}
	pr.elems = len(src)
	err := e.store(&pr.stored, p.name, src, doCompress, alg, func() error {
		p.commitRun(r, Swapped, pr)
		return nil
	})
	if err != nil {
		p.rollbackRuns([]BlockRun{r}, Resident)
	}
	return err
}

// restoreRun runs the shared restore body for one stored run, decoding
// into the pool's device region. The blocks are claimed SwappingIn; any
// surfaced failure leaves the run cleanly Swapped with its blob intact —
// retry-safe, never silently wrong data.
func (p *BlockPool) restoreRun(pr *poolRun) error {
	dst := p.data[pr.start*p.blockElems : (pr.start+pr.count)*p.blockElems]
	err := p.e.restore(&pr.stored, p.name, dst, func() { p.commitRun(pr.blocks(), Resident, nil) })
	if err != nil {
		p.rollbackRuns([]BlockRun{pr.blocks()}, Swapped)
		return fmt.Errorf("executor: restore %s run [%d,+%d): %w", p.name, pr.start, pr.count, err)
	}
	return nil
}

// Free releases the pool: the device reservation and every stored run's
// host bytes. Any block with a swap in flight refuses with ErrBusy — wait
// for the batch tickets, then Free. Freeing twice returns ErrFreed.
func (p *BlockPool) Free() error {
	p.mu.Lock()
	if p.freed {
		p.mu.Unlock()
		return fmt.Errorf("%w: block pool %s", ErrFreed, p.name)
	}
	for id, st := range p.state {
		if st == SwappingOut || st == SwappingIn {
			err := p.blockStateErr(id, st)
			p.mu.Unlock()
			return err
		}
	}
	p.freed = true
	var stored []*poolRun
	for id, pr := range p.run {
		if pr != nil && pr.start == id { // each stored run once, at its first block
			stored = append(stored, pr)
		}
	}
	p.mu.Unlock()
	if err := p.devBlock.Free(); err != nil {
		p.mu.Lock()
		p.freed = false
		p.mu.Unlock()
		return err
	}
	e := p.e
	for _, pr := range stored {
		_ = e.drop(&pr.stored)
	}
	e.mu.Lock()
	delete(e.pools, p.id)
	e.mu.Unlock()
	return nil
}

// runCandidate is one stored run's demotion ranking, computed under p.mu
// (the poolRun fields themselves may only be read by whoever owns the
// run's transitional state).
type runCandidate struct {
	pr    *poolRun
	score float64
	bytes int64
}

// storedRuns ranks the pool's stored, host-resident runs — its demotion
// candidates — at time now. Tiered and in-flight runs are excluded.
func (p *BlockPool) storedRuns(now float64) []runCandidate {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.freed {
		return nil
	}
	var out []runCandidate
	for id, pr := range p.run {
		// State first: a run's record may only be read while no claim
		// holds its blocks, which Swapped under p.mu guarantees.
		if pr == nil || pr.start != id || p.state[id] != Swapped || pr.tiered {
			continue
		}
		score, bytes := pr.demotionScore(now)
		out = append(out, runCandidate{pr: pr, score: score, bytes: bytes})
	}
	return out
}

// demoteRun runs the shared demote body for one stored run: the run's
// blocks are claimed for the move (concurrent batch swap-ins see ErrBusy)
// and return to Swapped afterwards, tiered on success. A snapshot that
// aged out — the run was restored or replaced since ranking — is skipped
// without error.
func (p *BlockPool) demoteRun(pr *poolRun) error {
	e := p.e
	if e.tier == nil {
		return ErrNoTier
	}
	r := []BlockRun{pr.blocks()}
	if err := p.claimRuns(r, Swapped, SwappingOut); err != nil {
		return err
	}
	defer p.rollbackRuns(r, Swapped)
	p.mu.Lock()
	stale := p.run[pr.start] != pr
	p.mu.Unlock()
	if stale {
		return nil
	}
	// Pool name, pool ID (re-registrations of one name must not collide),
	// and the run's start block (unique per stored run at any instant — one
	// stored run per block).
	pr.tierKey = fmt.Sprintf("%s#p%d@%d", p.name, p.id, pr.start)
	if err := e.demote(&pr.stored); err != nil {
		return fmt.Errorf("executor: demote %s run [%d,+%d): %w", p.name, pr.start, pr.count, err)
	}
	return nil
}

// observeBatch records one batch's coalescing outcome: how many blocks
// the caller asked for (pre-dedup), how many runs they merged into, and
// the batch size — the "requests and frames, not bytes" win this layout
// exists for.
func (e *Executor) observeBatch(requested int, runs []BlockRun) {
	blocks := 0
	for _, r := range runs {
		blocks += r.Count
	}
	if blocks == 0 {
		return
	}
	e.ins.batchBlocks.Add(float64(blocks))
	e.ins.batchRuns.Add(float64(len(runs)))
	e.ins.batchSize.Observe(float64(requested))
	e.ins.coalesceRatio.Observe(float64(len(runs)) / float64(blocks))
}
