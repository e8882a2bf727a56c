package executor

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"cswap/internal/compress"
)

// This file is the asynchronous swap pipeline built on the guarded block
// state machine. Every asynchronous call — the Executor's SwapOutAsyncCtx /
// SwapInAsyncCtx / PrefetchCtx on a tensor and a pool's *BlocksCtx batches —
// goes through one entry, dispatch: it claims its blocks synchronously, as
// the synchronous call does (so misuse surfaces immediately as a failed
// Ticket), takes one slot of a bounded in-flight window (backpressure:
// submission blocks while the window is full), and runs the synchronous
// call's run loop as one job on the compress package's persistent worker
// pool. Drain is the completion barrier; Close drains and then refuses new
// work. The paper's premise — swap traffic overlapping compute (Fig. 2's
// execution flows, Eq. 1's hidden windows) — is exactly what this buys the
// caller: issue transfers ahead of the consumer, keep computing, and Wait
// only when the data is needed.

// Ticket is the awaitable future returned by the asynchronous swap API.
// A Ticket completes exactly once, after the operation has committed (or
// rolled back) its blocks' state; Wait and Done may be used from any
// number of goroutines.
type Ticket struct {
	op   string // "swap-out" | "swap-in" | "prefetch", "batch-" before each for a pool batch
	name string // tensor or pool name, for errors
	done chan struct{}
	err  error
}

// newTicket returns a pending ticket.
func newTicket(op, name string) *Ticket {
	return &Ticket{op: op, name: name, done: make(chan struct{})}
}

// complete resolves the ticket and returns it, so immediate failures (and
// no-op prefetches) can hand back an already-done ticket in one step. The
// error write happens before the channel close, so any goroutine unblocked
// by Done/Wait observes it.
func (t *Ticket) complete(err error) *Ticket {
	t.err = err
	close(t.done)
	return t
}

// Done returns a channel closed when the operation has completed; after
// it is closed, Err reports the outcome. Use it to select across tickets.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Wait blocks until the operation completes and returns its error.
func (t *Ticket) Wait() error {
	<-t.done
	return t.err
}

// WaitContext blocks until the operation completes or ctx is done,
// whichever comes first. A context error abandons the wait, not the work:
// the operation keeps running on the pool, still commits (or rolls back)
// the handle's state, and still releases its in-flight slot — the caller
// may re-Wait the same ticket later, or Drain for the barrier. This is the
// deadline-propagation seam a serving layer needs: a client whose request
// times out stops waiting without leaving the handle machine torn.
func (t *Ticket) WaitContext(ctx context.Context) error {
	// An already-resolved ticket reports its outcome even under a dead
	// context: the work is done, so the deadline no longer applies.
	select {
	case <-t.done:
		return t.err
	default:
	}
	select {
	case <-t.done:
		return t.err
	case <-ctx.Done():
		return fmt.Errorf("executor: %s %s: %w", t.op, t.name, ctx.Err())
	}
}

// Err returns the operation's error, or nil while it is still in flight.
// Prefer Wait unless polling.
func (t *Ticket) Err() error {
	select {
	case <-t.done:
		return t.err
	default:
		return nil
	}
}

// asyncGate is the executor's one bounded in-flight window. Slots are
// acquired at submission time in the caller's goroutine — a full window
// blocks the submitter, which is the backpressure the pipeline promises —
// and released when the operation commits. The gauge, peak, and queue-depth
// instruments are updated under the gate's lock so their readings are
// consistent with the count.
type asyncGate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	max      int
	inflight int
	peak     int
	closed   bool
	ins      *instruments // the executor_async_* cells
}

func (g *asyncGate) init(max int, ins *instruments) {
	g.max, g.ins = max, ins
	g.cond = sync.NewCond(&g.mu)
}

// acquire takes one in-flight slot, blocking while the window is full
// (counted as a backpressure stall once a slot is granted). It fails with
// ErrClosed once the gate is closed, or with the context's error if ctx
// is done first — deadline-aware slot acquisition, so a submitter with a
// budget is not held hostage by a saturated window.
func (g *asyncGate) acquire(ctx context.Context) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	waited := false
	for g.inflight >= g.max && !g.closed {
		if err := ctx.Err(); err != nil {
			return err
		}
		waited = true
		g.waitCtx(ctx)
	}
	if g.closed {
		return ErrClosed
	}
	if waited {
		g.ins.asyncBackpressure.Inc()
	}
	g.inflight++
	if g.inflight > g.peak {
		g.peak = g.inflight
		g.ins.asyncPeak.Set(float64(g.peak))
	}
	g.ins.asyncInflight.Set(float64(g.inflight))
	g.ins.asyncDepth.Observe(float64(g.inflight))
	return nil
}

// waitCtx is cond.Wait with an additional wake-up when ctx is done. The
// caller holds g.mu. The wake-up takes g.mu before broadcasting: since Wait
// releases the lock atomically as it sleeps, a wake-up registered while the
// lock is held cannot broadcast before the waiter is actually waiting — no
// missed wake-up. It runs only once ctx is done, so a wait starts no
// goroutine of its own. The broadcast may rouse unrelated waiters; they
// re-check their condition and sleep again.
func (g *asyncGate) waitCtx(ctx context.Context) {
	stop := context.AfterFunc(ctx, func() {
		g.mu.Lock()
		g.mu.Unlock() //nolint:staticcheck // empty section: the lock cycle orders us after cond.Wait's release
		g.cond.Broadcast()
	})
	g.cond.Wait()
	stop()
}

// release returns one slot and wakes blocked submitters and drainers.
func (g *asyncGate) release() {
	g.mu.Lock()
	g.inflight--
	g.ins.asyncInflight.Set(float64(g.inflight))
	g.cond.Broadcast()
	g.mu.Unlock()
}

// drain blocks until no operation holds a slot.
func (g *asyncGate) drain() {
	g.mu.Lock()
	for g.inflight > 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// close refuses further acquires and wakes every waiter.
func (g *asyncGate) close() {
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// dispatch is the one asynchronous entry, every *Ctx call's: it claims op's
// runs in the caller's goroutine as the synchronous call does (misuse
// resolves the ticket at once), takes one slot of the bounded window — a
// full window blocks the submitter until a slot frees, ctx is done or the
// gate closes — and runs the synchronous call's loop (storeRuns or
// restoreRuns, shedding under ctx as Swap does) as one job on the compress
// package's persistent worker pool, resolving the ticket before the slot is
// released. A refused slot rolls every claimed run back to the state it was
// claimed from. Only a tensor prefetch joins, and a joined one has no run of
// its own: it hands back the ticket of the swap-in it joined.
func (p *BlockPool) dispatch(ctx context.Context, op string, req []BlockRun, requested int, doCompress bool, alg compress.Algorithm) *Ticket {
	e, t := p.e, newTicket(op, p.name)
	out := strings.HasSuffix(op, "swap-out")
	runs, from := req, Resident
	var joined []*Ticket
	var err error
	if out {
		err = p.claimOut(runs, requested, doCompress, alg)
	} else {
		runs, joined, err = p.claimIn(op, req, requested, t, nil)
		from = Swapped
	}
	switch {
	case err != nil:
		return t.complete(err)
	case len(runs) == 0 && len(joined) == 1:
		return joined[0]
	case len(runs) == 0:
		return t.complete(nil)
	}
	if err = e.gate.acquire(ctx); err != nil {
		p.settle(runs, from)
		return t.complete(fmt.Errorf("executor: %s %s: %w", op, p.name, err))
	}
	e.ins.asyncSubmitted(op).Inc()
	compress.Go(func() {
		if out {
			t.complete(p.storeRuns(ctx, op, runs, doCompress, alg))
		} else {
			t.complete(p.restoreRuns(ctx, op, runs, joined))
		}
		e.gate.release()
	})
	return t
}

// SwapOutAsyncCtx is SwapOut as a pipeline stage: it claims the tensor and
// returns a Ticket immediately (blocking only for an in-flight slot when the
// window is full). Misuse — the tensor busy, already swapped, or freed —
// resolves the ticket with the same error the synchronous call would return.
// If ctx is done before a slot frees up, the ticket resolves with the
// context's error and the tensor rolls back to Resident untouched. Once
// dispatched, the swap runs to completion whatever ctx does, unless a yield
// function on ctx fires at a run boundary (WithYield); use
// Ticket.WaitContext to bound the wait for the result. executor_batch_*
// does not count it.
func (e *Executor) SwapOutAsyncCtx(ctx context.Context, h *Handle, doCompress bool, alg compress.Algorithm) *Ticket {
	return h.pool.dispatch(ctx, "swap-out", whole, 0, doCompress, alg)
}

// SwapInAsyncCtx is SwapIn as a pipeline stage; see SwapOutAsyncCtx for the
// ticket and context semantics. Unlike SwapInBlocksCtx it refuses a Resident
// tensor with ErrNotSwapped.
func (e *Executor) SwapInAsyncCtx(ctx context.Context, h *Handle) *Ticket {
	return h.pool.dispatch(ctx, "swap-in", whole, 0, false, 0)
}

// PrefetchCtx requests that the tensor be resident ahead of its consumer —
// DELTA-style lookahead. It is an idempotent SwapInAsyncCtx: a Resident
// tensor completes immediately with nil; one already being swapped in
// *asynchronously* returns that operation's ticket (both callers await one
// restore); only a Swapped tensor issues new work. A tensor being swapped
// out, a freed one, or one held by a synchronous swap-in resolves with
// ErrBusy/ErrFreed like any other misuse. A tier-resident payload is staged
// back into the host pool first (read-ahead): even if the restore then
// fails on device pressure — common for speculative work — the disk fault
// has been paid and the eventual demand swap-in reads host memory.
func (e *Executor) PrefetchCtx(ctx context.Context, h *Handle) *Ticket {
	return h.pool.dispatch(ctx, "prefetch", whole, 0, false, 0)
}

// Drain blocks until every asynchronous operation in flight at any point
// during the call has completed and committed its blocks' state — every
// ticket the executor issues rides the one in-flight window, tier reads
// and inline demotions included, because they run inside the swap bodies
// that hold its slots. Synchronous calls (SwapOut, SwapIn, Demote,
// SwapOutBlocks, SwapInBlocks, Swap) and the watermark demoter are not
// waited for. It is a barrier, not a shutdown: submissions stay legal
// during and after a drain (a concurrent submitter can extend the wait).
// All tickets issued before Drain returns are resolved once it does.
func (e *Executor) Drain() { e.gate.drain() }

// InFlight returns the number of asynchronous operations holding a slot of
// the bounded window.
func (e *Executor) InFlight() int {
	e.gate.mu.Lock()
	defer e.gate.mu.Unlock()
	return e.gate.inflight
}

// Close shuts the executor's intake and waits for what is already running
// in the background: it stops the watermark demoter (waiting out its final
// sweep), closes the in-flight window and drains it, so every ticket ever
// issued is resolved and every slot returned when it returns. It does not
// wait for synchronous calls; a swap service waits out the swaps it runs
// with Swap before it closes the executor. Subsequent Register calls and
// async submissions fail with ErrClosed. Live handles and pools remain
// readable and may still be driven synchronously, wherever their payload
// lives — SwapOut, SwapIn (from the host pool or the disk tier), Demote,
// Free, SwapOutBlocks, SwapInBlocks and Swap take no slot of the closed
// window (swapping in an object you still hold is not new work). Close is
// idempotent.
func (e *Executor) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	// The watermark demoter stops first so no background demotion starts
	// once Close has returned.
	e.stopDemoter()
	e.gate.close()
	e.gate.drain()
	return nil
}
