package executor

import (
	"context"
	"fmt"
	"sync"

	"cswap/internal/compress"
	"cswap/internal/sched"
)

// This file is the asynchronous swap pipeline built on the guarded block
// state machine: a pool's SwapOutCtx / SwapInCtx / PrefetchCtx (which the
// Executor's SwapOutAsyncCtx / SwapInAsyncCtx / PrefetchCtx forward to for a
// Handle) and its *BlocksCtx batches claim their blocks synchronously (so
// misuse surfaces immediately as a failed Ticket), take one slot of a
// bounded in-flight window per run (backpressure: submission blocks while
// the window is full), and run the codec + pool work on the compress
// package's persistent worker pool. Drain is the completion barrier; Close
// drains and then refuses new work. The paper's premise — swap traffic
// overlapping compute (Fig. 2's execution flows, Eq. 1's hidden windows) —
// is exactly what this buys the caller: issue transfers ahead of the
// consumer, keep computing, and Wait only when the data is needed.

// Ticket is the awaitable future returned by the asynchronous swap API.
// A Ticket completes exactly once, after the operation has committed (or
// rolled back) its blocks' state; Wait and Done may be used from any
// number of goroutines.
type Ticket struct {
	op   string // "swap-out" | "swap-in" | "prefetch", "batch-" before each for a pool batch
	name string // tensor or pool name, for spans and errors
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

// Op returns which operation the ticket tracks ("swap-out", "swap-in",
// or "prefetch").
func (t *Ticket) Op() string { return t.op }

// asyncGate is the executor's one bounded in-flight window. Slots are
// acquired at submission time in the caller's goroutine — a full window
// blocks the submitter, which is the backpressure the pipeline promises —
// and released when the operation commits; a served request holds one for
// its whole swap (AcquireSlot). The gauge, peak, and queue-depth
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
// caller holds g.mu. The watcher goroutine takes g.mu before broadcasting:
// since Wait releases the lock atomically as it sleeps, a watcher started
// while the lock is held cannot broadcast before the waiter is actually
// waiting — no missed wake-up. The broadcast may rouse unrelated waiters;
// they re-check their condition and sleep again.
func (g *asyncGate) waitCtx(ctx context.Context) {
	done := ctx.Done()
	if done == nil {
		g.cond.Wait()
		return
	}
	stop := make(chan struct{})
	go func() {
		select {
		case <-done:
			g.mu.Lock()
			g.mu.Unlock() //nolint:staticcheck // empty section: the lock cycle orders us after cond.Wait's release
			g.cond.Broadcast()
		case <-stop:
		}
	}()
	g.cond.Wait()
	close(stop)
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

// dispatch is the one way work gets onto the async pipeline: each run of an
// asynchronous operation, a tensor's one run included. It takes one slot of
// the bounded window in the caller's goroutine (so a full window blocks the
// submitter until a slot frees, ctx is done or the gate closes), counts the
// submission, then runs body(arg) on the compress package's persistent
// worker pool, resolving t with its result before the slot is released. A
// refused slot is returned with nothing run and t unresolved: the caller
// rolls its claim back. arg rides beside body so that a per-run submission
// costs one closure, not two. With a timeline attached, the queue stage —
// submission to execution start — is recorded as an async-queue span; the
// body records its own swap-out/swap-in span after it.
func dispatch[A any](ctx context.Context, e *Executor, t *Ticket, body func(A) error, arg A) error {
	traced := e.obs != nil && e.obs.Trace != nil
	var tSubmit float64
	if traced {
		tSubmit = e.sinceEpoch()
	}
	if err := e.gate.acquire(ctx); err != nil {
		return err
	}
	e.ins.asyncSubmitted(t.op).Inc()
	compress.Go(func() {
		if traced {
			e.obs.Span("async-queue", t.op+":"+t.name, tSubmit, e.sinceEpoch())
		}
		t.complete(body(arg)) // body commits or rolls back the claim first
		e.gate.release()
	})
	return nil
}

// shedHint reports whether ctx carries a scheduling hint on a lane the
// admission scheduler wants shed right now. The caller records the actual
// preemption with shedPreempt — only when it really rolled work back.
func (e *Executor) shedHint(ctx context.Context) bool {
	if e.sched == nil {
		return false
	}
	h, ok := sched.HintFrom(ctx)
	return ok && e.sched.ShouldShed(h.Lane)
}

// shedPreempt records one shed event that rolled back n runs.
func (e *Executor) shedPreempt(n int) {
	e.sched.Preempted()
	e.ins.schedPreemptions.Inc()
	e.ins.schedShedRuns.Add(float64(n))
}

// SwapOutCtx is the tensor swap-out of the pool's block 0 — the whole of a
// one-block pool, a Handle's — as a pipeline stage: it claims the block and
// returns a Ticket immediately (blocking only for an in-flight slot when
// the window is full). Misuse — the block busy, already swapped, or the
// pool freed — resolves the ticket with the same error the synchronous
// call would return. If ctx is done before a slot in the bounded window
// frees up, the ticket resolves with the context's error and the block
// rolls back to Resident untouched. The context governs only the submission
// wait — once the operation is dispatched it runs to completion regardless
// of ctx (use Ticket.WaitContext to bound the wait for the result). Its
// ticket's op is "swap-out", and executor_batch_* does not count it.
func (p *BlockPool) SwapOutCtx(ctx context.Context, doCompress bool, alg compress.Algorithm) *Ticket {
	return p.swapOutCtx(ctx, "swap-out", whole, 0, doCompress, alg)
}

// SwapInCtx is the tensor swap-in of block 0 as a pipeline stage; see
// SwapOutCtx for the ticket and context semantics. Unlike SwapInBlocksCtx
// it refuses a Resident block with ErrNotSwapped.
func (p *BlockPool) SwapInCtx(ctx context.Context) *Ticket {
	return p.swapInCtx(ctx, "swap-in", whole, 0)
}

// PrefetchCtx requests that block 0 be resident ahead of its consumer —
// DELTA-style lookahead. It is an idempotent SwapInCtx: a Resident block
// completes immediately with nil; a block already being swapped in
// *asynchronously* returns that operation's ticket (both callers await one
// restore); only a Swapped block issues new work. A block being swapped
// out, a freed pool, or a block held by a synchronous swap-in resolves with
// ErrBusy/ErrFreed like any other misuse. A tier-resident payload is staged
// back into the host pool first (read-ahead): even if the restore then
// fails on device pressure — common for speculative work — the disk fault
// has been paid and the eventual demand swap-in reads host memory.
func (p *BlockPool) PrefetchCtx(ctx context.Context) *Ticket {
	return p.swapInCtx(ctx, "prefetch", whole, 0)
}

// SwapOutAsyncCtx is SwapOut as a pipeline stage: h.Pool().SwapOutCtx.
func (e *Executor) SwapOutAsyncCtx(ctx context.Context, h *Handle, doCompress bool, alg compress.Algorithm) *Ticket {
	return h.pool.SwapOutCtx(ctx, doCompress, alg)
}

// SwapInAsyncCtx is SwapIn as a pipeline stage: h.Pool().SwapInCtx.
func (e *Executor) SwapInAsyncCtx(ctx context.Context, h *Handle) *Ticket {
	return h.pool.SwapInCtx(ctx)
}

// PrefetchCtx requests that the tensor be resident ahead of its consumer:
// h.Pool().PrefetchCtx.
func (e *Executor) PrefetchCtx(ctx context.Context, h *Handle) *Ticket {
	return h.pool.PrefetchCtx(ctx)
}

// AcquireSlot takes one slot of the async window for work the caller runs
// itself — a swap service holds one for the whole of a request whose
// synchronous swap (BlockPool.Swap) runs in its handler — so that Drain and
// Close wait for that work as for a ticket. It blocks while the window is
// full, and fails with ErrClosed after Close or with ctx's error if ctx is
// done first. Each slot taken goes back with one ReleaseSlot.
func (e *Executor) AcquireSlot(ctx context.Context) error { return e.gate.acquire(ctx) }

// ReleaseSlot returns a slot AcquireSlot took.
func (e *Executor) ReleaseSlot() { e.gate.release() }

// Drain blocks until every asynchronous operation in flight at any point
// during the call has completed and committed its blocks' state — every
// ticket the executor issues rides the one in-flight window, tier reads
// and inline demotions included, because they run inside the swap bodies
// that hold its slots — and every slot AcquireSlot handed out has come
// back. Other synchronous calls (SwapOut, SwapIn, Demote, SwapOutBlocks,
// SwapInBlocks, Swap) and the watermark demoter are not waited for. It is a
// barrier, not a shutdown: submissions stay legal during and after a drain
// (a concurrent submitter can extend the wait). All tickets issued before
// Drain returns are resolved once it does.
func (e *Executor) Drain() { e.gate.drain() }

// InFlight returns the number of slots of the bounded window currently held:
// asynchronous operations and AcquireSlot holders.
func (e *Executor) InFlight() int {
	e.gate.mu.Lock()
	defer e.gate.mu.Unlock()
	return e.gate.inflight
}

// Close shuts the executor's intake and waits for what is already running:
// it stops the watermark demoter (waiting out its final sweep), closes the
// in-flight window and drains it, so every ticket ever issued is resolved
// and every slot returned when it returns. Subsequent Register calls, async
// submissions and AcquireSlot calls fail with ErrClosed. Live handles and
// pools remain readable and may still be driven synchronously, wherever
// their payload lives — SwapOut, SwapIn
// (from the host pool or the disk tier), Demote, Free, SwapOutBlocks and
// SwapInBlocks take no slot of the closed window (swapping in an object you
// still hold is not new work). Close is idempotent.
func (e *Executor) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	// The watermark demoter stops first so no background demotion starts
	// once Close has returned.
	e.stopWatermark()
	e.gate.close()
	e.gate.drain()
	return nil
}
