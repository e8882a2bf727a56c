// Package sched is the SLO-aware admission scheduler: a small-N
// priority-lane queue that decides which swap requests get the service's
// bounded concurrency slots, and in what order. It is the swap service's
// one admission window — the one place in the stack where *waiting* is
// allowed, so the wait has to be principled:
//
//   - Three lanes, strictly prioritized: LaneCritical (decode-blocking
//     swap-ins) ahead of LaneNormal (ordinary swaps) ahead of
//     LaneSpeculative (prefetch, read-ahead). A freed slot always goes to
//     the highest non-empty lane.
//   - Earliest-deadline-first within a lane: each request may carry a
//     deadline hint (from the wire frame's sched extension); among queued
//     requests of equal priority the tightest deadline runs first, and
//     requests without a deadline order behind all deadlined ones, FIFO.
//   - Bounded depth per lane: a full lane refuses immediately (ErrLaneFull
//     → the server's 429/Retry-After taxonomy) rather than queueing
//     unboundedly: refuse-or-bounded-queue, never a hidden unbounded
//     buffer. At depth zero nothing queues at all and the scheduler is the
//     plain refuse-don't-queue window — the server's default.
//   - Expiry: a queued request whose deadline passes is answered
//     (ErrExpired → 429 with code "expired") instead of occupying a slot
//     on work whose SLO is already lost.
//   - Starvation signal: ShouldShed reports whether speculative work
//     should yield because a critical request has been queued past the
//     starvation threshold. The server asks it at every run boundary of an
//     admitted speculative swap, through the executor's yield hook, to
//     shed the swap's remaining runs (DESIGN.md §16).
//   - Barrier: Close fails the queued waiters and refuses new ones without
//     blocking; Drain then waits until every admitted slot is released,
//     which is how the server waits out the swaps its handlers run.
//
// The scheduler is deliberately ignorant of HTTP, frames, and the
// executor: it hands out slots and errors and answers the starvation
// question; the server wires that answer into the executor.
package sched

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cswap/internal/metrics"
)

// Lane is a priority class. Lower values are higher priority; the wire
// protocol carries the lane as this byte value (see wire's sched
// extension), so the constants are part of the protocol surface.
type Lane uint8

const (
	// LaneCritical is for latency-SLO-bound work: decode-blocking
	// swap-ins whose stall is exposed to an end user.
	LaneCritical Lane = iota
	// LaneNormal is the default for swaps that carry no hint.
	LaneNormal
	// LaneSpeculative is for work that is useful but optional right now:
	// prefetch and read-ahead. It runs only when nothing above it waits,
	// and is the only lane the server sheds mid-batch.
	LaneSpeculative
	// NumLanes bounds the lane space; wire and flag parsing validate
	// against it.
	NumLanes = 3
)

// String returns the metric-label spelling of the lane.
func (l Lane) String() string {
	switch l {
	case LaneCritical:
		return "critical"
	case LaneNormal:
		return "normal"
	case LaneSpeculative:
		return "speculative"
	}
	return fmt.Sprintf("lane-%d", uint8(l))
}

// Valid reports whether l is one of the defined lanes.
func (l Lane) Valid() bool { return l < NumLanes }

// Defaults. DefaultLaneDepth bounds each lane's queue; DefaultStarveAfter
// is how long a critical request may sit queued before speculative work
// is asked to yield.
const (
	DefaultLaneDepth   = 64
	DefaultStarveAfter = 20 * time.Millisecond
)

// Sentinel errors. ErrExpired and ErrLaneFull are admission refusals (the
// server maps them onto its 429 taxonomy); ErrClosed means the scheduler
// is shutting down.
var (
	ErrExpired  = errors.New("sched: deadline expired while queued")
	ErrLaneFull = errors.New("sched: lane queue full")
	ErrClosed   = errors.New("sched: scheduler closed")
)

// Config configures a Scheduler.
type Config struct {
	// Slots is the number of concurrently admitted requests. Required,
	// > 0.
	Slots int
	// LaneDepth bounds each lane's queue; a zero entry takes
	// DefaultLaneDepth and a negative one means depth zero: the lane never
	// queues, and a request that finds no free slot gets ErrLaneFull at
	// once — the refuse-don't-queue window.
	LaneDepth [NumLanes]int
	// StarveAfter is the critical-lane queue age past which ShouldShed
	// tells speculative work to yield. Zero takes DefaultStarveAfter.
	StarveAfter time.Duration
	// Metrics receives the sched series; nil disables them. Prefix
	// prepends a component name ("server", "executor") so the series
	// land as e.g. server_sched_admits_total.
	Metrics *metrics.Registry
	Prefix  string
}

// waiter is one queued Acquire. grant is buffered so Release never blocks
// handing a slot to a waiter that is concurrently timing out; the
// index/grant handshake under the scheduler mutex decides who owns the
// slot (see abandon).
type waiter struct {
	lane     Lane
	deadline time.Time // zero = no deadline (orders after all deadlined)
	seq      uint64
	enqueued time.Time
	grant    chan struct{}
	err      error // written under mu before the grant send; nil = token carries a slot
	index    int   // heap index; -1 once popped or removed
}

// laneHeap orders waiters earliest-deadline-first; no-deadline waiters
// sort after every deadlined one, FIFO among themselves by sequence.
type laneHeap []*waiter

func (h laneHeap) Len() int { return len(h) }
func (h laneHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	switch {
	case a.deadline.IsZero() != b.deadline.IsZero():
		return !a.deadline.IsZero()
	case !a.deadline.IsZero() && !a.deadline.Equal(b.deadline):
		return a.deadline.Before(b.deadline)
	}
	return a.seq < b.seq
}
func (h laneHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *laneHeap) Push(x any) {
	w := x.(*waiter)
	w.index = len(*h)
	*h = append(*h, w)
}
func (h *laneHeap) Pop() any {
	old := *h
	w := old[len(old)-1]
	old[len(old)-1] = nil
	w.index = -1
	*h = old[:len(old)-1]
	return w
}

// instruments are the scheduler's metric cells; all nil-safe.
type instruments struct {
	depth    [NumLanes]*metrics.Gauge
	admits   [NumLanes]*metrics.Counter
	expiries [NumLanes]*metrics.Counter
	rejects  [NumLanes]*metrics.Counter
	preempts *metrics.Counter
	wait     [NumLanes]*metrics.Histogram
}

// Scheduler hands out admission slots by lane priority and deadline.
type Scheduler struct {
	mu     sync.Mutex
	idle   sync.Cond // on mu; broadcast when the last held slot is released
	slots  int
	free   int
	seq    uint64
	lanes  [NumLanes]laneHeap
	depth  [NumLanes]int
	starve time.Duration
	closed bool
	ins    instruments
}

// New builds a scheduler.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Slots <= 0 {
		return nil, fmt.Errorf("sched: Slots must be positive, got %d", cfg.Slots)
	}
	s := &Scheduler{slots: cfg.Slots, free: cfg.Slots, starve: cfg.StarveAfter}
	s.idle.L = &s.mu
	if s.starve <= 0 {
		s.starve = DefaultStarveAfter
	}
	for l := range s.depth {
		switch d := cfg.LaneDepth[l]; {
		case d > 0:
			s.depth[l] = d
		case d == 0:
			s.depth[l] = DefaultLaneDepth
		} // negative: the depth stays zero
	}
	name := func(suffix string) string {
		if cfg.Prefix == "" {
			return "sched_" + suffix
		}
		return cfg.Prefix + "_sched_" + suffix
	}
	r := cfg.Metrics // nil registry hands out nil (no-op) instruments
	for l := Lane(0); l < NumLanes; l++ {
		lab := metrics.L("lane", l.String())
		s.ins.depth[l] = r.Gauge(name("depth"), lab)
		s.ins.admits[l] = r.Counter(name("admits_total"), lab)
		s.ins.expiries[l] = r.Counter(name("expiries_total"), lab)
		s.ins.rejects[l] = r.Counter(name("rejects_total"), lab)
		s.ins.wait[l] = r.HistogramWith(name("queue_wait_seconds"), metrics.ExpBuckets(1e-5, 10, 8), lab)
	}
	s.ins.preempts = r.Counter(name("preemptions_total"))
	return s, nil
}

// Acquire claims one slot for lane, waiting in the lane's bounded queue if
// none is free. A zero deadline means none. It returns nil once the slot
// is owned (pair with Release), ErrLaneFull without queueing when the lane
// is at depth, ErrExpired when the deadline passes while queued (or had
// already passed on arrival), the context error if ctx ends first, and
// ErrClosed during shutdown.
func (s *Scheduler) Acquire(ctx context.Context, lane Lane, deadline time.Time) error {
	if !lane.Valid() {
		return fmt.Errorf("sched: invalid lane %d", uint8(lane))
	}
	now := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if !deadline.IsZero() && !deadline.After(now) {
		s.ins.expiries[lane].Inc()
		s.mu.Unlock()
		return ErrExpired
	}
	// Fast path: a free slot and nobody of this or higher priority
	// queued ahead (waiters below this lane keep waiting — priority is
	// strict, not fair).
	if s.free > 0 && !s.queuedThroughLocked(lane) {
		s.free--
		s.ins.admits[lane].Inc()
		s.ins.wait[lane].Observe(0)
		s.mu.Unlock()
		return nil
	}
	if len(s.lanes[lane]) >= s.depth[lane] {
		s.ins.rejects[lane].Inc()
		s.mu.Unlock()
		return ErrLaneFull
	}
	s.seq++
	w := &waiter{
		lane:     lane,
		deadline: deadline,
		seq:      s.seq,
		enqueued: now,
		grant:    make(chan struct{}, 1),
	}
	heap.Push(&s.lanes[lane], w)
	s.ins.depth[lane].Set(float64(len(s.lanes[lane])))
	s.mu.Unlock()

	var expire <-chan time.Time
	if !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		defer t.Stop()
		expire = t.C
	}
	select {
	case <-w.grant:
		// w.err is written under mu before the send, so the channel
		// receive orders this read after it.
		if w.err != nil {
			return w.err
		}
		s.ins.admits[lane].Inc()
		s.ins.wait[lane].Observe(time.Since(w.enqueued).Seconds())
		return nil
	case <-ctx.Done():
		return s.abandon(w, ctx.Err())
	case <-expire:
		return s.abandon(w, ErrExpired)
	}
}

// queuedThroughLocked reports whether any waiter is queued in lane or a
// higher-priority lane.
func (s *Scheduler) queuedThroughLocked(lane Lane) bool {
	for l := Lane(0); l <= lane; l++ {
		if len(s.lanes[l]) > 0 {
			return true
		}
	}
	return false
}

// abandon resolves a waiter that stopped waiting (context end or deadline
// expiry). If the waiter is still queued it is simply removed; if Release
// already granted it the slot (the index/grant race), the slot is passed
// on so it is not leaked.
func (s *Scheduler) abandon(w *waiter, cause error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if errors.Is(cause, ErrExpired) {
		s.ins.expiries[w.lane].Inc()
	}
	if w.index >= 0 {
		heap.Remove(&s.lanes[w.lane], w.index)
		s.ins.depth[w.lane].Set(float64(len(s.lanes[w.lane])))
		return cause
	}
	// Already popped: under mu, index == -1 implies the token is in the
	// channel (or Acquire consumed it and never got here). Reclaim it;
	// if it carried a slot, pass the slot on rather than leak it.
	select {
	case <-w.grant:
		if w.err == nil {
			s.releaseLocked()
		}
	default:
	}
	return cause
}

// Release returns a slot; the highest-priority queued waiter (EDF within
// its lane) is granted it, or the free count grows.
func (s *Scheduler) Release() {
	s.mu.Lock()
	s.releaseLocked()
	s.mu.Unlock()
}

func (s *Scheduler) releaseLocked() {
	for l := Lane(0); l < NumLanes; l++ {
		if len(s.lanes[l]) == 0 {
			continue
		}
		w := heap.Pop(&s.lanes[l]).(*waiter)
		s.ins.depth[l].Set(float64(len(s.lanes[l])))
		w.grant <- struct{}{}
		return
	}
	s.free++
	if s.free == s.slots {
		s.idle.Broadcast()
	}
}

// ShouldShed reports whether work admitted on lane should yield its
// remaining slot time: true only for LaneSpeculative, and only while some
// critical request has been queued longer than the starvation threshold.
// The server asks it between the runs of an admitted speculative swap.
func (s *Scheduler) ShouldShed(lane Lane) bool {
	if lane != LaneSpeculative {
		return false
	}
	cutoff := time.Now().Add(-s.starve)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, w := range s.lanes[LaneCritical] {
		if w.enqueued.Before(cutoff) {
			return true
		}
	}
	return false
}

// Preempted records that in-flight work was shed in favor of a starved
// critical request (the server calls it once per shed swap).
func (s *Scheduler) Preempted() { s.ins.preempts.Inc() }

// Depth returns how many requests are queued in lane (not counting
// admitted ones).
func (s *Scheduler) Depth(lane Lane) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !lane.Valid() {
		return 0
	}
	return len(s.lanes[lane])
}

// Held returns how many admitted slots are not yet released.
func (s *Scheduler) Held() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slots - s.free
}

// Drain blocks until every admitted slot has been released. After Close,
// which admits nothing more, it returns once the last holder's Release
// does; before Close, new admissions can extend the wait.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	for s.free < s.slots {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// Close fails all queued waiters with ErrClosed and makes further
// Acquires refuse. It does not wait: admitted slots may still Release
// afterwards, and Drain waits for them.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for l := Lane(0); l < NumLanes; l++ {
		for len(s.lanes[l]) > 0 {
			w := heap.Pop(&s.lanes[l]).(*waiter)
			w.err = ErrClosed
			w.grant <- struct{}{} // slot-less token: Acquire returns w.err
		}
		s.ins.depth[l].Set(0)
	}
}
