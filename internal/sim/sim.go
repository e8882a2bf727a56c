// Package sim is a minimal discrete-event simulation engine used to model
// the GPU execution timeline: compute stream, PCIe copy engines, and the
// compression stream run as serial FIFO resources over a shared virtual
// clock. The swapping frameworks (internal/swap) build their per-iteration
// timelines on top of it, so overlap and contention between computation,
// (de)compression, and transfers *emerge* from event ordering instead of
// being asserted analytically.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Engine is a discrete-event simulator. Time is in seconds. The zero value
// is not usable; construct with NewEngine.
type Engine struct {
	now    float64
	seq    int
	queue  eventHeap
	events int
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn at Now()+delay. A negative delay panics: events cannot
// be scheduled in the past.
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: invalid delay %v", delay))
	}
	e.seq++
	heap.Push(&e.queue, &event{time: e.now + delay, seq: e.seq, fn: fn})
}

// Run processes events until the queue is empty and returns the final
// virtual time.
func (e *Engine) Run() float64 {
	for e.queue.Len() > 0 {
		ev := heap.Pop(&e.queue).(*event)
		if ev.time < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.time
		e.events++
		ev.fn()
	}
	return e.now
}

type event struct {
	time float64
	seq  int // FIFO tiebreak for simultaneous events
	fn   func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Resource is a serial FIFO execution engine (a CUDA stream, a DMA copy
// engine). Work submitted to it runs back to back in submission order; a
// job submitted while the resource is busy queues until the in-flight work
// drains.
type Resource struct {
	Name string

	eng       *Engine
	busyUntil float64
	busyTotal float64
	jobs      int
}

// NewResource attaches a named serial resource to the engine.
func NewResource(eng *Engine, name string) *Resource {
	return &Resource{Name: name, eng: eng}
}

// Submit enqueues a job of the given duration. done, if non-nil, runs at
// the job's completion time and receives the job's [start, end] interval.
// Submit returns the scheduled completion time.
func (r *Resource) Submit(duration float64, done func(start, end float64)) float64 {
	if duration < 0 || math.IsNaN(duration) {
		panic(fmt.Sprintf("sim: resource %s got invalid duration %v", r.Name, duration))
	}
	start := r.eng.now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	end := start + duration
	r.busyUntil = end
	r.busyTotal += duration
	r.jobs++
	if done != nil {
		r.eng.Schedule(end-r.eng.now, func() { done(start, end) })
	}
	return end
}

// BusyTotal returns the cumulative busy seconds.
func (r *Resource) BusyTotal() float64 { return r.busyTotal }

// Barrier tracks a set of dependencies and fires a callback once all of
// them (and the arm call) have completed. It is the join primitive used to
// model stream synchronisation (cudaStreamSynchronize / events).
type Barrier struct {
	eng     *Engine
	pending int
	armed   bool
	fn      func()
}

// NewBarrier creates a barrier on the engine.
func NewBarrier(eng *Engine) *Barrier { return &Barrier{eng: eng} }

// Add registers one outstanding dependency.
func (b *Barrier) Add() { b.pending++ }

// Done resolves one dependency; when the barrier is armed and all
// dependencies resolved, the callback fires immediately (same virtual time).
func (b *Barrier) Done() {
	b.pending--
	if b.pending < 0 {
		panic("sim: barrier Done without Add")
	}
	b.maybeFire()
}

// Arm sets the completion callback; the barrier fires as soon as no
// dependencies remain (possibly immediately).
func (b *Barrier) Arm(fn func()) {
	if b.armed {
		panic("sim: barrier armed twice")
	}
	b.armed = true
	b.fn = fn
	b.maybeFire()
}

func (b *Barrier) maybeFire() {
	if b.armed && b.pending == 0 && b.fn != nil {
		fn := b.fn
		b.fn = nil
		// Schedule at zero delay to keep callback ordering FIFO.
		b.eng.Schedule(0, fn)
	}
}
