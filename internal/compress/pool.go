package compress

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file holds the package's two reuse mechanisms for the codec hot
// path: a persistent worker pool that replaces per-call goroutine churn,
// and a sync.Pool of byte scratch buffers for the codec that serialises
// through a raw little-endian byte image (LZ4).

// ---------------------------------------------------------------------------
// Persistent worker pool.
//
// ParallelEncode/ParallelDecode used to spawn and tear down a goroutine
// pool on every call — pure overhead on the hottest path in the repo, paid
// once per swap. The workers below start lazily on the first parallel call,
// are sized to GOMAXPROCS at that moment, and live for the process. Work
// is claimed with an atomic index counter rather than a channel of indices,
// so dispatch is one atomic add per chunk instead of a blocking goroutine
// handoff per chunk.

// parTask is one parallel (de)compression call: fn(i) for i in [0, jobs).
// Workers and the submitting goroutine race on next to claim indices; wg
// counts jobs still to finish, so the submitter waits on work done, never
// on a helper being dequeued.
//
// A helper may dequeue the task long after its call has returned, so a
// task is recycled (tasks) only once nobody holds it: refs counts the
// submitter and every helper request sent, and whoever lets go last puts
// the task back.
type parTask struct {
	fn   func(int)
	jobs int
	next atomic.Int64
	wg   sync.WaitGroup
	refs atomic.Int32
}

var tasks = sync.Pool{New: func() any { return new(parTask) }}

// newTask returns a task of fn over jobs held by refs parties.
func newTask(fn func(int), jobs int, refs int32) *parTask {
	t := tasks.Get().(*parTask)
	t.fn, t.jobs = fn, jobs
	t.next.Store(0)
	t.refs.Store(refs)
	t.wg.Add(jobs)
	return t
}

// release lets go of one hold on t; the last one recycles it.
func (t *parTask) release() {
	if t.refs.Add(-1) == 0 {
		t.fn = nil
		tasks.Put(t)
	}
}

// run claims and executes job indices until the task is exhausted. A
// helper that arrives after the last claim finds nothing and returns.
func (t *parTask) run() {
	for {
		i := t.next.Add(1) - 1
		if int(i) >= t.jobs {
			return
		}
		t.fn(int(i))
		t.wg.Done()
	}
}

var (
	poolOnce sync.Once
	poolCh   chan *parTask
	poolSize int // resident workers, fixed when the pool starts
)

// poolStart launches the persistent workers. Sized to GOMAXPROCS at first
// use: workerCount never asks for more host concurrency than that, so one
// resident worker per P is enough to saturate any call.
func poolStart() {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	poolSize = n
	poolCh = make(chan *parTask, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for t := range poolCh {
				t.run()
				t.release()
			}
		}()
	}
}

// runWorkers runs fn(i) for i in [0,jobs) with at most the given
// concurrency. The calling goroutine always participates and claims until
// no job is left, then waits for the jobs already claimed by helpers — jobs
// completed, not helpers dequeued. A helper slot that is shed (the buffered
// channel is full) or that no worker ever gets to (every worker is parked
// in a Go submission that is itself inside runWorkers) therefore costs
// parallelism only, never progress: whoever claimed a job is running it.
func runWorkers(jobs, workers int, fn func(int)) {
	if jobs == 0 {
		return
	}
	if workers <= 1 || jobs == 1 {
		for i := 0; i < jobs; i++ {
			fn(i)
		}
		return
	}
	poolOnce.Do(poolStart)
	t := newTask(fn, jobs, 1)
	// Never more helper requests than resident workers: GOMAXPROCS may have
	// grown since the pool started, and a request no worker exists for only
	// holds a channel slot that a Go submission may be blocked on.
	for h := 0; h < min(workers-1, poolSize); h++ {
		t.refs.Add(1)
		select {
		case poolCh <- t:
		default: // pool saturated; shed the helper slot
			t.refs.Add(-1)
		}
	}
	t.run()
	t.wg.Wait()
	t.release()
}

// Go schedules fn on the package's persistent worker pool, starting the
// pool on first use. Unlike the chunk helpers runWorkers dispatches, a Go
// submission is never shed: the send blocks until a worker (or channel
// slot) frees up, so the work is guaranteed to run. This is the seam the
// swapping executor's async pipeline shares the codec workers through —
// one resident pool serves both chunk-level parallelism and
// operation-level asynchrony, so async swaps never add goroutine churn.
//
// fn must not call Go (a worker blocked submitting to its own pool can
// deadlock a saturated pool). Calling runWorkers from fn is safe even when
// every resident worker is running such an fn: runWorkers waits for jobs
// completed, its caller claims every job no helper has, and a helper task
// nobody dequeues is a no-op — so no fn ever waits on a free worker.
func Go(fn func()) {
	poolOnce.Do(poolStart)
	poolCh <- newTask(func(int) { fn() }, 1, 1)
}

// ---------------------------------------------------------------------------
// Byte scratch pool.
//
// LZ4 operates on the tensor's raw little-endian bytes; its encode and
// decode paths need a 4·n-byte staging buffer that used to be a fresh
// allocation per call (per chunk, on the parallel path). The pool recycles
// them process-wide. Ownership rule: a scratch buffer is borrowed
// for the duration of one encode/decode call and must be returned before
// the call's result escapes — nothing in a returned blob or decoded tensor
// may alias scratch memory.

var byteScratch = sync.Pool{
	New: func() interface{} {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// getScratch borrows a byte buffer of length n.
func getScratch(n int) *[]byte {
	p := byteScratch.Get().(*[]byte)
	if cap(*p) < n {
		*p = make([]byte, n)
	}
	*p = (*p)[:n]
	return p
}

// putScratch returns a buffer borrowed with getScratch.
func putScratch(p *[]byte) { byteScratch.Put(p) }
