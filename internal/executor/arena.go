package executor

import (
	"math"
	"math/bits"
	"sync"

	"cswap/internal/metrics"
)

// arena is the executor's one buffer recycler: every byte buffer that flows
// through the swap hot path — compressed encode outputs, raw payload copies,
// tier promotion reads and fault-injected transfer copies — is drawn from it
// and returns to it. It is the memory-pool reuse the paper's prototype takes
// from Torch "to avoid using the expensive cudaMalloc() and cudaMallocHost()"
// (Section V).
//
// Buffers are size-classed by power-of-two capacity: get(n) draws from the
// class of ceil(log2(n)), and put files a buffer under floor(log2(cap)), so
// any buffer popped from a class satisfies every request routed to it —
// including blobs that grew past their original reservation.
//
// Ownership rule: a buffer leaves the arena at get and returns at exactly
// one recycle point, after the structure that held it (a stored run's blob,
// a transfer copy) has released it. Nothing may retain a view into a buffer
// across its put.
//
// Idle buffers wait in per-class free lists under one mutex, up to keep
// bytes of capacity (the host pool's size: what it could hold parked at
// once); past that they go to a per-class sync.Pool, which the garbage
// collector may empty. The lists make reuse depend only on the order of
// gets and puts: a sync.Pool alone keeps each P's last put in a slot other
// Ps cannot take, so a get that ran on the other P missed and allocated a
// whole new buffer — megabytes for an 8 MiB tensor's blob — at random.
type arena struct {
	mu   sync.Mutex
	free [arenaClassCount][][]byte
	// idle is the capacity the free lists hold, at most keep.
	idle, keep int
	overflow   [arenaClassCount]sync.Pool
	// hits/misses split gets by whether a pooled buffer was available;
	// puts counts buffers accepted back. Registered so the Observer's
	// registry exposes reuse effectiveness next to the swap counters.
	hits, misses, puts *metrics.Counter
}

const (
	arenaMinShift   = 6  // 64 B: smaller buffers are cheaper to allocate than to track
	arenaMaxShift   = 30 // 1 GiB: larger buffers would pin too much memory in the pool
	arenaClassCount = arenaMaxShift - arenaMinShift + 1
)

func newArena(r *metrics.Registry, keep int64) *arena {
	return &arena{
		keep:   int(min(keep, math.MaxInt)),
		hits:   r.Counter("executor_arena_gets_total", metrics.L("outcome", "hit")),
		misses: r.Counter("executor_arena_gets_total", metrics.L("outcome", "miss")),
		puts:   r.Counter("executor_arena_puts_total"),
	}
}

// arenaClass returns the size class index for a request or capacity of n
// bytes, and whether n is poolable at all.
func arenaClass(n int) (int, bool) {
	if n <= 0 {
		return 0, false
	}
	shift := bits.Len(uint(n - 1)) // ceil(log2(n))
	if shift < arenaMinShift {
		shift = arenaMinShift
	}
	if shift > arenaMaxShift {
		return 0, false
	}
	return shift - arenaMinShift, true
}

// get returns a zero-length buffer with capacity at least n. An empty
// request draws nothing (and is not counted): put would not take it back.
func (a *arena) get(n int) []byte {
	if n <= 0 {
		return []byte{}
	}
	class, ok := arenaClass(n)
	if !ok {
		a.misses.Inc()
		return make([]byte, 0, n)
	}
	a.mu.Lock()
	if l := a.free[class]; len(l) > 0 {
		b := l[len(l)-1]
		l[len(l)-1] = nil
		a.free[class] = l[:len(l)-1]
		a.idle -= cap(b)
		a.mu.Unlock()
		a.hits.Inc()
		return b
	}
	a.mu.Unlock()
	if p, _ := a.overflow[class].Get().(*[]byte); p != nil {
		a.hits.Inc()
		return (*p)[:0]
	}
	a.misses.Inc()
	return make([]byte, 0, 1<<(class+arenaMinShift))
}

// put recycles a buffer. Buffers whose capacity falls outside the pooled
// classes are dropped; a buffer is filed under the largest class its
// capacity fully covers so get's guarantee holds.
func (a *arena) put(b []byte) {
	c := cap(b)
	if c < 1<<arenaMinShift || c > 1<<arenaMaxShift {
		return
	}
	class := bits.Len(uint(c)) - 1 - arenaMinShift // floor(log2(cap))
	a.puts.Inc()
	a.mu.Lock()
	if a.idle+c <= a.keep {
		a.free[class] = append(a.free[class], b[:0])
		a.idle += c
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
	// The boxed header is declared in this branch, so only a buffer past
	// the lists' bound pays for it: put(nil) allocates nothing.
	buf := b[:0]
	a.overflow[class].Put(&buf)
}
