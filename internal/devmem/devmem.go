// Package devmem provides the memory-accounting substrate of the swapping
// executor: fixed-capacity allocation pools standing in for GPU global
// memory and pinned host memory. (The buffers themselves are recycled by
// the executor's arena — the counterpart of the Torch memory pools the
// paper's prototype uses "to avoid using the expensive cudaMalloc() and
// cudaMallocHost() functions", Section V.)
package devmem

import (
	"errors"
	"fmt"
	"sync"
)

// ErrOutOfMemory reports that an allocation exceeds the pool's remaining
// capacity.
var ErrOutOfMemory = errors.New("devmem: out of memory")

// ErrDoubleFree reports freeing an already-freed block.
var ErrDoubleFree = errors.New("devmem: double free")

// Pool is a fixed-capacity accounting allocator. It tracks usage, never
// hands out more than its capacity, and records high-water statistics.
//
// A block may be marked as a cache (Block.Cache): a copy of bytes that live
// elsewhere too, kept only while nothing needs the room. Its bytes count
// against the capacity as before but are reported as Cached, not Used — as
// an operating system reports its page cache apart from used memory — and
// the pool's owner gives cached blocks up before anything else when an
// allocation finds no room.
type Pool struct {
	name     string
	capacity int64

	mu     sync.Mutex
	hook   func(n int64) error
	used   int64
	cached int64
	peak   int64
	allocs int64
	frees  int64
	fails  int64
}

// SetAllocHook installs a gate consulted by Alloc before capacity
// accounting: a non-nil return fails the allocation with that error (it
// counts as a failed alloc in Stats). This is the seam the fault injector
// uses to model transient allocator failures; passing nil removes the hook.
func (p *Pool) SetAllocHook(hook func(n int64) error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hook = hook
}

// NewPool creates a pool with the given byte capacity (> 0).
func NewPool(name string, capacity int64) *Pool {
	if capacity <= 0 {
		panic(fmt.Sprintf("devmem: non-positive capacity %d", capacity))
	}
	return &Pool{name: name, capacity: capacity}
}

// Block is one outstanding allocation.
type Block struct {
	pool *Pool
	size int64

	mu     sync.Mutex
	freed  bool
	cached bool
}

// Alloc reserves n bytes, failing with ErrOutOfMemory when the pool cannot
// hold them. Zero-byte allocations are legal and free.
func (p *Pool) Alloc(n int64) (*Block, error) {
	if n < 0 {
		return nil, fmt.Errorf("devmem: negative allocation %d", n)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.hook != nil {
		if err := p.hook(n); err != nil {
			p.fails++
			return nil, fmt.Errorf("%s pool: %w", p.name, err)
		}
	}
	if p.used+p.cached+n > p.capacity {
		p.fails++
		return nil, fmt.Errorf("%w: %s needs %d, %d of %d in use, %d cached",
			ErrOutOfMemory, p.name, n, p.used, p.capacity, p.cached)
	}
	p.use(n)
	p.allocs++
	return &Block{pool: p, size: n}, nil
}

// Size returns the block's byte size.
func (b *Block) Size() int64 { return b.size }

// Free releases the block back to its pool. Freeing twice returns
// ErrDoubleFree and leaves accounting untouched.
func (b *Block) Free() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.freed {
		return ErrDoubleFree
	}
	b.freed = true
	p := b.pool
	p.mu.Lock()
	if b.cached {
		p.cached -= b.size
	} else {
		p.used -= b.size
	}
	p.frees++
	p.mu.Unlock()
	return nil
}

// Cache marks the live block as a cache (see Pool), or with cached false as
// in use again, moving its bytes between the pool's Cached and Used counts.
// It allocates nothing and cannot fail: the bytes counted against the
// capacity all along.
func (b *Block) Cache(cached bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.freed || b.cached == cached {
		return
	}
	b.cached = cached
	p := b.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if cached {
		p.used -= b.size
		p.cached += b.size
	} else {
		p.cached -= b.size
		p.use(b.size)
	}
}

// use counts n more bytes in use. Caller holds p.mu.
func (p *Pool) use(n int64) {
	p.used += n
	p.peak = max(p.peak, p.used)
}

// Stats is a snapshot of pool accounting.
type Stats struct {
	Name         string
	Capacity     int64
	Used         int64
	Cached       int64
	Peak         int64
	Allocs       int64
	Frees        int64
	FailedAllocs int64
}

// Stats returns a snapshot.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Name: p.name, Capacity: p.capacity,
		Used: p.used, Cached: p.cached, Peak: p.peak,
		Allocs: p.allocs, Frees: p.frees, FailedAllocs: p.fails,
	}
}

// Available returns the bytes an allocation can take now: the capacity
// less the bytes in use and cached.
func (p *Pool) Available() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.capacity - p.used - p.cached
}

// Capacity returns the pool's byte capacity.
func (p *Pool) Capacity() int64 { return p.capacity }
