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
type Pool struct {
	name     string
	capacity int64

	mu     sync.Mutex
	hook   func(n int64) error
	used   int64
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

	mu    sync.Mutex
	freed bool
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
	if p.used+n > p.capacity {
		p.fails++
		return nil, fmt.Errorf("%w: %s needs %d, %d of %d in use",
			ErrOutOfMemory, p.name, n, p.used, p.capacity)
	}
	p.used += n
	if p.used > p.peak {
		p.peak = p.used
	}
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
	p.used -= b.size
	p.frees++
	p.mu.Unlock()
	return nil
}

// Stats is a snapshot of pool accounting.
type Stats struct {
	Name         string
	Capacity     int64
	Used         int64
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
		Used: p.used, Peak: p.peak,
		Allocs: p.allocs, Frees: p.frees, FailedAllocs: p.fails,
	}
}

// Used returns the bytes currently allocated.
func (p *Pool) Used() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.used
}

// Capacity returns the pool's byte capacity.
func (p *Pool) Capacity() int64 { return p.capacity }
