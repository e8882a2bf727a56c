package devmem

import (
	"errors"
	"sync"
	"testing"
)

func TestPoolAllocFreeAccounting(t *testing.T) {
	p := NewPool("dev", 1000)
	a, err := p.Alloc(400)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Alloc(600)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats().Used != 1000 {
		t.Fatalf("Used = %d", p.Stats().Used)
	}
	if _, err := p.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over-capacity alloc err = %v", err)
	}
	if err := a.Free(); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Used != 600 {
		t.Fatalf("Used after free = %d", p.Stats().Used)
	}
	st := p.Stats()
	if st.Peak != 1000 || st.Allocs != 2 || st.Frees != 1 || st.FailedAllocs != 1 {
		t.Fatalf("stats %+v", st)
	}
	if b.Size() != 600 {
		t.Fatalf("Size = %d", b.Size())
	}
}

func TestPoolDoubleFree(t *testing.T) {
	p := NewPool("dev", 100)
	a, _ := p.Alloc(50)
	if err := a.Free(); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free err = %v", err)
	}
	if p.Stats().Used != 0 {
		t.Fatal("double free corrupted accounting")
	}
}

func TestPoolRejectsNegativeAndBadCapacity(t *testing.T) {
	p := NewPool("dev", 100)
	if _, err := p.Alloc(-1); err == nil {
		t.Fatal("negative alloc accepted")
	}
	if _, err := p.Alloc(0); err != nil {
		t.Fatal("zero alloc should succeed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero capacity")
		}
	}()
	NewPool("bad", 0)
}

func TestPoolConcurrentAllocFree(t *testing.T) {
	p := NewPool("dev", 1<<20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b, err := p.Alloc(128)
				if err != nil {
					t.Error(err)
					return
				}
				if err := b.Free(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if p.Stats().Used != 0 {
		t.Fatalf("leaked %d bytes", p.Stats().Used)
	}
	if st := p.Stats(); st.Allocs != 4000 || st.Frees != 4000 {
		t.Fatalf("stats %+v", st)
	}
}

func TestAllocHookGatesAllocations(t *testing.T) {
	p := NewPool("hooked", 1<<20)
	boom := errors.New("boom")
	calls := 0
	p.SetAllocHook(func(n int64) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if _, err := p.Alloc(100); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Alloc(100); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want hook error", err)
	}
	// A hook rejection counts as a failed alloc and reserves nothing.
	st := p.Stats()
	if st.FailedAllocs != 1 || st.Used != 100 || st.Allocs != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Removing the hook restores normal behavior.
	p.SetAllocHook(nil)
	if _, err := p.Alloc(100); err != nil {
		t.Fatal(err)
	}
}

// TestCachedBlocks: a block marked as a cache moves its bytes from Used to
// Cached and back, counts against the capacity either way, and frees from
// whichever count holds it; Peak follows Used alone.
func TestCachedBlocks(t *testing.T) {
	p := NewPool("host", 1000)
	a, err := p.Alloc(600)
	if err != nil {
		t.Fatal(err)
	}
	a.Cache(true)
	a.Cache(true) // idempotent
	if st := p.Stats(); st.Used != 0 || st.Cached != 600 || p.Available() != 400 {
		t.Fatalf("cached block: %+v, available %d", st, p.Available())
	}
	if _, err := p.Alloc(401); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("alloc past the cached bytes: %v", err)
	}
	b, err := p.Alloc(400)
	if err != nil {
		t.Fatal(err)
	}
	a.Cache(false)
	if st := p.Stats(); st.Used != 1000 || st.Cached != 0 || st.Peak != 1000 {
		t.Fatalf("uncached block: %+v", st)
	}
	a.Cache(true)
	if err := a.Free(); err != nil {
		t.Fatal(err)
	}
	a.Cache(false) // a freed block stays out of the counts
	if err := b.Free(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Used != 0 || st.Cached != 0 || p.Available() != 1000 {
		t.Fatalf("after frees: %+v", st)
	}
}
