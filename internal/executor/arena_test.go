package executor

import (
	"testing"

	"cswap/internal/compress"
	"cswap/internal/metrics"
	"cswap/internal/tensor"
)

func TestArenaSizeClasses(t *testing.T) {
	a := newArena(metrics.NewRegistry(), 1<<20)
	// A miss then a hit within one class.
	b := a.get(1000)
	if cap(b) < 1000 || len(b) != 0 {
		t.Fatalf("get(1000): len %d cap %d", len(b), cap(b))
	}
	a.put(b)
	b2 := a.get(700) // same class: ceil(log2) = 10
	if cap(b2) < 700 {
		t.Fatalf("recycled buffer cap %d < 700", cap(b2))
	}
	if a.hits.Value() < 1 {
		t.Fatalf("hits = %v, want >= 1", a.hits.Value())
	}
	// Buffers outside the pooled classes are dropped, not filed.
	a.put(make([]byte, 8))
	a.put(nil)
	// get must honour any n even when unpoolable. An empty request draws
	// nothing put could take back, so it is not counted: gets and puts of a
	// freed payload balance whatever its size.
	gets := a.hits.Value() + a.misses.Value()
	if b := a.get(0); b == nil || len(b) != 0 {
		t.Fatalf("get(0) = %v", b)
	}
	if got := a.hits.Value() + a.misses.Value(); got != gets {
		t.Fatalf("get(0) counted as a draw: gets %v -> %v", gets, got)
	}
	// A non-power-of-two capacity files under the class it fully covers.
	odd := make([]byte, 0, 3000) // floor(log2) = 11, serves requests <= 2048
	a.put(odd)
	if got := a.get(2048); cap(got) < 2048 {
		t.Fatalf("class guarantee broken: cap %d < 2048", cap(got))
	}
}

// TestArenaReuseAcrossGoroutines pins that reuse does not depend on where
// a buffer was returned: a buffer put by one goroutine is the next get's
// on another, every time. A sync.Pool alone missed here whenever the two
// ran on different Ps, and the miss allocated a whole new buffer.
func TestArenaReuseAcrossGoroutines(t *testing.T) {
	a := newArena(metrics.NewRegistry(), 1<<20)
	buf := a.get(64 << 10)
	for i := 0; i < 200; i++ {
		done := make(chan struct{})
		go func() {
			a.put(buf)
			close(done)
		}()
		<-done
		got := make(chan []byte)
		go func() { got <- a.get(64 << 10) }()
		buf = <-got
	}
	if m := a.misses.Value(); m != 1 {
		t.Fatalf("arena misses = %v over 200 put/get pairs on fresh goroutines, want only the first get's", m)
	}
}

// TestArenaKeepBound pins the free lists' bound: idle capacity past keep
// goes to the overflow pool instead, and the lists serve gets first.
func TestArenaKeepBound(t *testing.T) {
	a := newArena(metrics.NewRegistry(), 3<<10)
	bufs := [][]byte{a.get(1 << 10), a.get(1 << 10), a.get(2 << 10)}
	for _, b := range bufs {
		a.put(b)
	}
	if a.idle != 2<<10 || len(a.free[4]) != 2 || len(a.free[5]) != 0 {
		t.Fatalf("idle %d, 1 KiB list %d, 2 KiB list %d: want the two 1 KiB buffers kept and the 2 KiB one past the bound", a.idle, len(a.free[4]), len(a.free[5]))
	}
	if puts := a.puts.Value(); puts != 3 {
		t.Fatalf("puts = %v, want 3 (an overflowed buffer is accepted too)", puts)
	}
	a.get(1 << 10)
	if a.idle != 1<<10 || len(a.free[4]) != 1 {
		t.Fatalf("idle %d, 1 KiB list %d after a get: want one 1 KiB buffer left", a.idle, len(a.free[4]))
	}
}

// TestArenaCountersSurfaceThroughObserver pins the PR's observability
// contract: the arena's hit/miss/put counters live in the Observer's
// registry, next to the swap counters.
func TestArenaCountersSurfaceThroughObserver(t *testing.T) {
	obs := metrics.NewObserver()
	e, err := New(Config{
		DeviceCapacity: 1 << 20,
		HostCapacity:   1 << 20,
		Launch:         compress.Launch{Grid: 4, Block: 64},
		Observer:       obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := tensor.NewGenerator(31)
	h, err := e.Register("t", gen.Uniform(4096, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.SwapOut(h, true, compress.ZVC); err != nil {
			t.Fatal(err)
		}
		if err := e.SwapIn(h); err != nil {
			t.Fatal(err)
		}
	}
	r := obs.Reg()
	hits := r.Counter("executor_arena_gets_total", metrics.L("outcome", "hit")).Value()
	misses := r.Counter("executor_arena_gets_total", metrics.L("outcome", "miss")).Value()
	puts := r.Counter("executor_arena_puts_total").Value()
	if misses < 1 {
		t.Fatalf("arena misses = %v, want >= 1 (first encode must miss)", misses)
	}
	if hits < 2 {
		t.Fatalf("arena hits = %v, want >= 2 (later encodes reuse the blob)", hits)
	}
	if puts < 3 {
		t.Fatalf("arena puts = %v, want >= 3 (every swap-in recycles its blob)", puts)
	}
}

// TestSwapInReusesRetainedBacking pins the retained-buffer decode: a swap
// round trip restores the tensor into the same float32 backing it was
// registered with — no new slice per swap-in.
func TestSwapInReusesRetainedBacking(t *testing.T) {
	e, err := New(Config{
		DeviceCapacity: 1 << 20,
		HostCapacity:   1 << 20,
		Launch:         compress.Launch{Grid: 4, Block: 64},
		Verify:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := tensor.NewGenerator(37)
	tn := gen.Uniform(2048, 0.5)
	backing := tn.Data
	want := append([]float32(nil), backing...)
	h, err := e.Register("t", tn)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []struct {
		compress bool
		alg      compress.Algorithm
	}{{true, compress.ZVC}, {true, compress.LZ4}, {false, 0}} {
		if err := e.SwapOut(h, alg.compress, alg.alg); err != nil {
			t.Fatal(err)
		}
		if err := e.SwapIn(h); err != nil {
			t.Fatal(err)
		}
		data, err := h.Data()
		if err != nil {
			t.Fatal(err)
		}
		if &data[0] != &backing[0] {
			t.Fatal("swap-in allocated a new backing slice instead of reusing the retained one")
		}
		for i := range want {
			if data[i] != want[i] {
				t.Fatalf("restored[%d] = %v, want %v", i, data[i], want[i])
			}
		}
	}
}

// TestSwapHotPathAllocationBudget is the executor-level allocation gate the
// per-codec budgets roll up into: a warm compressed round trip stays within
// a small fixed number of allocations, regardless of tensor size.
func TestSwapHotPathAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomises sync.Pool reuse; alloc counts are meaningless")
	}
	if testing.Short() {
		t.Skip("allocation counting is slow under -short")
	}
	e, err := New(Config{
		DeviceCapacity: 1 << 22,
		HostCapacity:   1 << 22,
		Launch:         compress.Launch{Grid: 16, Block: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := tensor.NewGenerator(41)
	h, err := e.Register("t", gen.Uniform(16384, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the arena and the devmem pools.
	for i := 0; i < 2; i++ {
		if err := e.SwapOut(h, true, compress.ZVC); err != nil {
			t.Fatal(err)
		}
		if err := e.SwapIn(h); err != nil {
			t.Fatal(err)
		}
	}
	const budget = 16 // fixed bookkeeping only; was ~53 with per-swap buffers
	got := testing.AllocsPerRun(20, func() {
		if err := e.SwapOut(h, true, compress.ZVC); err != nil {
			t.Fatal(err)
		}
		if err := e.SwapIn(h); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("warm swap round trip: %.1f allocs/op, budget %d", got, budget)
	}

	// The raw path beside it is two copies of the payload's byte view through
	// the same arena: warm, it allocates no buffer at all — only the two
	// pool blocks (device, host), whatever the tensor size. (A sync.Pool
	// put also boxed the slice header; the free lists take it unboxed.)
	rawTrip := func() {
		if err := e.SwapOut(h, false, 0); err != nil {
			t.Fatal(err)
		}
		if err := e.SwapIn(h); err != nil {
			t.Fatal(err)
		}
	}
	rawTrip() // warm the raw blob's size class
	if got := testing.AllocsPerRun(20, rawTrip); got > 2 {
		t.Errorf("warm raw round trip: %.1f allocs/op, want the 2 bookkeeping records", got)
	}
}
