package sim

import "testing"

func TestGenKVTraceDeterministic(t *testing.T) {
	a := GenKVTrace(DefaultKVTrace())
	b := GenKVTrace(DefaultKVTrace())
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Out) != len(b[i].Out) || len(a[i].In) != len(b[i].In) {
			t.Fatalf("step %d differs between identical configs", i)
		}
		for j := range a[i].Out {
			if a[i].Out[j] != b[i].Out[j] {
				t.Fatalf("step %d out[%d]: %d vs %d", i, j, a[i].Out[j], b[i].Out[j])
			}
		}
	}
}

func TestCoalesceIDs(t *testing.T) {
	cases := []struct {
		ids         []int
		runs, total int
	}{
		{nil, 0, 0},
		{[]int{4}, 1, 1},
		{[]int{4, 5, 6}, 1, 3},
		{[]int{6, 4, 5, 5}, 1, 3},
		{[]int{0, 2, 3, 9}, 3, 4},
	}
	for _, c := range cases {
		runs, total := CoalesceIDs(c.ids)
		if runs != c.runs || total != c.total {
			t.Fatalf("CoalesceIDs(%v) = %d runs/%d blocks, want %d/%d",
				c.ids, runs, total, c.runs, c.total)
		}
	}
}

// TestKVTraceReplayable pins the ordering contract: replaying every step
// as Out-then-In against a strict residency state machine (swap-out of a
// swapped block is illegal, swap-in of a resident block is a no-op) must
// never hit an illegal transition — the property that lets a client
// replay the trace against the executor's block-pool state machine.
func TestKVTraceReplayable(t *testing.T) {
	for _, cfg := range []KVTraceConfig{
		DefaultKVTrace(),
		{Sequences: 2, BlocksPerSeq: 4, Steps: 200, EvictEvery: 1, ScatterPerStep: 8, Seed: 3},
		{Sequences: 16, BlocksPerSeq: 8, Steps: 100, EvictEvery: 2, ScatterPerStep: 5, Seed: 9},
	} {
		resident := map[int]bool{}
		for id := 0; id < cfg.Sequences*cfg.BlocksPerSeq; id++ {
			resident[id] = true
		}
		for s, st := range GenKVTrace(cfg) {
			for _, id := range st.Out {
				if !resident[id] {
					t.Fatalf("cfg %+v step %d: swap-out of non-resident block %d", cfg, s, id)
				}
				resident[id] = false
			}
			for _, id := range st.In {
				resident[id] = true
			}
		}
	}
}

// TestEvictionRegionsCoalesce pins the workload shape the layout exists
// for: a sequence's eviction is one sequential region, so its swap-out
// coalesces to a single run.
func TestEvictionRegionsCoalesce(t *testing.T) {
	cfg := DefaultKVTrace()
	cfg.ScatterPerStep = 0 // isolate eviction traffic
	for i, st := range GenKVTrace(cfg) {
		if len(st.Out) == 0 {
			continue
		}
		if runs, blocks := CoalesceIDs(st.Out); runs != 1 || blocks != cfg.BlocksPerSeq {
			t.Fatalf("step %d eviction coalesced to %d runs / %d blocks, want 1 / %d",
				i, runs, blocks, cfg.BlocksPerSeq)
		}
	}
}

// TestCoalescingWinsOnServingTrace is the scorer-level version of the
// batching acceptance criterion: on the default serving trace, with a
// control cost comparable to one small block's transfer time, coalescing
// must cut total link time by a wide margin.
func TestCoalescingWinsOnServingTrace(t *testing.T) {
	trace := GenKVTrace(DefaultKVTrace())
	lc := LinkCost{
		PerOpSeconds: 50e-6, // ~HTTP/admission/launch overhead per op
		BytesPerSec:  12e9,  // PCIe-ish
		BlockBytes:   16 << 10,
	}
	sc := ScoreKVTrace(trace, lc)
	if sc.Blocks == 0 || sc.Ops == 0 {
		t.Fatalf("empty score: %+v", sc)
	}
	if sc.Ops >= sc.Blocks {
		t.Fatalf("coalescing merged nothing: %d ops for %d blocks", sc.Ops, sc.Blocks)
	}
	if sp := sc.Speedup(); sp < 2 {
		t.Fatalf("coalescing speedup = %.2fx, want >= 2x on the serving trace", sp)
	}
	// Byte volume is identical both ways; only control cost differs.
	bytesSec := float64(sc.Blocks*lc.BlockBytes) / lc.BytesPerSec
	wantPerBlock := float64(sc.Blocks)*lc.PerOpSeconds + bytesSec
	if diff := sc.PerBlockSeconds - wantPerBlock; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("per-block cost %.9f, want %.9f", sc.PerBlockSeconds, wantPerBlock)
	}
}
