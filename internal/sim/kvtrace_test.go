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
