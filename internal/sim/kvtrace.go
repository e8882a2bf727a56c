package sim

// KV-cache decode-step traces: a deterministic generator for the block
// access pattern of paged-attention serving.
//
// The workload shape follows the paged KV-cache layout: each sequence
// owns a contiguous region of blocks, appended to as it decodes. When
// memory pressure evicts a sequence, its whole region swaps out — a
// sequential ID range, perfectly coalescible — and returns the same way
// when the scheduler resumes it. On top rides a fragmented tail: single
// blocks touched out of order (sampled sequences re-scored, beam
// candidates), which do not coalesce.

import (
	"math/rand"
)

// KVStep is one decode step's swap traffic: the block IDs leaving the
// device and the block IDs returning. IDs may repeat across steps (the
// same region swaps in and out over time), never within one list. A
// step's Out list issues before its In list — evictions free the device
// memory the restores need — and the generator keeps every step valid
// under that ordering: Out only ever lists resident blocks, In only
// blocks the step (or an earlier one) swapped out.
type KVStep struct {
	Out, In []int
}

// KVTraceConfig configures the generator. The zero value is not usable;
// see DefaultKVTrace.
type KVTraceConfig struct {
	// Sequences is the number of concurrent decode sequences; each owns a
	// contiguous region of BlocksPerSeq block IDs.
	Sequences    int
	BlocksPerSeq int
	// Steps is the number of decode steps to generate.
	Steps int
	// EvictEvery evicts one sequence's whole region every k steps (and
	// restores the previously evicted one). 0 disables eviction.
	EvictEvery int
	// ScatterPerStep adds this many fragmented single-block touches per
	// step: blocks of random live sequences swapped out and immediately
	// needed back — the non-coalescible tail.
	ScatterPerStep int
	Seed           int64
}

// DefaultKVTrace is a serving-shaped workload: 8 sequences of 16 blocks,
// 64 decode steps, one region eviction every 4 steps, 3 scattered
// touches per step.
func DefaultKVTrace() KVTraceConfig {
	return KVTraceConfig{
		Sequences: 8, BlocksPerSeq: 16, Steps: 64,
		EvictEvery: 4, ScatterPerStep: 3, Seed: 1,
	}
}

// GenKVTrace generates the deterministic decode-step trace for cfg: the
// same config always yields the same steps.
func GenKVTrace(cfg KVTraceConfig) []KVStep {
	rng := rand.New(rand.NewSource(cfg.Seed))
	region := func(seq int) []int {
		ids := make([]int, cfg.BlocksPerSeq)
		for i := range ids {
			ids[i] = seq*cfg.BlocksPerSeq + i
		}
		return ids
	}
	steps := make([]KVStep, cfg.Steps)
	evicted := -1 // sequence currently swapped out, if any
	for s := range steps {
		var st KVStep
		restoring := -1 // sequence returning this step: not resident until In lands
		if cfg.EvictEvery > 0 && s%cfg.EvictEvery == cfg.EvictEvery-1 {
			if evicted >= 0 {
				st.In = append(st.In, region(evicted)...)
				restoring = evicted
			}
			victim := rng.Intn(cfg.Sequences)
			for victim == evicted && cfg.Sequences > 1 {
				victim = rng.Intn(cfg.Sequences)
			}
			st.Out = append(st.Out, region(victim)...)
			evicted = victim
		}
		seen := map[int]bool{}
		for i := 0; i < cfg.ScatterPerStep; i++ {
			seq := rng.Intn(cfg.Sequences)
			// Scattered touches swap out before they swap back in, so they
			// must hit resident sequences: not the one leaving this step,
			// and not the one whose restore lands after the step's Outs.
			if seq == evicted || seq == restoring {
				continue
			}
			id := seq*cfg.BlocksPerSeq + rng.Intn(cfg.BlocksPerSeq)
			if seen[id] {
				continue
			}
			seen[id] = true
			st.Out = append(st.Out, id)
			st.In = append(st.In, id)
		}
		steps[s] = st
	}
	return steps
}
