package main

import (
	"bytes"
	"fmt"
	"runtime"
	"unsafe"

	"cswap/internal/sim"
	"cswap/internal/tensor"
)

const (
	kib = 1 << 10
	mib = 1 << 20
)

// spec is one benchmark workload: what runs, through which entry point, and
// why it is in the suite. Every workload is a closed loop — each caller waits
// for a reply before it issues the next request, as a training step walking
// its layers or a decode step moving its KV blocks does.
type spec struct {
	name string
	why  string

	// callers is the closed-loop caller count. The harness never runs more
	// callers than min(2, nproc) and never sets GOMAXPROCS.
	callers int
	// service routes calls through cswapd over loopback HTTP; otherwise the
	// callers drive the in-process executor.
	service bool

	// Tensor workloads: count, size and the sparsity cycle (tensor i gets
	// sparsity[i%len]). reverseIn swaps in in reverse layer order.
	tensors     int
	tensorBytes int
	sparsity    []float64
	reverseIn   bool

	// KV workloads: each caller owns a pool of blocks and replays a decode
	// trace against it.
	kv         *sim.KVTraceConfig
	blockElems int
	blockSpars float64

	device, host int64
	// tierCap > 0 attaches a disk spill tier of that capacity.
	tierCap int64

	// tailPct is the nominal tail percentile: the highest one that keeps
	// minBeyond samples beyond it at the benchmark's run length.
	tailPct float64
}

func (s *spec) blocks() int { return s.kv.Sequences * s.kv.BlocksPerSeq }

// workloads is the suite. Sizes are chosen so that each workload stresses
// different layers; bench/README.md has the full rationale.
var workloads = []*spec{
	{
		name:    "train-sweep",
		why:     "1 caller through cswapd, 12 x 8 MiB tensors out then in: payload-dominated service path (codec, wire, handler, HTTP copies)",
		callers: 1, service: true,
		tensors: 12, tensorBytes: 8 * mib, sparsity: []float64{0.2, 0.5, 0.8}, reverseIn: true,
		device: 512 * mib, host: 512 * mib, tailPct: 90,
	},
	{
		name:    "train-lib",
		why:     "the same 12 tensors through the in-process executor: codec, pool and verify at full strength; wire, server and client changes must not move it",
		callers: 1,
		tensors: 12, tensorBytes: 8 * mib, sparsity: []float64{0.2, 0.5, 0.8}, reverseIn: true,
		device: 512 * mib, host: 512 * mib, tailPct: 90,
	},
	{
		name:    "kv-decode",
		why:     "2 callers replay a paged-KV decode trace of 4 KiB blocks through cswapd: control-path dominated, the only workload that queues in sched",
		callers: 2, service: true,
		kv:         &sim.KVTraceConfig{Sequences: 32, BlocksPerSeq: 32, Steps: 256, EvictEvery: 2, ScatterPerStep: 6},
		blockElems: 4 * kib / 4, blockSpars: 0.5,
		device: 512 * mib, host: 512 * mib, tailPct: 99,
	},
	{
		name:    "tier-spill",
		why:     "1 caller through cswapd with an 8 MiB host pool and a disk tier, 64 x 1 MiB tensors: the only workload where demotion writes and promotion reads run",
		callers: 1, service: true,
		tensors: 64, tensorBytes: 1 * mib, sparsity: []float64{0.5},
		device: 512 * mib, host: 8 * mib, tierCap: 512 * mib, tailPct: 95,
	},
}

func findWorkload(name string) (*spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// effectiveCallers caps the caller count at min(2, nproc): load comes from
// this one process and must not oversubscribe the box it measures.
func (s *spec) effectiveCallers() int {
	n := s.callers
	if c := runtime.NumCPU(); n > c {
		n = c
	}
	return n
}

// inputs are a workload's seed-derived originals. The program under test only
// ever sees copies of these, never the seed; restored payloads are compared
// against them bit for bit.
type inputs struct {
	tensors [][]float32    // tensor workloads
	pools   [][]float32    // KV workloads: one pool image per caller
	traces  [][]sim.KVStep // KV workloads: one decode trace per caller
}

func genInputs(s *spec, seed int64) *inputs {
	in := &inputs{}
	if s.kv == nil {
		g := tensor.NewGenerator(seed)
		for i := 0; i < s.tensors; i++ {
			in.tensors = append(in.tensors, g.SizedUniform(s.tensorBytes, s.sparsity[i%len(s.sparsity)]).Data)
		}
		return in
	}
	for c := 0; c < s.effectiveCallers(); c++ {
		g := tensor.NewGenerator(seed + int64(c))
		in.pools = append(in.pools, g.Uniform(s.blocks()*s.blockElems, s.blockSpars).Data)
		cfg := *s.kv
		cfg.Seed = seed + int64(c)
		in.traces = append(in.traces, sim.GenKVTrace(cfg))
	}
	return in
}

// op is one swap call of a pass: a whole tensor, or a list of pool blocks.
type op struct {
	out  bool
	item int   // tensor index
	ids  []int // block IDs
}

// tensorName is the registration name of tensor i; poolName names a caller's
// block pool. Callers are separated by tenant, not by name.
func tensorName(i int) string { return fmt.Sprintf("layer%02d/act", i) }

const poolName = "kv"

// passOps lists one pass of caller c: for tensors, swap out all in layer
// order then swap in all (reversed for the training sweep); for KV, each
// decode step's evictions followed by its restores.
func passOps(s *spec, in *inputs, c int) []op {
	var ops []op
	if s.kv == nil {
		n := len(in.tensors)
		for i := 0; i < n; i++ {
			ops = append(ops, op{out: true, item: i})
		}
		for i := 0; i < n; i++ {
			j := i
			if s.reverseIn {
				j = n - 1 - i
			}
			ops = append(ops, op{item: j})
		}
		return ops
	}
	for _, st := range in.traces[c] {
		if len(st.Out) > 0 {
			ops = append(ops, op{out: true, ids: st.Out})
		}
		if len(st.In) > 0 {
			ops = append(ops, op{ids: st.In})
		}
	}
	return ops
}

// rawBytes is the uncompressed payload an op addresses.
func (s *spec) rawBytes(in *inputs, o op) int64 {
	if s.kv == nil {
		return int64(len(in.tensors[o.item])) * 4
	}
	return int64(len(o.ids)) * int64(s.blockElems) * 4
}

// zeroShare is the measured zero fraction of data — what the service keys its
// Auto codec choice off, so the in-process workload resolves the same codec.
func zeroShare(data []float32) float64 {
	if len(data) == 0 {
		return 1
	}
	zeros := 0
	for _, v := range data {
		if v == 0 {
			zeros++
		}
	}
	return float64(zeros) / float64(len(data))
}

// bitsEqual compares two float32 slices bit for bit (NaN payloads and signed
// zeros included), which == on floats would not.
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	ab := unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), len(a)*4)
	bb := unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), len(b)*4)
	return bytes.Equal(ab, bb)
}
