package swap

import (
	"fmt"
	"math"

	"cswap/internal/dnn"
	"cswap/internal/gpu"
	"cswap/internal/metrics"
	"cswap/internal/pcie"
	"cswap/internal/profiler"
	"cswap/internal/sim"
	"cswap/internal/stats"
	"cswap/internal/trace"
)

// Options control a simulated iteration.
type Options struct {
	// Seed drives the jitter stream; runs are deterministic per seed.
	Seed int64
	// Jitter is the log-normal σ applied to every job duration (kernel
	// timing and DMA variance); 0 disables noise entirely.
	Jitter float64
	// Trace, when non-nil, records every job as a span (Figure 2-style
	// execution-flow timelines).
	Trace *trace.Timeline
	// Interference is the fraction of each compression kernel's duration
	// charged to the compute stream: software (de)compression occupies
	// SMs the DNN kernels would otherwise use — the contention cDMA's
	// dedicated hardware units exist to avoid. 0 disables the effect;
	// DefaultInterference is the calibrated default.
	Interference float64
	// PipelinedCodec is an ablation switch: instead of the paper's
	// one-tensor-at-a-time swap pipeline (Fig. 2(b): kernel in-line with
	// its DMA), compression kernels run on their own stream and overlap
	// *other* tensors' transfers — double-buffered swapping. It mostly
	// benefits blind always-compress schemes, whose kernel time then
	// hides behind the saturated link.
	PipelinedCodec bool
	// EagerPrefetch issues every prefetch as soon as the backward pass
	// begins instead of one region ahead of its consumer; the h2d engine
	// still drains them in order, so deep prefetching can start earlier
	// when backward compute stalls. It is never slower than the default
	// one-ahead policy.
	EagerPrefetch bool
	// Observer, when non-nil, receives the iteration's metrics: per-stream
	// busy time, exposed-stall histograms, and per-codec decision counts.
	// Nil costs nothing.
	Observer *metrics.Observer
}

// DefaultInterference is the default SM-contention charge for software
// compression kernels (fraction of kernel time added to the compute
// stream).
const DefaultInterference = 0.10

// DefaultOptions returns the standard simulation configuration used by the
// experiments: 1 % duration jitter and the default kernel interference.
func DefaultOptions(seed int64) Options {
	return Options{Seed: seed, Jitter: 0.01, Interference: DefaultInterference}
}

// TensorTiming reports the simulated swap activity of one tensor.
type TensorTiming struct {
	Name string
	// OffloadDur and PrefetchDur are the DMA-engine occupancy times.
	OffloadDur, PrefetchDur float64
	// CompDur and DecompDur are the kernel-stream occupancy times.
	CompDur, DecompDur float64
	// ExposedF and ExposedB are the stalls this tensor's swap inflicted on
	// the forward and backward passes (the measured Eq. 1/2 quantities).
	ExposedF, ExposedB float64
}

// Result summarises one simulated training iteration.
type Result struct {
	Framework     string
	IterationTime float64
	ForwardTime   float64
	// ComputeBusy is the compute-stream occupancy (pure DNN math).
	ComputeBusy float64
	// KernelBusy is the compression-stream occupancy.
	KernelBusy float64
	// D2HBusy and H2DBusy are DMA occupancies.
	D2HBusy, H2DBusy float64
	// SwapExposed is the total un-hidden swap latency (Σ exposed stalls).
	SwapExposed float64
	// Throughput is training samples per second for the model's batch.
	Throughput float64
	Tensors    []TensorTiming
}

// Simulate runs one training iteration of the model under the plan on the
// device, returning emergent timing. Layer times come from the profile
// (mean values) with per-job jitter; transfers run on directional DMA
// engines at the link's effective bandwidth; compression kernels occupy a
// dedicated stream.
//
// Synchronisation follows the vDNN/Fig. 2 discipline: the offload of tensor
// k overlaps the compute between tensor k and tensor k+1, and compute may
// not run further ahead (the freed memory is needed); symmetrically, the
// prefetch of tensor k overlaps the backward compute of that same span and
// must complete before the backward pass crosses tensor k's layer.
func Simulate(m *dnn.Model, d *gpu.Device, np *profiler.NetworkProfile, plan *Plan, opt Options) (res *Result, err error) {
	if err := plan.Validate(np); err != nil {
		return nil, err
	}
	if len(np.Forward) != len(m.Layers) {
		return nil, fmt.Errorf("swap: profile has %d layers, model %d", len(np.Forward), len(m.Layers))
	}
	// The event engine panics on structurally impossible inputs (NaN or
	// negative durations from a corrupted profile); surface those as
	// errors — a bad profile must not crash the caller.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("swap: invalid simulation input: %v", r)
		}
	}()
	// Within Simulate the engine is single-threaded, so direct appends to
	// opt.Trace are safe; inverted spans would be simulator bugs, which is
	// exactly what Timeline.Add's panic (converted to an error by the
	// recover above) is reserved for.
	rng := stats.NewRNG(opt.Seed)
	jit := func(v float64) float64 {
		if opt.Jitter <= 0 || v == 0 {
			return v
		}
		return stats.LogNormalJitter(rng, v, opt.Jitter)
	}
	// span wraps a job-completion callback with optional trace recording.
	span := func(stream, label string, inner func(start, end float64)) func(float64, float64) {
		if opt.Trace == nil {
			return inner
		}
		return func(start, end float64) {
			opt.Trace.Add(stream, label, start, end)
			if inner != nil {
				inner(start, end)
			}
		}
	}

	eng := sim.NewEngine()
	computeRes := sim.NewResource(eng, "compute")
	d2hRes := sim.NewResource(eng, "d2h")
	h2dRes := sim.NewResource(eng, "h2d")
	var kernelRes *sim.Resource
	if opt.PipelinedCodec {
		kernelRes = sim.NewResource(eng, "kernel")
	}

	k := len(np.Tensors)
	// regions[r] = layer indices executed between tensor r−1 and tensor r
	// (region k is the tail after the last tensor).
	regions := make([][]int, k+1)
	prev := -1
	for r := 0; r < k; r++ {
		for i := prev + 1; i <= np.Tensors[r].LayerIdx; i++ {
			regions[r] = append(regions[r], i)
		}
		prev = np.Tensors[r].LayerIdx
	}
	for i := prev + 1; i < len(m.Layers); i++ {
		regions[k] = append(regions[k], i)
	}

	res = &Result{Framework: plan.Framework, Tensors: make([]TensorTiming, k)}
	for i := range res.Tensors {
		res.Tensors[i].Name = np.Tensors[i].Name
	}

	fwdRegionDone := make([]float64, k+1)
	bwdRegionDone := make([]float64, k+1)
	offloadDone := make([]float64, k)
	prefetchDone := make([]float64, k)

	transferTime := func(t profiler.TensorProfile, tp TensorPlan, dir pcie.Direction) float64 {
		bytes := int64(float64(t.Bytes) * tp.TransferRatio)
		base := d.Link.TransferTime(bytes, dir)
		if dir == pcie.DeviceToHost {
			return base + tp.HostC
		}
		return base + tp.HostDC
	}

	// --- Forward pass -----------------------------------------------------

	fwdBarrier := sim.NewBarrier(eng) // all compute regions + all offloads
	var startForwardRegion func(r int)
	fwdDeps := make([]int, k+2)
	for r := 1; r <= k; r++ {
		fwdDeps[r] = 1 // compute of region r−1
		if r >= 2 {
			fwdDeps[r]++ // offload of tensor r−2
		}
	}
	resolveFwd := func(r int) {
		if r > k {
			return
		}
		fwdDeps[r]--
		if fwdDeps[r] == 0 {
			startForwardRegion(r)
		}
	}
	// issueOffload submits tensor t's swap-out as one serial pipeline job:
	// compression kernel (when planned) immediately followed by the DMA
	// transfer, per the Figure 2(b) flow — only one tensor swaps at a
	// time, so a slow codec directly throttles the swap-out path.
	issueOffload := func(t int) {
		tp := plan.Tensors[t]
		name := np.Tensors[t].Name
		if tp.Skip {
			// Kept resident: the swap dependency is vacuously satisfied.
			eng.Schedule(0, func() {
				offloadDone[t] = eng.Now()
				fwdBarrier.Done()
				resolveFwd(t + 2)
			})
			return
		}
		var c float64
		if tp.Compress {
			c = jit(tp.TimeC)
			res.Tensors[t].CompDur = c
			if opt.Interference > 0 {
				computeRes.Submit(opt.Interference*c, span("compute", "i:"+name, nil))
			}
		}
		dur := jit(transferTime(np.Tensors[t], tp, pcie.DeviceToHost))
		res.Tensors[t].OffloadDur = dur
		finish := func(_, end float64) {
			offloadDone[t] = end
			fwdBarrier.Done()
			resolveFwd(t + 2)
		}
		if opt.PipelinedCodec && c > 0 {
			// Ablation: the kernel runs on its own stream and only this
			// tensor's DMA waits for it; other transfers proceed.
			kernelRes.Submit(c, span("kernel", "C:"+name, func(_, _ float64) {
				d2hRes.Submit(dur, span("d2h", "o:"+name, finish))
			}))
			return
		}
		d2hRes.Submit(c+dur, func(start, end float64) {
			if opt.Trace != nil {
				if c > 0 {
					opt.Trace.Add("d2h", "C:"+name, start, start+c)
				}
				opt.Trace.Add("d2h", "o:"+name, start+c, end)
			}
			finish(start, end)
		})
	}
	startForwardRegion = func(r int) {
		onComputeDone := func(_, end float64) {
			fwdRegionDone[r] = end
			fwdBarrier.Done()
			if r < k {
				issueOffload(r)
			}
			resolveFwd(r + 1)
		}
		if len(regions[r]) == 0 {
			eng.Schedule(0, func() { onComputeDone(eng.Now(), eng.Now()) })
			return
		}
		for j, li := range regions[r] {
			dur := jit(np.Forward[li])
			var done func(float64, float64)
			if j == len(regions[r])-1 {
				done = onComputeDone
			}
			computeRes.Submit(dur, span("compute", "F:"+m.Layers[li].Name, done))
		}
	}

	// --- Backward pass ----------------------------------------------------

	var startBackwardRegion func(r int)
	bwdDeps := make([]int, k+1)
	for r := 0; r < k; r++ {
		bwdDeps[r] = 2 // compute of bregion r+1, prefetch of tensor r
	}
	iterationEnd := sim.NewBarrier(eng)
	iterationEnd.Add() // bregion 0 compute
	resolveBwd := func(r int) {
		if r < 0 {
			return
		}
		bwdDeps[r]--
		if bwdDeps[r] == 0 {
			startBackwardRegion(r)
		}
	}
	// issuePrefetch mirrors issueOffload: the swap-in pipeline job is the
	// DMA transfer immediately followed by the decompression kernel.
	issuePrefetch := func(t int) {
		tp := plan.Tensors[t]
		name := np.Tensors[t].Name
		if tp.Skip {
			eng.Schedule(0, func() {
				prefetchDone[t] = eng.Now()
				resolveBwd(t)
			})
			return
		}
		var dc float64
		if tp.Compress {
			dc = jit(tp.TimeDC)
			res.Tensors[t].DecompDur = dc
			if opt.Interference > 0 {
				computeRes.Submit(opt.Interference*dc, span("compute", "i:"+name, nil))
			}
		}
		dur := jit(transferTime(np.Tensors[t], tp, pcie.HostToDevice))
		res.Tensors[t].PrefetchDur = dur
		finish := func(_, end float64) {
			prefetchDone[t] = end
			resolveBwd(t)
		}
		if opt.PipelinedCodec && dc > 0 {
			h2dRes.Submit(dur, span("h2d", "p:"+name, func(_, _ float64) {
				kernelRes.Submit(dc, span("kernel", "D:"+name, finish))
			}))
			return
		}
		h2dRes.Submit(dur+dc, func(start, end float64) {
			if opt.Trace != nil {
				opt.Trace.Add("h2d", "p:"+name, start, start+dur)
				if dc > 0 {
					opt.Trace.Add("h2d", "D:"+name, start+dur, end)
				}
			}
			finish(start, end)
		})
	}
	startBackwardRegion = func(r int) {
		if opt.EagerPrefetch && r == k {
			// Queue every prefetch immediately; the serial h2d engine
			// preserves reverse-tensor order.
			for t := k - 1; t >= 0; t-- {
				issuePrefetch(t)
			}
		} else if !opt.EagerPrefetch && r-1 >= 0 {
			issuePrefetch(r - 1)
		}
		onComputeDone := func(_, end float64) {
			bwdRegionDone[r] = end
			if r == 0 {
				iterationEnd.Done()
			} else {
				resolveBwd(r - 1)
			}
		}
		if len(regions[r]) == 0 {
			eng.Schedule(0, func() { onComputeDone(eng.Now(), eng.Now()) })
			return
		}
		for j := len(regions[r]) - 1; j >= 0; j-- {
			dur := jit(np.Backward[regions[r][j]])
			var done func(float64, float64)
			if j == 0 {
				done = onComputeDone
			}
			computeRes.Submit(dur, span("compute", "B:"+m.Layers[regions[r][j]].Name, done))
		}
	}

	// Wire forward completion to backward start.
	for r := 0; r <= k; r++ {
		fwdBarrier.Add() // compute region r
	}
	for t := 0; t < k; t++ {
		fwdBarrier.Add() // offload t
	}
	fwdBarrier.Arm(func() {
		res.ForwardTime = eng.Now()
		startBackwardRegion(k)
	})
	var finalTime float64
	iterationEnd.Arm(func() { finalTime = eng.Now() })

	startForwardRegion(0)
	eng.Run()

	res.IterationTime = finalTime
	res.ComputeBusy = computeRes.BusyTotal()
	res.D2HBusy = d2hRes.BusyTotal()
	res.H2DBusy = h2dRes.BusyTotal()
	for t := 0; t < k; t++ {
		res.KernelBusy += res.Tensors[t].CompDur + res.Tensors[t].DecompDur
		ef := math.Max(0, offloadDone[t]-fwdRegionDone[t+1])
		eb := math.Max(0, prefetchDone[t]-bwdRegionDone[t+1])
		res.Tensors[t].ExposedF = ef
		res.Tensors[t].ExposedB = eb
		res.SwapExposed += ef + eb
	}
	if res.IterationTime > 0 {
		res.Throughput = float64(m.Batch) / res.IterationTime
	}
	res.record(opt.Observer, plan)
	return res, nil
}

// record publishes the iteration's emergent timing into the observer's
// registry: stream occupancies, exposed-stall distributions, and the
// plan's per-codec decision mix.
func (r *Result) record(o *metrics.Observer, plan *Plan) {
	reg := o.Reg()
	if reg == nil {
		return
	}
	reg.Counter("sim_iterations_total").Inc()
	reg.Counter("sim_stream_busy_seconds_total", metrics.L("stream", "compute")).Add(r.ComputeBusy)
	reg.Counter("sim_stream_busy_seconds_total", metrics.L("stream", "kernel")).Add(r.KernelBusy)
	reg.Counter("sim_stream_busy_seconds_total", metrics.L("stream", "d2h")).Add(r.D2HBusy)
	reg.Counter("sim_stream_busy_seconds_total", metrics.L("stream", "h2d")).Add(r.H2DBusy)
	reg.Counter("sim_exposed_seconds_total").Add(r.SwapExposed)
	reg.Histogram("sim_iteration_seconds").Observe(r.IterationTime)
	hf := reg.Histogram("sim_exposed_stall_seconds", metrics.L("pass", "forward"))
	hb := reg.Histogram("sim_exposed_stall_seconds", metrics.L("pass", "backward"))
	for i := range r.Tensors {
		hf.Observe(r.Tensors[i].ExposedF)
		hb.Observe(r.Tensors[i].ExposedB)
	}
	for _, tp := range plan.Tensors {
		switch {
		case tp.Skip:
			reg.Counter("sim_decisions_total", metrics.L("action", "skip"), metrics.L("codec", "none")).Inc()
		case tp.Compress:
			reg.Counter("sim_decisions_total", metrics.L("action", "compress"), metrics.L("codec", tp.Alg.String())).Inc()
		default:
			reg.Counter("sim_decisions_total", metrics.L("action", "raw"), metrics.L("codec", "none")).Inc()
		}
	}
	o.Emit("sim.iteration",
		"framework", r.Framework,
		"iteration_seconds", fmt.Sprintf("%g", r.IterationTime),
		"exposed_seconds", fmt.Sprintf("%g", r.SwapExposed))
}
