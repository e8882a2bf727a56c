// Package core wires the CSWAP components into the runtime of Figure 4:
// the tensor profiler collects the network profile into the in-memory
// database, the Bayesian-optimization engine tunes the compression-kernel
// launch geometry before training starts, the offline-trained time model
// predicts (de)compression costs, and the execution advisor produces
// per-epoch compression plans for the swapping executor.
package core

import (
	"fmt"
	"math"
	"time"

	"cswap/internal/bayesopt"
	"cswap/internal/compress"
	"cswap/internal/costmodel"
	"cswap/internal/dnn"
	"cswap/internal/executor"
	"cswap/internal/faultinject"
	"cswap/internal/gpu"
	"cswap/internal/memdb"
	"cswap/internal/metrics"
	"cswap/internal/profiler"
	"cswap/internal/regress"
	"cswap/internal/sparsity"
	"cswap/internal/stats"
	"cswap/internal/swap"
)

// Config configures a CSWAP deployment for one (model, device) pair.
type Config struct {
	Model  *dnn.Model
	Device *gpu.Device
	// Epochs is the training length (default sparsity.DefaultEpochs).
	Epochs int
	// Seed drives every random component (BO design, predictor samples,
	// sparsity wobble, simulation jitter).
	Seed int64
	// SamplesPerAlg sizes the predictor training set (default 3000).
	SamplesPerAlg int
	// SkipTuning uses the device's expert-default launch instead of
	// running BO (ablation switch).
	SkipTuning bool
	// Observer, when non-nil, is threaded through every component the
	// deployment builds: the BO search, the execution advisor, the
	// executor, and each simulated iteration. Setup phases land as spans
	// on its "core" stream; iteration-level rollups land in its registry.
	// Nil disables all recording at ~zero cost.
	Observer *metrics.Observer
}

// Overheads reports the one-time and runtime costs of Section V-E.
type Overheads struct {
	// BOEvaluations and BOModeledSeconds describe the pre-training search:
	// evaluation count and the modeled GPU time spent executing probes.
	BOEvaluations    int
	BOModeledSeconds float64
	// PredictorTrainWall is the measured wall-clock of fitting the time
	// models (the paper's 21 ms claim scales with host speed).
	PredictorTrainWall time.Duration
	// SampleGenWall is the measured wall-clock of generating the training
	// samples.
	SampleGenWall time.Duration
}

// Framework is a ready-to-run CSWAP deployment.
type Framework struct {
	Config    Config
	DB        *memdb.DB
	Launch    compress.Launch
	Predictor *regress.TimePredictor
	Sparsity  *sparsity.Profile
	Profile   *profiler.NetworkProfile
	Overhead  Overheads

	planner swap.CSWAP
}

// New builds a deployment: tunes the launch geometry (Algorithm 1), trains
// the time predictor offline, and runs the first-iteration profiling pass.
func New(cfg Config) (*Framework, error) {
	if cfg.Model == nil || cfg.Device == nil {
		return nil, fmt.Errorf("core: Model and Device are required")
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = sparsity.DefaultEpochs
	}
	f := &Framework{Config: cfg, DB: memdb.New()}

	// Setup phases are timed against one wall-clock origin so they appear
	// in order on the observer's "core" trace stream.
	setupStart := time.Now()
	phase := func(label string, began time.Time) {
		cfg.Observer.Span("core", label,
			began.Sub(setupStart).Seconds(), time.Since(setupStart).Seconds())
	}

	// 1. Pre-training BO search over (grid, block) on the calibration
	// workload (500 MB @ 50 % ZVC), measuring noisy kernel executions.
	tuneStart := time.Now()
	if cfg.SkipTuning {
		f.Launch = cfg.Device.DefaultLaunch()
	} else {
		rng := stats.NewRNG(cfg.Seed + 1)
		objective := func(l compress.Launch) float64 {
			c, dc := cfg.Device.CompressionTimeNoisy(rng, gpu.KernelParams{
				Alg:       compress.ZVC,
				SizeBytes: 500 << 20,
				Sparsity:  0.5,
				Launch:    l,
			})
			return c + dc
		}
		res := (&bayesopt.BO{Seed: cfg.Seed, Observer: cfg.Observer}).Search(objective)
		f.Launch = res.Best
		f.Overhead.BOEvaluations = res.Evaluations
		for _, ob := range res.History {
			f.Overhead.BOModeledSeconds += ob.Value
		}
	}
	phase("tune", tuneStart)

	// 2. Offline (de)compression-time model.
	samples := cfg.SamplesPerAlg
	if samples <= 0 {
		samples = regress.DefaultSamples
	}
	genStart := time.Now()
	tp, err := regress.TrainTimePredictor(cfg.Device, f.Launch, samples, cfg.Seed+2)
	if err != nil {
		return nil, fmt.Errorf("core: train time predictor: %w", err)
	}
	f.Overhead.PredictorTrainWall = time.Since(genStart)
	f.Overhead.SampleGenWall = f.Overhead.PredictorTrainWall // generation dominates fitting
	f.Predictor = tp
	if err := tp.Store(f.DB); err != nil {
		return nil, fmt.Errorf("core: store time model: %w", err)
	}
	phase("train-predictor", genStart)

	// 3. First-iteration profile, with hidden windows refined by the
	// compression-free measurement pass (Table II's "overlapped swapping
	// latency").
	profStart := time.Now()
	f.Sparsity = sparsity.ForModel(cfg.Model, cfg.Epochs, cfg.Seed+3)
	f.Profile = profiler.Collect(cfg.Model, cfg.Device, f.Sparsity, 0)
	if err := swap.MeasureHiddenWindows(cfg.Model, cfg.Device, f.Profile); err != nil {
		return nil, fmt.Errorf("core: measure hidden windows: %w", err)
	}
	if err := f.Profile.Store(f.DB); err != nil {
		return nil, fmt.Errorf("core: store profile: %w", err)
	}
	phase("profile", profStart)

	f.planner = swap.CSWAP{Predictor: tp, Launch: f.Launch, Observer: cfg.Observer}
	return f, nil
}

// Planner exposes the configured CSWAP framework (e.g. to build the Orac
// upper bound sharing its decisions).
func (f *Framework) Planner() swap.CSWAP { return f.planner }

// NewExecutor builds a functional swapping executor for the deployment:
// pools sized for the model at scaleDiv, the BO-tuned launch geometry, and
// bit-exact verification on. faults optionally wires a fault injector into
// the data path (nil for none) — the executor degrades gracefully on
// injected codec or allocator failures instead of aborting training.
func (f *Framework) NewExecutor(scaleDiv int, faults *faultinject.Injector) (*executor.Executor, error) {
	return executor.New(executor.Config{
		DeviceCapacity: MinDeviceCapacity(f.Config.Model, scaleDiv),
		HostCapacity:   HostCapacityFor(f.Config.Model, scaleDiv),
		Launch:         f.Launch,
		Verify:         true,
		Faults:         faults,
		Observer:       f.Config.Observer,
	})
}

// ProfileAt refreshes the per-epoch sparsity measurement and persists the
// updated profile, returning it.
func (f *Framework) ProfileAt(epoch int) (*profiler.NetworkProfile, error) {
	f.Profile.RefreshSparsity(f.Sparsity, epoch)
	if err := f.Profile.Store(f.DB); err != nil {
		return nil, err
	}
	return f.Profile, nil
}

// PlanEpoch produces the swapping plan for one epoch.
func (f *Framework) PlanEpoch(epoch int) (*swap.Plan, error) {
	np, err := f.ProfileAt(epoch)
	if err != nil {
		return nil, err
	}
	return f.planner.Plan(np, f.Config.Device), nil
}

// DecisionsAt returns the advisor's verdicts and chosen algorithms for one
// epoch, plus the tensor names (the Figure 9 dot-matrix row labels).
func (f *Framework) DecisionsAt(epoch int) ([]costmodel.Decision, []compress.Algorithm, []string, error) {
	np, err := f.ProfileAt(epoch)
	if err != nil {
		return nil, nil, nil, err
	}
	decs, algs := f.planner.Decisions(np)
	names := make([]string, len(np.Tensors))
	for i, t := range np.Tensors {
		names[i] = t.Name
	}
	return decs, algs, names, nil
}

// CompressedLayerCount returns how many layers the advisor compresses at an
// epoch — the Figure 8 series.
func (f *Framework) CompressedLayerCount(epoch int) (int, error) {
	plan, err := f.PlanEpoch(epoch)
	if err != nil {
		return 0, err
	}
	return plan.CompressedCount(), nil
}

// SimulateIteration runs one training iteration under the epoch's plan.
// The deployment's Observer (if any, and unless opt names its own) sees
// the run: per-stream metrics from the simulator plus iteration-level
// rollups (core_iterations_total, core_iteration_seconds,
// core_compressed_tensors_total, core_throughput_samples_per_second).
func (f *Framework) SimulateIteration(epoch int, opt swap.Options) (*swap.Result, error) {
	plan, err := f.PlanEpoch(epoch)
	if err != nil {
		return nil, err
	}
	if opt.Observer == nil {
		opt.Observer = f.Config.Observer
	}
	res, err := swap.Simulate(f.Config.Model, f.Config.Device, f.Profile, plan, opt)
	if err != nil {
		return nil, err
	}
	if reg := opt.Observer.Reg(); reg != nil {
		reg.Counter("core_iterations_total").Inc()
		reg.Counter("core_compressed_tensors_total").Add(float64(plan.CompressedCount()))
		reg.Histogram("core_iteration_seconds").Observe(res.IterationTime)
		reg.Gauge("core_throughput_samples_per_second").Set(res.Throughput)
	}
	return res, nil
}

// DecisionAccuracy measures Figure 11's metric over the training run: for
// every tensor at every epoch, the advisor's model-based verdict is
// compared against the measured ground truth at runtime. Ground truth for
// tensor i is obtained marginally: starting from the advisor's own plan,
// the tensor is forced compressed and forced raw in two jittered
// simulations, and the measured swap costs (exposed stall plus kernel time
// when compressed, exposed stall alone when raw) decide which side really
// was cheaper. A decision is correct when the advisor picked the measured
// winner.
func (f *Framework) DecisionAccuracy(jitter float64) (float64, error) {
	correct, total := 0, 0
	for epoch := 0; epoch < f.Config.Epochs; epoch++ {
		np, err := f.ProfileAt(epoch)
		if err != nil {
			return 0, err
		}
		decs, algs := f.planner.Decisions(np)
		basePlan := f.planner.Plan(np, f.Config.Device)
		opt := swap.Options{Seed: f.Config.Seed + int64(epoch)*97, Jitter: jitter}

		for i := range np.Tensors {
			planC := clonePlan(basePlan)
			c, dc := f.Config.Device.CompressionTime(gpu.KernelParams{
				Alg: algs[i], SizeBytes: np.Tensors[i].Bytes,
				Sparsity: np.Tensors[i].Sparsity, Launch: f.Launch,
			})
			planC.Tensors[i] = swap.TensorPlan{
				Compress: true, Alg: algs[i], TimeC: c, TimeDC: dc,
				TransferRatio: compress.EstimateRatio(algs[i], np.Tensors[i].Sparsity),
			}
			planN := clonePlan(basePlan)
			planN.Tensors[i] = swap.TensorPlan{TransferRatio: 1}

			simC, err := swap.Simulate(f.Config.Model, f.Config.Device, np, planC, opt)
			if err != nil {
				return 0, err
			}
			simN, err := swap.Simulate(f.Config.Model, f.Config.Device, np, planN, opt)
			if err != nil {
				return 0, err
			}
			// The measured decision applies the same Eq. 2 rule with
			// measured quantities: measured kernel durations plus the
			// measured exposed transfer portions. The pipeline exposure
			// includes the in-line kernel, so the transfer-only exposed
			// parts are the exposures minus the kernel durations,
			// floored at zero (Eq. 3/4's max).
			cT := simC.Tensors[i]
			tMeas := cT.CompDur + cT.DecompDur +
				math.Max(cT.ExposedF-cT.CompDur, 0) +
				math.Max(cT.ExposedB-cT.DecompDur, 0)
			tPrimeMeas := simN.Tensors[i].ExposedF + simN.Tensors[i].ExposedB
			if (tPrimeMeas > tMeas) == decs[i].Compress {
				correct++
			}
			total++
			// Feed predicted-vs-realized cost back to the observer: the
			// advisor predicted Eq. 2's T when compressing and Eq. 1's T′
			// when not; the jittered simulation measured the same quantity.
			if decs[i].Compress {
				costmodel.RecordRealized(f.Config.Observer, decs[i].T, tMeas)
			} else {
				costmodel.RecordRealized(f.Config.Observer, decs[i].TPrime, tPrimeMeas)
			}
		}
	}
	if total == 0 {
		return 0, fmt.Errorf("core: no decisions to score")
	}
	return float64(correct) / float64(total), nil
}

func clonePlan(p *swap.Plan) *swap.Plan {
	cp := &swap.Plan{Framework: p.Framework, Tensors: append([]swap.TensorPlan(nil), p.Tensors...)}
	return cp
}
