// Package cswap is a self-tuning tensor-compression framework for
// accelerating tensor swapping between GPU and host memory during DNN
// training — a from-scratch Go reproduction of "CSWAP: A Self-Tuning
// Compression Framework for Accelerating Tensor Swapping in GPUs"
// (IEEE CLUSTER 2021).
//
// The package is organised around three runtime components (Figure 4 of
// the paper):
//
//   - the tensor profiler collects tensor sizes, per-layer times, link
//     bandwidth, and per-epoch sparsity into an in-memory database;
//   - the execution advisor applies the swapping-cost model (Eq. 1–4) with
//     kernel times predicted by an offline-trained, sparsity-bucketed
//     linear-regression model, choosing per tensor whether and with which
//     codec (ZVC, RLE, CSR, LZ4) to compress;
//   - the swapping executor runs (de)compression on the GPU at a launch
//     geometry tuned by Bayesian optimization (Algorithm 1).
//
// Because this reproduction is hardware-free, GPUs, the PCIe link, and DNN
// training are provided as calibrated simulation substrates (see DESIGN.md),
// while the four compression codecs are real and operate on actual float32
// tensors.
//
// Quick start:
//
//	model, _ := cswap.BuildModel("VGG16", cswap.ImageNet, 128)
//	fw, _ := cswap.NewFramework(cswap.Config{Model: model, Device: cswap.V100(), Seed: 1})
//	result, _ := fw.SimulateIteration(10, cswap.NewSimOptions(cswap.WithSeed(1)))
//	fmt.Println(result.IterationTime, result.Throughput)
//
// Attach an Observer (Config.Observer, ExecutorConfig.Observer, or
// WithObserver) to record metrics, spans, and events from every layer; see
// the Observability section of DESIGN.md.
package cswap

import (
	"io"

	"cswap/internal/bayesopt"
	"cswap/internal/compress"
	"cswap/internal/core"
	"cswap/internal/costmodel"
	"cswap/internal/dnn"
	"cswap/internal/executor"
	"cswap/internal/faultinject"
	"cswap/internal/gpu"
	"cswap/internal/memdb"
	"cswap/internal/metrics"
	"cswap/internal/profiler"
	"cswap/internal/server"
	"cswap/internal/sim"
	"cswap/internal/sparsity"
	"cswap/internal/swap"
	"cswap/internal/tensor"
	"cswap/internal/trace"
)

// ---------------------------------------------------------------------------
// Devices and workloads.

type (
	// Device models one GPU (compute roofline, memory, PCIe link, and the
	// compression-kernel time surface).
	Device = gpu.Device
	// Model is a compiled DNN with inferred activation shapes.
	Model = dnn.Model
	// Dataset describes a training set's input geometry.
	Dataset = dnn.Dataset
	// SwapTensor identifies one swappable ReLU/MAX activation.
	SwapTensor = dnn.SwapTensor
	// NetworkProfile is the tensor profiler's output (Table II).
	NetworkProfile = profiler.NetworkProfile
)

// The two evaluated datasets.
var (
	CIFAR10  = dnn.CIFAR10
	ImageNet = dnn.ImageNet
)

// V100 returns the paper's first test GPU (Tesla V100 32 GB).
func V100() *Device { return gpu.V100() }

// RTX2080Ti returns the paper's second test GPU (RTX 2080Ti 11 GB).
func RTX2080Ti() *Device { return gpu.RTX2080Ti() }

// DeviceByName resolves "V100" or "2080Ti".
func DeviceByName(name string) (*Device, error) { return gpu.ByName(name) }

// KernelParams identifies one (de)compression kernel execution on a device.
type KernelParams = gpu.KernelParams

// CompressionKernelTime returns the device model's compression and
// decompression wall-clock for a tensor under a launch geometry — the
// Figure 5 surface.
func CompressionKernelTime(d *Device, a Algorithm, sizeBytes int64, sparsity float64, l Launch) (comp, decomp float64) {
	return d.CompressionTime(gpu.KernelParams{Alg: a, SizeBytes: sizeBytes, Sparsity: sparsity, Launch: l})
}

// ModelNames lists the six evaluated DNNs.
func ModelNames() []string { return dnn.ModelNames() }

// BuildModel constructs one of the six evaluated DNNs at a batch size.
func BuildModel(name string, ds Dataset, batch int) (*Model, error) {
	return dnn.Build(name, ds, batch)
}

// BatchSize returns the Table III batch size for (model, GPU, dataset); it
// returns dnn.ErrOutOfMemory for combinations that cannot train.
func BatchSize(model, gpuName string, ds Dataset) (int, error) {
	return dnn.BatchSize(model, gpuName, ds)
}

// ---------------------------------------------------------------------------
// Compression codecs.

type (
	// Algorithm identifies a compression algorithm.
	Algorithm = compress.Algorithm
	// Codec compresses and decompresses float32 tensors bit-exactly.
	Codec = compress.Codec
	// Launch is a GPU kernel launch geometry (grid, block).
	Launch = compress.Launch
	// Tensor is a dense float32 tensor.
	Tensor = tensor.Tensor
	// TensorGenerator produces synthetic sparse tensors.
	TensorGenerator = tensor.Generator
)

// The four supported algorithms (Section IV-E), plus the Huffman entropy
// coder implemented as the paper's future-work extension.
const (
	ZVC     = compress.ZVC
	RLE     = compress.RLE
	CSR     = compress.CSR
	LZ4     = compress.LZ4
	Huffman = compress.Huffman
)

// Algorithms lists the paper's four codecs.
func Algorithms() []Algorithm { return compress.Algorithms() }

// ExtendedAlgorithms lists the four plus the Huffman extension.
func ExtendedAlgorithms() []Algorithm { return compress.ExtendedAlgorithms() }

// NewCodec returns the codec for an algorithm.
func NewCodec(a Algorithm) (Codec, error) { return compress.New(a) }

// ParallelEncode compresses src partitioned across at most launch.Grid
// chunks of at least 16 Ki elements each (a smaller tensor is one chunk),
// the way the GPU kernels partition a tensor across thread blocks.
func ParallelEncode(a Algorithm, src []float32, launch Launch) ([]byte, error) {
	return compress.ParallelEncode(a, src, launch)
}

// ParallelDecode reverses ParallelEncode.
func ParallelDecode(blob []byte, launch Launch) ([]float32, error) {
	return compress.ParallelDecode(blob, launch)
}

// EstimateRatio predicts compressed/original size for a sparsity level.
func EstimateRatio(a Algorithm, sparsity float64) float64 {
	return compress.EstimateRatio(a, sparsity)
}

// Compression error taxonomy: ErrTruncated and ErrCorrupt are data-level
// failures a caller holding a pristine copy can retry (see
// RecoverableError); ErrAlgorithmMismatch is structural misuse.
var (
	ErrTruncated         = compress.ErrTruncated
	ErrCorrupt           = compress.ErrCorrupt
	ErrAlgorithmMismatch = compress.ErrAlgorithmMismatch
)

// ChunkError pins a parallel-container failure to the codec and chunk that
// produced it.
type ChunkError = compress.ChunkError

// RecoverableError reports whether a (de)compression error is a data-level
// failure worth retrying from a pristine copy of the blob.
func RecoverableError(err error) bool { return compress.Recoverable(err) }

// NewTensorGenerator returns a deterministic synthetic tensor source.
func NewTensorGenerator(seed int64) *TensorGenerator { return tensor.NewGenerator(seed) }

// ---------------------------------------------------------------------------
// KV-cache decode traces (paged block pools).

type (
	// KVStep is one decode step's batch swap traffic: the block IDs
	// leaving the device and the block IDs returning.
	KVStep = sim.KVStep
	// KVTraceConfig configures GenKVTrace; see DefaultKVTrace.
	KVTraceConfig = sim.KVTraceConfig
)

// DefaultKVTrace is a serving-shaped decode workload: contiguous
// per-sequence block regions, periodic whole-region evictions, and a
// fragmented single-block tail.
func DefaultKVTrace() KVTraceConfig { return sim.DefaultKVTrace() }

// GenKVTrace generates the deterministic decode-step trace for cfg: the
// same config always yields the same steps.
func GenKVTrace(cfg KVTraceConfig) []KVStep { return sim.GenKVTrace(cfg) }

// ---------------------------------------------------------------------------
// The CSWAP framework.

type (
	// Config configures a CSWAP deployment.
	Config = core.Config
	// Framework is a ready-to-run CSWAP deployment: tuned launch, trained
	// time predictor, collected profile, and the execution advisor.
	Framework = core.Framework
	// Decision is one advisor verdict with its Eq. 1/2 costs.
	Decision = costmodel.Decision
	// CostParams are the Table II inputs to the swapping-cost model.
	CostParams = costmodel.Params
)

// NewFramework tunes, trains, and profiles a CSWAP deployment.
func NewFramework(cfg Config) (*Framework, error) { return core.New(cfg) }

// DB is the in-memory profile/model database (Section IV-A).
type DB = memdb.DB

// NewDB returns an empty in-memory database.
func NewDB() *DB { return memdb.New() }

// ResumeFramework rebuilds a deployment from a previously populated
// database, skipping the BO search, sample generation, and profiling pass.
func ResumeFramework(db *DB, m *Model, d *Device, cfg Config) (*Framework, error) {
	return core.Resume(db, m, d, cfg)
}

// Decide applies the Section IV-B cost-effectiveness rule directly.
func Decide(p CostParams) Decision { return costmodel.Decide(p) }

// ---------------------------------------------------------------------------
// Swapping frameworks and the iteration simulator.

type (
	// SwapFramework plans per-tensor swapping decisions (vDNN, vDNN++,
	// SC, CSWAP, Orac).
	SwapFramework = swap.Framework
	// Plan is a per-iteration set of tensor decisions.
	Plan = swap.Plan
	// TensorPlan is one tensor's decision within a Plan.
	TensorPlan = swap.TensorPlan
	// SimOptions control a simulated training iteration.
	SimOptions = swap.Options
	// SimResult is the emergent timing of one iteration.
	SimResult = swap.Result
	// Timeline records per-stream execution spans (Figure 2 style).
	Timeline = trace.Timeline

	// VDNN is the no-compression baseline.
	VDNN = swap.VDNN
	// VDNNPP compresses on the host CPU (vDNN++).
	VDNNPP = swap.VDNNPP
	// Static is the GPU replica of cDMA's always-compress scheme.
	Static = swap.Static
	// CSWAPPlanner is the paper's selective framework.
	CSWAPPlanner = swap.CSWAP
	// Orac is the zero-cost-compression oracle.
	Orac = swap.Orac
	// MemoryAware wraps any framework with an activation-memory budget:
	// the most stall-expensive tensors stay resident while they fit.
	MemoryAware = swap.MemoryAware
)

// PlanPeakBytes estimates the device activation memory a plan needs.
func PlanPeakBytes(np *NetworkProfile, plan *Plan) int64 {
	return swap.PlanPeakBytes(np, plan)
}

// SimOption mutates SimOptions; see NewSimOptions.
type SimOption = swap.Option

// NewSimOptions returns the standard jitter/interference configuration with
// opts applied in order.
//
//	opt := cswap.NewSimOptions(cswap.WithSeed(1), cswap.WithObserver(obs))
func NewSimOptions(opts ...SimOption) SimOptions { return swap.NewOptions(opts...) }

// WithSeed sets the jitter stream seed.
func WithSeed(seed int64) SimOption { return swap.WithSeed(seed) }

// WithJitter sets the log-normal duration jitter σ (0 disables noise).
func WithJitter(sigma float64) SimOption { return swap.WithJitter(sigma) }

// WithInterference sets the SM-contention fraction charged to the compute
// stream for software compression kernels.
func WithInterference(f float64) SimOption { return swap.WithInterference(f) }

// WithSimTrace records every simulated job as a span on t.
func WithSimTrace(t *Timeline) SimOption { return swap.WithTrace(t) }

// WithObserver attaches the unified observability surface to the run.
func WithObserver(o *Observer) SimOption { return swap.WithObserver(o) }

// WithPipelinedCodec toggles the double-buffered-swapping ablation.
func WithPipelinedCodec(on bool) SimOption { return swap.WithPipelinedCodec(on) }

// WithEagerPrefetch toggles the issue-all-prefetches-at-backward-start
// prefetch policy.
func WithEagerPrefetch(on bool) SimOption { return swap.WithEagerPrefetch(on) }

// Simulate runs one training iteration of model under plan on device.
func Simulate(m *Model, d *Device, np *NetworkProfile, plan *Plan, opt SimOptions) (*SimResult, error) {
	return swap.Simulate(m, d, np, plan, opt)
}

// ---------------------------------------------------------------------------
// Functional swapping executor (real data movement).

type (
	// Executor moves real tensors between fixed-capacity device and
	// pinned-host pools through the real codecs, verifying bit-exact
	// restores — the data path of the paper's swapping executor.
	Executor = executor.Executor
	// ExecutorConfig sizes the pools and sets the kernel partitioning.
	ExecutorConfig = executor.Config
	// TensorHandle identifies one registered tensor.
	TensorHandle = executor.Handle
	// ExecutorStats accumulates executor activity, including graceful
	// degradation counters (raw fallbacks, decode retries/recoveries).
	ExecutorStats = executor.Stats
	// IterationReport summarises one functional training iteration.
	IterationReport = core.IterationReport
	// SparsityProfile holds per-tensor sparsity trajectories over epochs.
	SparsityProfile = sparsity.Profile
	// SwapTicket is the awaitable future returned by the asynchronous
	// swap API (Executor.SwapOutAsyncCtx / SwapInAsyncCtx / PrefetchCtx):
	// Wait blocks for the operation's outcome, Done supports select.
	SwapTicket = executor.Ticket
	// HandleState is a tensor handle's storage state (resident, swapped,
	// freed, or one of the transitional swapping states an in-flight
	// operation holds).
	HandleState = executor.State
)

// Executor errors a caller may want to test for.
var (
	// ErrHandleBusy reports that another swap holds the handle; wait for
	// the in-flight operation (its SwapTicket, or the synchronous call)
	// and retry.
	ErrHandleBusy = executor.ErrBusy
	// ErrExecutorClosed reports a Register or async submission after
	// Executor.Close.
	ErrExecutorClosed = executor.ErrClosed
)

// DefaultMaxInFlight is the async pipeline's bounded in-flight window when
// ExecutorConfig.MaxInFlight is zero.
const DefaultMaxInFlight = executor.DefaultMaxInFlight

// NewExecutor creates a functional swapping executor. Each tensor handle
// is guarded by a state machine — concurrent misuse of one handle returns
// ErrHandleBusy instead of corrupting memory — and the asynchronous API
// (SwapOutAsyncCtx, SwapInAsyncCtx, PrefetchCtx, Drain) pipelines swaps
// through a bounded in-flight window so transfers overlap compute.
func NewExecutor(cfg ExecutorConfig) (*Executor, error) { return executor.New(cfg) }

// ---------------------------------------------------------------------------
// Fault injection (data-path hardening).

type (
	// FaultInjector deterministically injects data-path faults (corrupted
	// blobs, truncated transfers, failed allocations, delayed codec work)
	// into an Executor via ExecutorConfig.Faults. A nil injector is valid
	// and injects nothing.
	FaultInjector = faultinject.Injector
	// Fault arms one data-path site with one failure mode.
	Fault = faultinject.Fault
	// FaultSite names an interception point on the swapping data path.
	FaultSite = faultinject.Site
	// FaultMode is what an armed fault does when it fires.
	FaultMode = faultinject.Mode
	// FaultStats counts fired faults by mode.
	FaultStats = faultinject.Stats
)

// ErrInjected is the sentinel wrapped by every injected failure.
var ErrInjected = faultinject.ErrInjected

// Fault modes.
const (
	FaultFail     = faultinject.Fail
	FaultCorrupt  = faultinject.Corrupt
	FaultTruncate = faultinject.Truncate
	FaultDelay    = faultinject.Delay
)

// Fault-injection sites on the swapping data path.
const (
	FaultSiteEncode      = faultinject.SiteEncode
	FaultSiteDecode      = faultinject.SiteDecode
	FaultSiteHostAlloc   = faultinject.SiteHostAlloc
	FaultSiteDeviceAlloc = faultinject.SiteDeviceAlloc
	FaultSiteTransferOut = faultinject.SiteTransferOut
	FaultSiteTransferIn  = faultinject.SiteTransferIn
)

// NewFaultInjector returns an injector with the given faults armed.
func NewFaultInjector(faults ...Fault) *FaultInjector { return faultinject.New(faults...) }

// SparsityForModel builds the per-epoch sparsity trajectories for a
// model's swappable tensors.
func SparsityForModel(m *Model, epochs int, seed int64) *SparsityProfile {
	return sparsity.ForModel(m, epochs, seed)
}

// RunFunctionalIteration executes one training iteration with real tensor
// data: activations are synthesised at the epoch's sparsity, swapped out
// per the plan through the real codecs, swapped back in during the
// backward pass, and verified bit-exactly. scaleDiv divides tensor sizes
// so multi-GB workloads fit test-sized pools.
func RunFunctionalIteration(e *Executor, m *Model, plan *Plan, sp *SparsityProfile, epoch, scaleDiv int, seed int64) (*IterationReport, error) {
	return core.RunIteration(e, m, plan, sp, epoch, scaleDiv, seed)
}

// MinDeviceCapacity and HostCapacityFor size executor pools for a scaled
// workload.
func MinDeviceCapacity(m *Model, scaleDiv int) int64 {
	return core.MinDeviceCapacity(m, scaleDiv)
}

// HostCapacityFor sizes the pinned pool for an all-raw worst case.
func HostCapacityFor(m *Model, scaleDiv int) int64 {
	return core.HostCapacityFor(m, scaleDiv)
}

// ---------------------------------------------------------------------------
// GPU-parameter search (Section IV-D).

type (
	// Searcher finds a kernel launch geometry (BO, RD, EP, GS).
	Searcher = bayesopt.Searcher
	// SearchObjective evaluates one launch.
	SearchObjective = bayesopt.Objective
	// SearchResult summarises a completed search.
	SearchResult = bayesopt.Result
	// BayesOpt is Algorithm 1 (s1 random + s2 guided probes).
	BayesOpt = bayesopt.BO
	// RandomSearch is the RD baseline.
	RandomSearch = bayesopt.RandomSearch
	// ExpertChoice is the EP baseline.
	ExpertChoice = bayesopt.Expert
	// GridSearch is the exhaustive GS oracle.
	GridSearch = bayesopt.GridSearch
)

// ---------------------------------------------------------------------------
// Observability: the unified metrics + tracing surface.

type (
	// Observer is the single instrumentation surface threaded through the
	// stack: a metrics registry, an optional span timeline, and an optional
	// structured event hook. Attach one via Config.Observer,
	// ExecutorConfig.Observer, or WithObserver; a nil Observer is valid
	// everywhere and costs ~zero on the hot path.
	Observer = metrics.Observer
	// ObserverEvent is one structured notification (a BO probe, a codec
	// fallback, an iteration boundary) delivered to Observer.OnEvent.
	ObserverEvent = metrics.Event
	// MetricsRegistry holds named counters, gauges, and log-bucketed
	// histograms, labeled by codec/tensor/site.
	MetricsRegistry = metrics.Registry
	// MetricsLabel is one key=value dimension on a metric series.
	MetricsLabel = metrics.Label
	// MetricsSnapshot is a point-in-time, deterministically ordered export
	// of a registry.
	MetricsSnapshot = metrics.Snapshot
	// MetricsSink writes snapshots somewhere (JSON lines, Prometheus text).
	MetricsSink = metrics.Sink
	// JSONLinesSink writes one self-describing JSON object per series.
	JSONLinesSink = metrics.JSONLines
	// PrometheusSink writes Prometheus text exposition format 0.0.4.
	PrometheusSink = metrics.Prometheus
)

// NewObserver returns an observer with a fresh registry and timeline and no
// event hook.
func NewObserver() *Observer { return metrics.NewObserver() }

// MetricLabel builds one metric label.
func MetricLabel(key, value string) MetricsLabel { return metrics.L(key, value) }

// ParseMetricsJSONLines reads a JSONLinesSink export back into a snapshot.
func ParseMetricsJSONLines(r io.Reader) (*MetricsSnapshot, error) {
	return metrics.ParseJSONLines(r)
}

// ---------------------------------------------------------------------------
// Swap service (cswapd): multi-tenant serving over the executor.

type (
	// SwapServer is the network-facing swap service: it multiplexes
	// per-tenant tensor sessions onto one Executor behind an HTTP + binary
	// frame protocol, with quotas, admission control, and /metrics. Mount
	// SwapServer.Handler on any listener, or run the cswapd daemon.
	SwapServer = server.Server
	// SwapServerOption is one functional option for NewSwapService and
	// NewSwapCluster (shard count, pool capacities, quotas, tuner, ...).
	SwapServerOption = server.Option
	// SwapCluster is the sharded swap service: N complete SwapServers
	// behind a consistent-hash router, with per-shard admission and live
	// shard drain (see cswapd -shards).
	SwapCluster = server.Cluster
	// SwapTunerConfig configures the online per-tenant tuner each server
	// (or cluster shard) runs.
	SwapTunerConfig = server.TunerConfig
)

// Functional options for NewSwapService and NewSwapCluster, mirroring
// NewSimOptions' style. WithServerObserver is named to avoid colliding
// with the simulator's WithObserver.
var (
	// WithSwapShards sets the cluster's shard count (NewSwapCluster).
	WithSwapShards = server.WithShards
	// WithSwapDeviceCapacity sizes each shard's device pool in bytes.
	WithSwapDeviceCapacity = server.WithDeviceCapacity
	// WithSwapHostCapacity sizes each shard's pinned-host pool in bytes.
	WithSwapHostCapacity = server.WithHostCapacity
	// WithSwapMaxInFlight bounds each shard's admission slots.
	WithSwapMaxInFlight = server.WithMaxInFlight
	// WithSwapTenantQuota sets the per-tenant device quota, per shard.
	WithSwapTenantQuota = server.WithTenantQuota
	// WithSwapVerify enables checksum verification of every restore.
	WithSwapVerify = server.WithVerify
	// WithSwapLaunch sets the codec launch geometry, fixed for the service's life.
	WithSwapLaunch = server.WithLaunch
	// WithSwapTuner configures the online per-tenant tuner.
	WithSwapTuner = server.WithTuner
	// WithServerObserver attaches an instrumentation surface to the service.
	WithServerObserver = server.WithObserver
)

// Swap-service errors a caller may want to test for.
var (
	// ErrTenantQuotaExceeded reports a register refused by the tenant's
	// device-memory quota (before the shared pool was touched).
	ErrTenantQuotaExceeded = server.ErrQuotaExceeded
	// ErrUnknownTensor reports a swap operation on a name the tenant never
	// registered or already freed.
	ErrUnknownTensor = server.ErrUnknownTensor
	// ErrAlreadyRegistered reports a duplicate register within a tenant.
	ErrAlreadyRegistered = server.ErrAlreadyRegistered
)

// NewSwapService builds a single-shard swap service and its executor from
// functional options. The caller owns the listener: mount Handler, and on
// shutdown stop the listener first, then Close the server to drain and
// close the executor.
//
//	svc, err := cswap.NewSwapService(
//		cswap.WithSwapDeviceCapacity(1<<30),
//		cswap.WithSwapHostCapacity(4<<30),
//	)
func NewSwapService(opts ...SwapServerOption) (*SwapServer, error) { return server.NewServer(opts...) }

// NewSwapCluster builds a sharded swap service: WithSwapShards(n)
// complete shards behind a consistent-hash router, each shard sized by
// the same per-shard options NewSwapService takes.
func NewSwapCluster(opts ...SwapServerOption) (*SwapCluster, error) {
	return server.NewCluster(opts...)
}
