package server

import (
	"time"

	"cswap/internal/compress"
	"cswap/internal/faultinject"
	"cswap/internal/metrics"
	"cswap/internal/sched"
)

// Option configures NewServer and NewCluster, mirroring the simulator's
// NewSimOptions surface so both entry points of the repo read the same way.
// Every per-shard knob — capacities, in-flight window, quotas, tier, tuner,
// scheduler — applies to each shard of a cluster independently: a 3-shard
// cluster with WithDeviceCapacity(1 GiB) holds 3 GiB of device memory.
type Option func(*config)

// config is the resolved option set; each field is documented on the
// option that sets it.
type config struct {
	shards                       int // NewCluster only; a Server is exactly one shard
	deviceCapacity, hostCapacity int64
	maxInFlight                  int
	launch                       compress.Launch
	verify                       bool
	tenantQuota                  int64
	tierDir                      string
	tierCap, tenantTierQuota     int64
	tierWatermark                float64
	maxPayload                   uint32
	retryAfter                   time.Duration
	writeGrace                   time.Duration // swapData's deadline floor; tests shorten it
	observer                     *metrics.Observer
	faults                       *faultinject.Injector
	tuner                        TunerConfig
	sched                        SchedConfig
}

// SchedConfig configures a shard's admission scheduler (internal/sched):
// MaxInFlight slots handed out by lane priority — critical ahead of normal
// ahead of speculative, earliest deadline first within a lane — with
// in-flight speculative swaps shed at run boundaries while a critical
// waiter starves. The scheduler always runs; Enabled only selects how deep
// its lanes queue.
type SchedConfig struct {
	// Enabled false gives every lane depth zero: a request that finds all
	// MaxInFlight slots taken is refused at once with 429 "saturated",
	// never queued. Enabled true queues per lane, bounded by LaneDepth.
	Enabled bool
	// LaneDepth bounds each lane's queue (critical, normal, speculative)
	// when Enabled; zero or negative entries select sched.DefaultLaneDepth.
	LaneDepth [sched.NumLanes]int
	// StarveAfter is how long a queued critical request may wait before
	// in-flight speculative work is told to shed. Zero selects
	// sched.DefaultStarveAfter.
	StarveAfter time.Duration
}

// WithShards sets the executor-shard count for NewCluster (default 1).
func WithShards(n int) Option { return func(c *config) { c.shards = n } }

// WithDeviceCapacity sizes each shard's device pool in bytes.
func WithDeviceCapacity(b int64) Option { return func(c *config) { c.deviceCapacity = b } }

// WithHostCapacity sizes each shard's host (swap-target) pool in bytes.
func WithHostCapacity(b int64) Option { return func(c *config) { c.hostCapacity = b } }

// WithMaxInFlight bounds each shard's admission slots: at most this many
// swap requests run at once, each in its handler under one slot, however
// many runs its batch has. Zero selects executor.DefaultMaxInFlight.
func WithMaxInFlight(n int) Option { return func(c *config) { c.maxInFlight = n } }

// WithLaunch sets each shard's codec partitioning geometry, fixed for the
// shard's life (zero selects the executor default). The tuner picks codecs
// only: the launch is tuned offline, against the GPU kernel model.
func WithLaunch(l compress.Launch) Option { return func(c *config) { c.launch = l } }

// WithVerify enables the executor's post-restore checksum check.
func WithVerify(v bool) Option { return func(c *config) { c.verify = v } }

// WithTenantQuota sets the per-tenant registered-bytes quota, enforced per
// shard (a tenant's tensors spread across shards, each charging its own
// quota). Zero grants each tenant the full device capacity; the shared pool
// still enforces the global bound.
func WithTenantQuota(b int64) Option { return func(c *config) { c.tenantQuota = b } }

// WithTierDir attaches a disk spill tier rooted at dir under the executor's
// host pool (empty disables): swapped payloads demote into it under host
// pressure, and a tenant-quota 507 at register time becomes
// demote-then-admit — the tenant's swapped tensors and block-pool runs move
// to disk and the register proceeds; 507 remains only when both buckets are
// full. Whoever demotes a tensor or a pool run, the executor moves its
// uncompressed size from the tenant's device bucket to its tier bucket in
// the same step, and back when the payload leaves the tier. The tier is one
// scratch file, dir/spill: what an earlier process left in dir belongs to no
// session (sessions do not survive a restart), so boot removes it unread,
// and Close removes the file. A cluster gives each shard its own
// subdirectory under dir.
func WithTierDir(dir string) Option { return func(c *config) { c.tierDir = dir } }

// WithTierCap bounds each shard's tier directory in committed bytes (zero
// selects four times the host capacity).
func WithTierCap(b int64) Option { return func(c *config) { c.tierCap = b } }

// WithTenantTierQuota sets the per-tenant tier bucket's quota in
// uncompressed bytes, per shard like the device quota. It bounds only what
// demote-then-admit moves for a register, which demotes a tensor or a
// pool's swapped runs only while the object's whole registered size still
// fits under it: demotions the executor makes under host pressure or above
// the watermark are charged to the bucket — tensors and pool runs alike —
// but never refused. Zero grants each tenant the full tier capacity.
func WithTenantTierQuota(b int64) Option { return func(c *config) { c.tenantTierQuota = b } }

// DefaultTierWatermark is the host-pool occupancy fraction each tiered
// shard's background demoter holds the pool at when WithTierWatermark
// gives none. A lower mark frees a swap-out's room ahead of it just as
// well, but it keeps fewer payloads in the host pool, so more swap-ins
// read from the tier (EXPERIMENTS.md, "An event-driven demoter").
const DefaultTierWatermark = 0.9

// WithTierWatermark sets the host-pool occupancy fraction, in (0,1), that
// each tiered shard's background host->tier demoter holds the pool at:
// whenever a swap-out, a read-ahead or a kept clean copy leaves occupancy
// above it, cold swapped payloads demote until occupancy is back under.
// Every shard with a tier runs the demoter; zero selects
// DefaultTierWatermark. Allocation pressure still demotes inline whatever
// the demoter has not caught up with. Requires WithTierDir.
func WithTierWatermark(f float64) Option { return func(c *config) { c.tierWatermark = f } }

// WithMaxPayload caps decodable wire frames (zero selects
// wire.DefaultMaxPayload).
func WithMaxPayload(n uint32) Option { return func(c *config) { c.maxPayload = n } }

// WithRetryAfter sets the hint returned with 429/409 responses. Zero
// selects one second (Retry-After has whole-second granularity).
func WithRetryAfter(d time.Duration) Option { return func(c *config) { c.retryAfter = d } }

// WithObserver supplies the instrumentation surface; without it the server
// creates a registry-only observer (no span timeline — a daemon must not
// accumulate spans without bound). A cluster derives a shard="N"-labeled
// view of the observer's registry for each shard.
func WithObserver(obs *metrics.Observer) Option { return func(c *config) { c.observer = obs } }

// WithFaults injects data-path faults into each shard's executor and tier,
// for tests proving the service degrades instead of dropping sessions.
func WithFaults(f *faultinject.Injector) Option { return func(c *config) { c.faults = f } }

// WithTuner configures the online per-tenant self-tuning loop (tuner.go),
// run per shard. The zero value leaves tuning off; Auto swap-outs then fall
// back to the analytic ratio model per tensor.
func WithTuner(tc TunerConfig) Option { return func(c *config) { c.tuner = tc } }

// WithSched configures the admission scheduler, run per shard (each shard's
// lanes queue independently). The zero value refuses instead of queueing.
func WithSched(sc SchedConfig) Option { return func(c *config) { c.sched = sc } }

// resolve folds the options and fills the defaults that do not depend on
// which constructor asked.
func resolve(opts []Option) config {
	c := config{shards: 1}
	for _, opt := range opts {
		opt(&c)
	}
	c.shards = max(c.shards, 1)
	if c.observer == nil {
		c.observer = &metrics.Observer{Metrics: metrics.NewRegistry()}
	}
	if c.retryAfter <= 0 {
		c.retryAfter = time.Second
	}
	if c.writeGrace <= 0 {
		c.writeGrace = writeGrace
	}
	return c
}

// NewServer builds a single-shard server and its executor.
func NewServer(opts ...Option) (*Server, error) { return newServer(resolve(opts)) }
