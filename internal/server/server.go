// Package server is the network-facing swap service: it multiplexes many
// tenants onto one swapping executor, the way the paper frames CSWAP as a
// shared substrate under a training framework (and cDMA models its DMA
// engines as a service many streams contend over).
//
// The protocol is HTTP for the envelope — routing, status codes, deadline
// propagation — with the wire package's length-prefixed binary frames as
// the request and response bodies. Five operations (register, swap-out,
// swap-in, prefetch, free) act on per-tenant tensor namespaces, and five
// batch operations (register-pool, batch-write, batch-swap-out,
// batch-swap-in, batch-prefetch; see batch.go) act on paged block pools;
// /metrics exposes the shared registry in Prometheus text format and
// /healthz the liveness/draining state.
//
// Three admission layers keep the shared executor healthy under load:
//
//   - Per-tenant device-memory quotas, charged at register time before the
//     shared pool is touched, so tenants fail individually, not each other.
//   - A non-blocking admission window sized to the executor's MaxInFlight:
//     a saturated window answers 429 + Retry-After instead of queueing
//     without bound — the service-level face of the async pipeline's
//     backpressure. With Config.Sched enabled the window becomes the
//     SLO-aware priority scheduler (internal/sched): requests queue
//     briefly in per-lane bounded EDF queues keyed by the wire frame's
//     lane/deadline hint, critical work jumps queued speculative work,
//     deadline-expired waiters answer 429 "expired", and in-flight
//     speculative prefetches shed at run boundaries when critical work
//     starves.
//   - Per-tensor request locks that answer 409 "busy" on contention — the
//     executor's ErrBusy discipline surfaced at the HTTP boundary, and the
//     guarantee that a response encodes a tensor no concurrent request is
//     mutating.
//
// Shutdown is ordered: stop intake (everything answers 503), let in-flight
// handlers finish, Drain() the executor's ticket window, then Close it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cswap/internal/compress"
	"cswap/internal/devmem"
	"cswap/internal/executor"
	"cswap/internal/faultinject"
	"cswap/internal/metrics"
	"cswap/internal/placement"
	"cswap/internal/sched"
	"cswap/internal/tensor"
	"cswap/internal/tier"
	"cswap/internal/wire"
)

// TenantHeader names the HTTP header that selects a tenant session.
// Requests without it share the DefaultTenant namespace.
const (
	TenantHeader  = "X-CSwap-Tenant"
	ErrorHeader   = "X-CSwap-Error" // short machine-readable error code
	DefaultTenant = "default"
)

// Error codes carried in ErrorHeader. Clients key retry behaviour off
// these rather than parsing message text.
const (
	CodeBusy      = "busy"      // per-tensor contention or executor ErrBusy: retry after backoff
	CodeSaturated = "saturated" // admission window full: retry after Retry-After
	CodeExpired   = "expired"   // deadline passed while queued for admission: do NOT retry
	CodeQuota     = "quota"     // tenant quota exceeded: free something first
	CodeOOM       = "oom"       // shared pool exhausted
	CodeNotFound  = "not-found" // unknown tensor
	CodeExists    = "exists"    // duplicate register
	CodeState     = "state"     // operation illegal in the tensor's state
	CodeDraining  = "draining"  // server shutting down
	CodeBadFrame  = "bad-frame" // malformed wire frame
	CodeTimeout   = "timeout"   // request context died mid-operation
	CodeInternal  = "internal"
)

// Config configures a Server.
type Config struct {
	// DeviceCapacity and HostCapacity size the shared executor pools.
	DeviceCapacity, HostCapacity int64
	// MaxInFlight bounds the executor's async window and, equally, the
	// server's admission window: at most this many swap operations hold
	// slots at once; the rest see 429. Zero selects the executor default.
	MaxInFlight int
	// Launch is the codec partitioning geometry (zero selects the
	// executor's default).
	Launch compress.Launch
	// Verify enables the executor's post-restore checksum check.
	Verify bool
	// TenantQuota is the per-tenant registered-bytes quota. Zero grants
	// each tenant the full device capacity (no subdivision); the shared
	// pool still enforces the global bound.
	TenantQuota int64
	// TierDir, when set, attaches a disk spill tier under the executor's
	// host pool: swapped payloads demote into it under host pressure, and
	// a tenant-quota 507 at register time becomes demote-then-admit —
	// the tenant's swapped tensors move to disk, their quota charge moves
	// to the tier bucket, and the register proceeds. 507 remains only
	// when both tiers are full. Empty disables tiering.
	TierDir string
	// TierCap bounds the tier directory's committed bytes. Zero selects
	// four times the host capacity.
	TierCap int64
	// TenantTierQuota is the per-tenant bound on tier-resident bytes.
	// Zero grants each tenant the full tier capacity.
	TenantTierQuota int64
	// TierWatermark, in (0,1), enables the executor's background demoter:
	// whenever host-pool occupancy exceeds this fraction of capacity, cold
	// swapped payloads demote to the tier until it is back under. Zero
	// leaves demotion purely demand-driven (allocation pressure only).
	// Requires TierDir.
	TierWatermark float64
	// MaxPayload caps the wire frames the server will decode; zero
	// selects wire.DefaultMaxPayload.
	MaxPayload uint32
	// RetryAfter is the hint returned with 429/409 responses. Zero
	// selects one second (Retry-After has whole-second granularity).
	RetryAfter time.Duration
	// Observer optionally supplies the instrumentation surface. Nil
	// creates a registry-only observer (no span timeline — a daemon must
	// not accumulate spans without bound).
	Observer *metrics.Observer
	// Faults optionally injects data-path faults into the executor, for
	// tests proving the service degrades instead of dropping sessions.
	Faults *faultinject.Injector
	// Tuner configures the online per-tenant self-tuning loop (tuner.go).
	// The zero value leaves tuning off; Auto swap-outs then fall back to
	// the analytic ratio model per tensor.
	Tuner TunerConfig
	// Sched configures the SLO-aware admission scheduler. The zero value
	// keeps the plain non-blocking window.
	Sched SchedConfig
}

// SchedConfig configures the server's SLO-aware admission scheduler. When
// Enabled, the admission window is replaced by an internal/sched.Scheduler
// with MaxInFlight slots: swap requests queue per lane (bounded,
// earliest-deadline-first) instead of answering 429 the instant the window
// fills, critical requests are granted ahead of queued speculative ones,
// and the executor sheds in-flight speculative prefetch work at run
// boundaries while a critical waiter starves.
type SchedConfig struct {
	Enabled bool
	// LaneDepth bounds each lane's queue (critical, normal, speculative);
	// zero entries select sched.DefaultLaneDepth.
	LaneDepth [sched.NumLanes]int
	// StarveAfter is how long a queued critical request may wait before
	// in-flight speculative work is told to shed. Zero selects
	// sched.DefaultStarveAfter.
	StarveAfter time.Duration
}

// instruments are the server's pre-resolved metric cells; per-tenant
// series are resolved per request (registry lookups are cheap and the
// label space is small).
type instruments struct {
	backpressure *metrics.Counter // 429s: admission window full
	busy         *metrics.Counter // 409s: per-tensor contention
	sessions     *metrics.Gauge
	reg          *metrics.Registry
}

// Server multiplexes tenant sessions onto one executor.
type Server struct {
	cfg   Config
	exec  *executor.Executor
	tier  *tier.Store // nil without TierDir
	obs   *metrics.Observer
	ins   instruments
	admit chan struct{}    // plain admission window (Sched disabled)
	sched *sched.Scheduler // SLO-aware admission (Sched.Enabled); nil otherwise
	mux   *http.ServeMux
	tuner *tuner

	mu       sync.Mutex
	sessions map[string]*session
	draining bool
}

// New builds a server and its executor.
func New(cfg Config) (*Server, error) {
	if cfg.Observer == nil {
		cfg.Observer = &metrics.Observer{Metrics: metrics.NewRegistry()}
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = executor.DefaultMaxInFlight
	}
	if cfg.TenantQuota == 0 {
		cfg.TenantQuota = cfg.DeviceCapacity
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	var ts *tier.Store
	if cfg.TierDir != "" {
		if cfg.TierCap == 0 {
			cfg.TierCap = 4 * cfg.HostCapacity
		}
		if cfg.TenantTierQuota == 0 {
			cfg.TenantTierQuota = cfg.TierCap
		}
		var err error
		if ts, err = tier.Open(cfg.TierDir, cfg.TierCap, cfg.Faults); err != nil {
			return nil, fmt.Errorf("server: spill tier: %w", err)
		}
	}
	var schd *sched.Scheduler
	if cfg.Sched.Enabled {
		var err error
		schd, err = sched.New(sched.Config{
			Slots:       cfg.MaxInFlight,
			LaneDepth:   cfg.Sched.LaneDepth,
			StarveAfter: cfg.Sched.StarveAfter,
			Metrics:     cfg.Observer.Reg(),
			Prefix:      "server",
		})
		if err != nil {
			return nil, fmt.Errorf("server: sched: %w", err)
		}
	}
	execCfg := executor.Config{
		DeviceCapacity: cfg.DeviceCapacity,
		HostCapacity:   cfg.HostCapacity,
		Launch:         cfg.Launch,
		Verify:         cfg.Verify,
		MaxInFlight:    cfg.MaxInFlight,
		Faults:         cfg.Faults,
		Tier:           ts,
		TierWatermark:  cfg.TierWatermark,
		Observer:       cfg.Observer,
	}
	if schd != nil {
		// The scheduler doubles as the executor's shed signal — signal
		// only, never slot acquisition, so the two windows cannot deadlock.
		execCfg.Sched = schd
	}
	exec, err := executor.New(execCfg)
	if err != nil {
		return nil, err
	}
	reg := cfg.Observer.Reg()
	s := &Server{
		cfg:  cfg,
		exec: exec,
		tier: ts,
		obs:  cfg.Observer,
		ins: instruments{
			backpressure: reg.Counter("server_backpressure_total"),
			busy:         reg.Counter("server_busy_total"),
			sessions:     reg.Gauge("server_sessions"),
			reg:          reg,
		},
		admit:    make(chan struct{}, cfg.MaxInFlight),
		sched:    schd,
		sessions: map[string]*session{},
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/register", s.instrumented("register", s.handleRegister))
	s.mux.HandleFunc("POST /v1/swap-out", s.instrumented("swap-out", s.handleSwapOut))
	s.mux.HandleFunc("POST /v1/swap-in", s.instrumented("swap-in", s.handleSwapIn))
	s.mux.HandleFunc("POST /v1/prefetch", s.instrumented("prefetch", s.handlePrefetch))
	s.mux.HandleFunc("POST /v1/free", s.instrumented("free", s.handleFree))
	s.mux.HandleFunc("POST /v1/register-pool", s.instrumented("register-pool", s.handleRegisterPool))
	s.mux.HandleFunc("POST /v1/batch-write", s.instrumented("batch-write", s.handleBatchWrite))
	s.mux.HandleFunc("POST /v1/batch-swap-out", s.instrumented("batch-swap-out", s.handleBatchSwapOut))
	s.mux.HandleFunc("POST /v1/batch-swap-in", s.instrumented("batch-swap-in", s.handleBatchSwapIn))
	s.mux.HandleFunc("POST /v1/batch-prefetch", s.instrumented("batch-prefetch", s.handleBatchPrefetch))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /cluster", s.handleClusterMap)
	if cfg.Tuner.Enabled {
		s.tuner = startTuner(s, cfg.Tuner)
	}
	return s, nil
}

// Handler returns the server's HTTP handler, for mounting on any listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Executor exposes the shared executor (tests and embedders).
func (s *Server) Executor() *executor.Executor { return s.exec }

// Tier exposes the disk spill tier, nil when TierDir is unset.
func (s *Server) Tier() *tier.Store { return s.tier }

// Registry exposes the shared metrics registry backing /metrics.
func (s *Server) Registry() *metrics.Registry { return s.ins.reg }

// Drain stops intake: every subsequent /v1/ request (and /healthz) answers
// 503 with the draining code. In-flight requests are unaffected.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Close shuts the service down in order: stop intake, wait out the
// executor's in-flight tickets (Drain barrier), then close the executor.
// The HTTP listener's own shutdown — waiting for handlers to return — is
// the caller's first step (http.Server.Shutdown), so by the time Close's
// Drain runs, no handler is still submitting.
func (s *Server) Close() error {
	s.Drain()
	if s.tuner != nil {
		// Stop the tuner before the executor drains: a probe never races
		// shutdown, and no SetLaunch lands on a closing executor.
		s.tuner.Stop()
	}
	if s.sched != nil {
		// Fail queued admission waiters (503 draining) before the drain
		// barrier, so no handler is left waiting on a lane that will never
		// be granted.
		s.sched.Close()
	}
	s.exec.Drain()
	return s.exec.Close()
}

// session returns the tenant's session, creating it on first use.
func (s *Server) session(tenant string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[tenant]
	if !ok {
		sess = newSession(tenant, s.cfg.TenantQuota, s.cfg.TenantTierQuota, s.ins.reg)
		s.sessions[tenant] = sess
		s.ins.sessions.Set(float64(len(s.sessions)))
	}
	return sess
}

// isDraining reports whether intake is stopped.
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// tenantOf extracts the request's tenant name.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

// instrumented wraps an operation handler with the draining gate and the
// per-tenant request/latency series.
func (s *Server) instrumented(op string, fn func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.isDraining() {
			s.fail(w, http.StatusServiceUnavailable, CodeDraining, "server is draining")
			return
		}
		tenant := tenantOf(r)
		s.ins.reg.Counter("server_requests_total",
			metrics.L("tenant", tenant), metrics.L("op", op)).Inc()
		start := time.Now()
		fn(w, r)
		s.ins.reg.Histogram("server_request_seconds", metrics.L("op", op)).
			Observe(time.Since(start).Seconds())
	}
}

// fail writes an error response: the machine code in ErrorHeader, the
// human message in the body.
func (s *Server) fail(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set(ErrorHeader, code)
	if status == http.StatusTooManyRequests || code == CodeBusy || code == CodeDraining {
		// Truncated to whole seconds; "0" is a legal hint meaning "retry
		// immediately" and lets tests run sub-second backoff loops.
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter/time.Second)))
	}
	http.Error(w, msg, status)
}

// failErr maps a service/executor error onto an HTTP response.
func (s *Server) failErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errEntryBusy), errors.Is(err, executor.ErrBusy):
		s.ins.busy.Inc()
		s.fail(w, http.StatusConflict, CodeBusy, err.Error())
	case errors.Is(err, executor.ErrShed):
		// Speculative work shed under critical pressure: same retry story
		// as a saturated window.
		s.ins.backpressure.Inc()
		s.fail(w, http.StatusTooManyRequests, CodeSaturated, err.Error())
	case errors.Is(err, ErrQuotaExceeded):
		s.fail(w, http.StatusInsufficientStorage, CodeQuota, err.Error())
	case errors.Is(err, devmem.ErrOutOfMemory):
		s.fail(w, http.StatusInsufficientStorage, CodeOOM, err.Error())
	case errors.Is(err, ErrUnknownTensor):
		s.fail(w, http.StatusNotFound, CodeNotFound, err.Error())
	case errors.Is(err, ErrAlreadyRegistered):
		s.fail(w, http.StatusConflict, CodeExists, err.Error())
	case errors.Is(err, executor.ErrFreed):
		s.fail(w, http.StatusGone, CodeState, err.Error())
	case errors.Is(err, executor.ErrClosed):
		s.fail(w, http.StatusServiceUnavailable, CodeDraining, err.Error())
	default:
		// "already swapped/resident" misuse and everything else the state
		// machine refuses: a conflict the client can resolve, not a server
		// fault — but genuinely unknown failures are 500s.
		if errors.Is(err, executor.ErrNotResident) || errors.Is(err, executor.ErrNotSwapped) ||
			errors.Is(err, errNotPool) || errors.Is(err, errNotTensor) {
			s.fail(w, http.StatusConflict, CodeState, err.Error())
			return
		}
		s.fail(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

// readFrame decodes the request body as one frame of the expected type.
func (s *Server) readFrame(w http.ResponseWriter, r *http.Request, want wire.Type) (*wire.Frame, bool) {
	f, err := wire.Read(r.Body, s.cfg.MaxPayload)
	if err != nil {
		s.fail(w, http.StatusBadRequest, CodeBadFrame, err.Error())
		return nil, false
	}
	if f.Type != want {
		s.fail(w, http.StatusBadRequest, CodeBadFrame,
			fmt.Sprintf("server: %s endpoint got %s frame", want, f.Type))
		return nil, false
	}
	return f, true
}

// writeFrame encodes and writes a response frame.
func (s *Server) writeFrame(w http.ResponseWriter, f *wire.Frame) {
	b, err := wire.Encode(f)
	s.writeEncoded(w, b, err)
}

// writeEncoded writes wire.Encode's result: the frame bytes with their
// length declared, or a 500 when the encode failed.
func (s *Server) writeEncoded(w http.ResponseWriter, b []byte, err error) {
	if err != nil {
		s.fail(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	_, _ = w.Write(b)
}

// qualified is the executor-facing tensor name, namespaced by tenant so
// spans and per-tensor series stay distinct across sessions.
func qualified(tenant, name string) string { return tenant + "/" + name }

// handleRegister admits the tensor against the tenant quota, then places
// it in the shared device pool.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	f, ok := s.readFrame(w, r, wire.TypeRegister)
	if !ok {
		return
	}
	tenant := tenantOf(r)
	sess := s.session(tenant)
	bytes := int64(len(f.Data)) * tensor.BytesPerElement
	ent, err := s.reserveDemoting(sess, f.Name, bytes)
	if err != nil {
		if errors.Is(err, ErrQuotaExceeded) {
			s.ins.reg.Counter("server_quota_rejections_total", metrics.L("tenant", tenant)).Inc()
		}
		s.failErr(w, err)
		return
	}
	h, err := s.exec.Register(qualified(tenant, f.Name), tensor.FromSlice(f.Data))
	if err != nil {
		sess.release(f.Name, ent)
		ent.mu.Unlock()
		s.failErr(w, err)
		return
	}
	ent.h = h
	ent.sparsity = sliceSparsity(f.Data)
	ent.mu.Unlock()
	s.writeFrame(w, &wire.Frame{Type: wire.TypeAck, Name: f.Name})
}

// reserveDemoting is reserve with the demote-then-admit fallback: a
// tenant-quota refusal with a spill tier attached first tries to demote
// the tenant's swapped tensors to disk — migrating their quota charge to
// the tier bucket — and retries the reservation. 507 survives only when
// both the device quota and the tier quota are exhausted.
func (s *Server) reserveDemoting(sess *session, name string, bytes int64) (*entry, error) {
	ent, err := sess.reserve(name, bytes)
	if err != nil && errors.Is(err, ErrQuotaExceeded) && s.tier != nil && s.demoteForAdmit(sess, bytes) {
		ent, err = sess.reserve(name, bytes)
	}
	return ent, err
}

// demoteForAdmit walks the tenant's entries demoting swapped,
// host-resident tensors into the disk tier until the device quota bucket
// has room for `need` more bytes, reporting whether it does. Busy entries,
// block pools, resident tensors (Demote refuses them), and entries the
// tier quota cannot take are skipped. Executor-initiated demotions the
// server has not yet accounted (tierCharged lagging) are reconciled for
// free: Demote on an already-tiered handle is a no-op and syncTier moves
// the charge.
func (s *Server) demoteForAdmit(sess *session, need int64) bool {
	if sess.deviceHeadroom(need) {
		return true
	}
	for _, name := range sess.entryNames() {
		ent, err := sess.acquire(name)
		if err != nil {
			continue
		}
		if ent.h == nil || ent.tierCharged || !sess.tierHeadroom(ent.bytes) {
			ent.mu.Unlock()
			continue
		}
		if err := s.exec.Demote(ent.h); err == nil {
			sess.syncTier(ent)
			s.ins.reg.Counter("server_tier_demote_admits_total",
				metrics.L("tenant", sess.tenant)).Inc()
		}
		ent.mu.Unlock()
		if sess.deviceHeadroom(need) {
			return true
		}
	}
	return sess.deviceHeadroom(need)
}

// admitSlot claims one admission slot without blocking; a full window is
// the 429 path — bounded refusal, not unbounded queueing.
func (s *Server) admitSlot(w http.ResponseWriter) bool {
	select {
	case s.admit <- struct{}{}:
		return true
	default:
		s.ins.backpressure.Inc()
		s.fail(w, http.StatusTooManyRequests, CodeSaturated,
			fmt.Sprintf("server: %d swap operations in flight", cap(s.admit)))
		return false
	}
}

// hintOf derives a request's scheduling hint from the wire frame's
// optional sched extension: without one, demand swaps ride LaneNormal and
// prefetches LaneSpeculative with no deadline. The frame's relative
// deadline becomes absolute here, at decode time.
func hintOf(f *wire.Frame, fallback sched.Lane) sched.Hint {
	h := sched.Hint{Lane: fallback}
	if f.HasSched {
		h.Lane = sched.Lane(f.Lane)
		if f.DeadlineMicros > 0 {
			h.Deadline = time.Now().Add(time.Duration(f.DeadlineMicros) * time.Microsecond)
		}
	}
	return h
}

// admitReq claims one admission slot for a swap request. Without the
// scheduler it is the non-blocking window (429 saturated on full). With
// it, the request joins its lane's bounded EDF queue: a full lane still
// answers 429 saturated immediately, a deadline that passes while queued
// answers 429 "expired" (retrying the same deadline is pointless), and a
// granted request proceeds holding one of the MaxInFlight slots.
func (s *Server) admitReq(w http.ResponseWriter, r *http.Request, h sched.Hint) bool {
	if s.sched == nil {
		return s.admitSlot(w)
	}
	if err := s.sched.Acquire(r.Context(), h.Lane, h.Deadline); err != nil {
		switch {
		case errors.Is(err, sched.ErrExpired):
			s.ins.backpressure.Inc()
			s.fail(w, http.StatusTooManyRequests, CodeExpired, err.Error())
		case errors.Is(err, sched.ErrLaneFull):
			s.ins.backpressure.Inc()
			s.fail(w, http.StatusTooManyRequests, CodeSaturated, err.Error())
		case errors.Is(err, sched.ErrClosed):
			s.fail(w, http.StatusServiceUnavailable, CodeDraining, err.Error())
		default:
			// The client's own context died while queued.
			s.fail(w, http.StatusRequestTimeout, CodeTimeout, err.Error())
		}
		return false
	}
	return true
}

// admitRelease returns the slot claimed by admitReq, waking the highest-
// priority queued waiter when the scheduler runs admission.
func (s *Server) admitRelease() {
	if s.sched != nil {
		s.sched.Release()
		return
	}
	<-s.admit
}

// finishAsync releases an entry lock and admission slot once the ticket
// has fully resolved. When the handler's context died first, the release
// runs in a goroutine so the admission slot stays held exactly as long as
// the executor window slot it mirrors.
func (s *Server) finishAsync(t *executor.Ticket, ent *entry) {
	_ = t.Wait()
	ent.mu.Unlock()
	s.admitRelease()
}

// acquireKind is acquire plus the kind check: the locked entry must be a
// block pool (wantPool) or a tensor — the per-tensor endpoints don't apply
// to a pool name, nor the batch ones to a tensor.
func (s *Server) acquireKind(w http.ResponseWriter, sess *session, name string, wantPool bool) (*entry, bool) {
	ent, err := sess.acquire(name)
	if err != nil {
		s.failErr(w, err)
		return nil, false
	}
	if isPool := ent.pool != nil; isPool != wantPool {
		ent.mu.Unlock()
		if wantPool {
			s.failErr(w, errNotPool)
		} else {
			s.failErr(w, errNotTensor)
		}
		return nil, false
	}
	return ent, true
}

// swapOp runs one admission-gated async operation against an entry of the
// given kind — a tensor swap or a whole block batch, which claims ONE slot
// and one lane entry regardless of its block count — and waits for it
// under the request context. The hint picks the admission lane/deadline
// and rides the operation context so the executor can shed speculative
// work at run boundaries. On success the entry is returned still locked
// and still holding the admission slot — the caller reads what it needs,
// then finishes with swapAck or swapData.
func (s *Server) swapOp(w http.ResponseWriter, r *http.Request, sess *session, name string, wantPool bool, hint sched.Hint,
	submit func(context.Context, *entry) *executor.Ticket) (*entry, bool) {
	ent, ok := s.acquireKind(w, sess, name, wantPool)
	if !ok {
		return nil, false
	}
	if !s.admitReq(w, r, hint) {
		ent.mu.Unlock()
		return nil, false
	}
	t := submit(sched.WithHint(r.Context(), hint), ent)
	if err := t.WaitContext(r.Context()); err != nil {
		select {
		case <-t.Done():
			// The ticket resolved (possibly racing the dying context):
			// report its actual outcome.
			if opErr := t.Err(); opErr != nil {
				s.swapFail(w, ent, opErr)
				return nil, false
			}
		default:
			// The client stopped waiting mid-operation. The work still
			// runs to completion; the entry lock and admission slot follow
			// the ticket, not the request.
			go s.finishAsync(t, ent)
			s.fail(w, http.StatusRequestTimeout, CodeTimeout, err.Error())
			return nil, false
		}
	}
	return ent, true
}

// swapFail releases the entry and admission slot a swapOp holds and
// answers with err.
func (s *Server) swapFail(w http.ResponseWriter, ent *entry, err error) {
	ent.mu.Unlock()
	s.admitRelease()
	s.failErr(w, err)
}

// swapAck is the tail of every swap that answers with a bare ack: settle
// the entry's quota bucket with where its payload now lives (a demotion or
// promotion moves the charge; pools are exempt), release the entry and the
// admission slot, acknowledge.
func (s *Server) swapAck(w http.ResponseWriter, sess *session, ent *entry, name string) {
	sess.syncTier(ent)
	ent.mu.Unlock()
	s.admitRelease()
	s.writeFrame(w, &wire.Frame{Type: wire.TypeAck, Name: name})
}

// swapData is the tail of the swaps that answer with the restored bytes.
// The frame is encoded while the entry lock still excludes concurrent
// mutation of its data; it owns a copy once Encode returns, so the lock
// and slot are released before the write.
func (s *Server) swapData(w http.ResponseWriter, ent *entry, f *wire.Frame) {
	b, err := wire.Encode(f)
	ent.mu.Unlock()
	s.admitRelease()
	s.writeEncoded(w, b, err)
}

// handleSwapOut moves the tensor to the host pool through the async
// pipeline, compressing per the request.
func (s *Server) handleSwapOut(w http.ResponseWriter, r *http.Request) {
	f, ok := s.readFrame(w, r, wire.TypeSwapOut)
	if !ok {
		return
	}
	sess := s.session(tenantOf(r))
	ent, ok := s.swapOp(w, r, sess, f.Name, false, hintOf(f, sched.LaneNormal), func(ctx context.Context, ent *entry) *executor.Ticket {
		sess.observeSwap(ent.sparsity, ent.bytes)
		doCompress, alg := s.resolveCodec(sess, ent, f.Compress, f.Alg)
		return s.exec.SwapOutAsyncCtx(ctx, ent.h, doCompress, alg)
	})
	if ok {
		s.swapAck(w, sess, ent, f.Name)
	}
}

// resolveCodec turns a swap-out request's codec choice into a concrete
// one. Explicit algorithms pass through untouched; Auto delegates to the
// service: the tenant's standing tuner verdict when one exists (which may
// be "don't compress"), else the analytic best-ratio codec for this
// tensor's measured sparsity. Every Auto resolution is counted so
// operators can see what the service decided on the tenant's behalf.
func (s *Server) resolveCodec(sess *session, ent *entry, reqCompress bool, reqAlg compress.Algorithm) (bool, compress.Algorithm) {
	if !reqCompress || reqAlg != compress.Auto {
		return reqCompress, reqAlg
	}
	doCompress, alg := true, compress.BestRatioAlgorithm(ent.sparsity)
	if v, ok := sess.currentVerdict(); ok {
		doCompress, alg = v.compress, v.alg
	}
	label := "raw"
	if doCompress {
		label = alg.String()
	}
	s.ins.reg.Counter("server_auto_codec_total",
		metrics.L("tenant", sess.tenant), metrics.L("codec", label)).Inc()
	if !doCompress {
		// The executor ignores the algorithm on a raw swap; ZVC keeps the
		// value well-formed.
		return false, compress.ZVC
	}
	return true, alg
}

// sliceSparsity is the zero fraction of a register payload (1 for the
// empty tensor: nothing to compress).
func sliceSparsity(data []float32) float64 {
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

// handleSwapIn restores the tensor and streams it back.
func (s *Server) handleSwapIn(w http.ResponseWriter, r *http.Request) {
	f, ok := s.readFrame(w, r, wire.TypeSwapIn)
	if !ok {
		return
	}
	sess := s.session(tenantOf(r))
	ent, ok := s.swapOp(w, r, sess, f.Name, false, hintOf(f, sched.LaneNormal), func(ctx context.Context, ent *entry) *executor.Ticket {
		return s.exec.SwapInAsyncCtx(ctx, ent.h)
	})
	if !ok {
		return
	}
	sess.syncTier(ent) // a promotion moves the charge back to the device bucket
	data, err := ent.h.Data()
	if err != nil {
		s.swapFail(w, ent, err)
		return
	}
	s.swapData(w, ent, &wire.Frame{Type: wire.TypeTensorData, Name: f.Name, Data: data})
}

// handlePrefetch requests residency ahead of need; an already-resident
// tensor acks immediately.
func (s *Server) handlePrefetch(w http.ResponseWriter, r *http.Request) {
	f, ok := s.readFrame(w, r, wire.TypePrefetch)
	if !ok {
		return
	}
	sess := s.session(tenantOf(r))
	ent, ok := s.swapOp(w, r, sess, f.Name, false, hintOf(f, sched.LaneSpeculative), func(ctx context.Context, ent *entry) *executor.Ticket {
		return s.exec.PrefetchCtx(ctx, ent.h)
	})
	if ok {
		s.swapAck(w, sess, ent, f.Name)
	}
}

// handleFree releases the tensor and returns its bytes to the quota.
func (s *Server) handleFree(w http.ResponseWriter, r *http.Request) {
	f, ok := s.readFrame(w, r, wire.TypeFree)
	if !ok {
		return
	}
	sess := s.session(tenantOf(r))
	ent, err := sess.acquire(f.Name)
	if err != nil {
		s.failErr(w, err)
		return
	}
	freeErr := func() error {
		if ent.pool != nil {
			return ent.pool.Free()
		}
		return s.exec.Free(ent.h)
	}()
	if freeErr != nil {
		ent.mu.Unlock()
		s.failErr(w, freeErr)
		return
	}
	sess.release(f.Name, ent)
	ent.mu.Unlock()
	s.writeFrame(w, &wire.Frame{Type: wire.TypeAck, Name: f.Name})
}

// handleMetrics exposes the shared registry in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = (metrics.Prometheus{W: w}).Write(s.ins.reg.Snapshot())
}

// handleClusterMap publishes a one-shard map, so a cluster-aware client
// pointed at a plain server routes everything here without special-casing.
func (s *Server) handleClusterMap(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(placement.Map{
		Version:  1,
		Replicas: placement.DefaultReplicas,
		Shards:   []placement.Shard{{ID: 0, State: placement.StateActive}},
	})
}

// handleHealthz reports liveness; a draining server answers 503 so load
// balancers stop routing to it before the listener closes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.fail(w, http.StatusServiceUnavailable, CodeDraining, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
