// Package server is the network-facing swap service: it multiplexes many
// tenants onto one swapping executor, the way the paper frames CSWAP as a
// shared substrate under a training framework (and cDMA models its DMA
// engines as a service many streams contend over).
//
// The protocol is HTTP for the envelope — routing, status codes, deadline
// propagation — with the wire package's length-prefixed binary frames as
// the request and response bodies. The ten operations are the rows of
// wire.Ops: five act on per-tenant tensor namespaces (register, swap-out,
// swap-in, prefetch, free) and five on paged block pools (register-pool,
// batch-write, batch-swap-out, batch-swap-in, batch-prefetch). Every one of
// them enters through the same handler, which reads the URL, the request
// frame type, the admission lane and the family of frames (tensor or pool)
// from the table. Every name holds one kind of object, an executor block
// pool — a tensor is a pool of one block (object.go) — so every operation
// has one body whatever the name was registered as. /metrics exposes the
// shared registry in Prometheus text format and /healthz the
// liveness/draining state.
//
// Three admission layers keep the shared executor healthy under load:
//
//   - Per-tenant device-memory quotas, charged at register time before the
//     shared pool is touched, so tenants fail individually, not each other.
//   - One admission path for every swap: the scheduler (internal/sched),
//     always present, with WithMaxInFlight slots — the only window a served
//     swap holds. A request takes a free slot or joins its lane's bounded
//     earliest-deadline-first queue, keyed by the wire frame's lane/deadline
//     hint; a full lane answers 429 + Retry-After, a deadline that passes
//     while queued answers 429 "expired", critical work jumps queued
//     speculative work, and in-flight speculative swaps shed at run
//     boundaries when critical work starves (the executor's yield hook,
//     executor.WithYield). SchedConfig.Enabled selects only the queue
//     depth: false is depth zero — all slots taken means 429 at once.
//   - Per-name request locks that answer 409 "busy" on contention — the
//     executor's ErrBusy discipline surfaced at the HTTP boundary, and the
//     guarantee that a response encodes an object no concurrent request is
//     mutating.
//
// A swap runs in its handler's goroutine, from admission to commit: the
// handler holds one admission slot for the whole swap and drives the
// executor's synchronous run loop itself (executor.BlockPool.Swap), so no
// run is handed to a worker pool. The executor's launch is fixed at boot.
//
// Shutdown is ordered: stop intake (everything answers 503), fail the
// queued admission waiters, wait until every admitted swap has released
// its slot (sched.Scheduler.Drain), then close the executor.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"cswap/internal/compress"
	"cswap/internal/devmem"
	"cswap/internal/executor"
	"cswap/internal/metrics"
	"cswap/internal/placement"
	"cswap/internal/sched"
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
	CodeSaturated = "saturated" // no admission slot and no room to queue: retry after Retry-After
	CodeExpired   = "expired"   // deadline passed while queued for admission: do NOT retry
	CodeQuota     = "quota"     // tenant quota exceeded: free something first
	CodeOOM       = "oom"       // shared pool exhausted
	CodeNotFound  = "not-found" // unknown tensor
	CodeExists    = "exists"    // duplicate register
	CodeState     = "state"     // operation illegal in the tensor's state
	CodeDraining  = "draining"  // server shutting down
	CodeBadFrame  = "bad-frame" // malformed wire frame
	CodeTimeout   = "timeout"   // request context died while queued for admission
	CodeInternal  = "internal"
)

// instruments are the server's pre-resolved metric cells; per-tenant
// series live on the tenant's session, each resolved once.
type instruments struct {
	backpressure *metrics.Counter // 429s: admission refused (lane full, deadline expired, work shed)
	busy         *metrics.Counter // 409s: per-tensor contention
	sessions     *metrics.Gauge
	reg          *metrics.Registry
	ops          [len(wire.Ops)]opCells
}

// opCells are one operation's own series, resolved when its handler is
// built: the latency histogram and, for the pool operations, the request
// and block counters (labelled with the operation's name less the batch-
// prefix).
type opCells struct {
	latency                *metrics.Histogram
	batchReqs, batchBlocks *metrics.Counter
}

// Server multiplexes tenant sessions onto one executor.
type Server struct {
	cfg   config
	exec  *executor.Executor
	tier  *tier.Store // nil without a tier directory
	obs   *metrics.Observer
	ins   instruments
	sched *sched.Scheduler // admission: MaxInFlight slots, per-lane queues
	// yield is the run-boundary check attached to every speculative swap:
	// it fires while a critical waiter starves (shedSpeculative).
	yield func() bool
	mux   *http.ServeMux
	tuner *tuner
	// staging pools the buffers batch-write payloads decode into and
	// scattered batch-swap-in responses are gathered in; heads, the buffers
	// response frames' heads are encoded into (respond); replies, the
	// swap-ins' answers in the making (reply). None of them reaches a
	// client: each goes back once the frame it served is written.
	staging sync.Pool // *[]float32
	heads   sync.Pool // *[]byte
	replies sync.Pool // *reply

	mu       sync.Mutex
	sessions map[string]*session
	draining bool
}

// newServer builds one shard from a resolved config.
func newServer(cfg config) (*Server, error) {
	if cfg.maxInFlight == 0 {
		cfg.maxInFlight = executor.DefaultMaxInFlight
	}
	if cfg.tenantQuota == 0 {
		cfg.tenantQuota = cfg.deviceCapacity
	}
	reg := cfg.observer.Reg()
	var ts *tier.Store
	if cfg.tierDir != "" {
		if cfg.tierCap == 0 {
			cfg.tierCap = 4 * cfg.hostCapacity
		}
		if cfg.tenantTierQuota == 0 {
			cfg.tenantTierQuota = cfg.tierCap
		}
		if cfg.tierWatermark == 0 {
			cfg.tierWatermark = DefaultTierWatermark
		}
		var err error
		if ts, err = tier.Open(cfg.tierDir, cfg.tierCap, cfg.faults); err != nil {
			return nil, fmt.Errorf("server: spill tier: %w", err)
		}
		// Handles and sessions live only in memory, so what a previous
		// process left in the directory is an orphan no swap-in can name:
		// Open removed it, unread.
		reg.Counter("server_tier_orphan_bytes_scrubbed_total").Add(float64(ts.Reclaimed()))
	}
	// sched.Config's negative depth (never queue) is this package's way to
	// spell Enabled false, not a value SchedConfig.LaneDepth can carry.
	depth := [sched.NumLanes]int{-1, -1, -1}
	if cfg.sched.Enabled {
		for l, d := range cfg.sched.LaneDepth {
			depth[l] = max(d, 0)
		}
	}
	schd, err := sched.New(sched.Config{
		Slots:       cfg.maxInFlight,
		LaneDepth:   depth,
		StarveAfter: cfg.sched.StarveAfter,
		Metrics:     reg,
		Prefix:      "server",
	})
	if err != nil {
		_ = ts.Close()
		return nil, fmt.Errorf("server: sched: %w", err)
	}
	exec, err := executor.New(executor.Config{
		DeviceCapacity: cfg.deviceCapacity,
		HostCapacity:   cfg.hostCapacity,
		Launch:         cfg.launch,
		Verify:         cfg.verify,
		Faults:         cfg.faults,
		Tier:           ts,
		TierWatermark:  cfg.tierWatermark,
		Observer:       cfg.observer,
	})
	if err != nil {
		_ = ts.Close()
		return nil, err
	}
	s := &Server{
		cfg:  cfg,
		exec: exec,
		tier: ts,
		obs:  cfg.observer,
		ins: instruments{
			backpressure: reg.Counter("server_backpressure_total"),
			busy:         reg.Counter("server_busy_total"),
			sessions:     reg.Gauge("server_sessions"),
			reg:          reg,
		},
		sched:    schd,
		staging:  sync.Pool{New: func() any { return new([]float32) }},
		heads:    sync.Pool{New: func() any { b := make([]byte, 0, headCap); return &b }},
		replies:  sync.Pool{New: func() any { return new(reply) }},
		sessions: map[string]*session{},
	}
	s.yield = s.shedSpeculative
	s.mux = http.NewServeMux()
	for typ := range wire.Ops {
		if op := &wire.Ops[typ]; op.Path != "" {
			s.mux.HandleFunc("POST /v1/"+op.Path, s.handler(wire.Type(typ), op))
		}
	}
	s.mux.HandleFunc("GET /metrics", metricsHandler(s.ins.reg))
	s.mux.HandleFunc("GET /healthz", healthzHandler(s.isDraining, s.cfg.retryAfter))
	s.mux.HandleFunc("GET /cluster", s.handleClusterMap)
	if cfg.tuner.Enabled {
		s.tuner = startTuner(s, cfg.tuner)
	}
	return s, nil
}

// Handler returns the server's HTTP handler, for mounting on any listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Executor exposes the shared executor (tests and embedders).
func (s *Server) Executor() *executor.Executor { return s.exec }

// Tier exposes the disk spill tier, nil without WithTierDir.
func (s *Server) Tier() *tier.Store { return s.tier }

// Registry exposes the shared metrics registry backing /metrics.
func (s *Server) Registry() *metrics.Registry { return s.ins.reg }

// Drain stops intake: every subsequent /v1/ request (and /healthz) answers
// 503 with the draining code. In-flight requests are unaffected: each
// finishes its swap under the admission slot it holds.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Close shuts the service down in order: stop intake, wait out the swaps
// handlers still run — each holds an admission slot until its swap has
// committed — then close the executor and the spill tier, whose scratch
// file goes with it. It does not need the HTTP listener closed first: a
// handler mid-swap when Close starts has committed its swap by the time
// Close returns.
func (s *Server) Close() error {
	s.Drain()
	if s.tuner != nil {
		s.tuner.Stop() // no probe races shutdown
	}
	// Fail queued admission waiters (503 draining) before the barrier, so
	// no handler is left waiting on a lane that will never be granted.
	s.sched.Close()
	s.sched.Drain()
	// The tier closes last: the executor's watermark demoter has stopped.
	return errors.Join(s.exec.Close(), s.tier.Close())
}

// session returns the tenant's session, creating it on first use.
func (s *Server) session(tenant string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[tenant]
	if !ok {
		sess = newSession(tenant, s.cfg.tenantQuota, s.cfg.tenantTierQuota, s.ins.reg)
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

// intake is a request's one look at the server's state: whether intake is
// stopped, and the tenant's session (nil before its first well-formed
// request).
func (s *Server) intake(tenant string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[tenant], s.draining
}

// unframedTenant is the tenant label server_requests_total counts a request
// under when its frame was refused before its tenant had a session.
const unframedTenant = "-"

// tenantOf extracts the request's tenant name.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return DefaultTenant
}

// handler is the entry point of every operation: the draining gate, the
// per-tenant request/latency series, the request frame of the type the
// table row names, then the one of four bodies the row selects.
func (s *Server) handler(typ wire.Type, op *wire.Op) http.HandlerFunc {
	cells := &s.ins.ops[typ]
	cells.latency = s.ins.reg.Histogram("server_request_seconds", metrics.L("op", op.Path))
	if op.Pool {
		label := metrics.L("op", strings.TrimPrefix(op.Path, "batch-"))
		cells.batchReqs = s.ins.reg.Counter("server_batch_requests_total", label)
		cells.batchBlocks = s.ins.reg.Counter("server_batch_blocks_total", label)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := tenantOf(r)
		sess, draining := s.intake(tenant)
		if draining {
			fail(w, s.cfg.retryAfter, http.StatusServiceUnavailable, CodeDraining, "server is draining")
			return
		}
		if sess != nil {
			sess.countRequest(typ)
		}
		start := time.Now()
		// Only a batch-write's payload is staging — verified whole, then
		// copied into the pool under the lock — so only it decodes into a
		// pooled buffer (empty when new: the frame allocates).
		var stage *[]float32
		var dst []float32
		if typ == wire.TypeBatchData {
			stage = s.staging.Get().(*[]float32)
			defer s.staging.Put(stage)
			dst = *stage
		}
		f, ok := s.readFrame(w, r, typ, dst)
		switch {
		case sess != nil:
		case ok: // a tenant's first request: its session waits for a well-formed frame
			sess = s.session(tenant)
			sess.countRequest(typ)
		default: // no series for a name only a refused frame carried
			s.ins.reg.Counter("server_requests_total",
				metrics.L("tenant", unframedTenant), metrics.L("op", op.Path)).Inc()
		}
		if ok {
			switch {
			case op.Register:
				s.register(w, sess, f)
			case op.Sched:
				s.swap(w, r, sess, f, op)
			case typ == wire.TypeFree:
				s.free(w, sess, f)
			default:
				s.write(w, sess, f)
				*stage = f.Data[:cap(f.Data)] // stage, or the larger buffer it was too short for
			}
		}
		cells.latency.Observe(time.Since(start).Seconds())
	}
}

// fail writes an error response — a shard's or the cluster router's: the
// machine code in ErrorHeader, the human message in the body, and on the
// refusals a client should retry (every 429, busy, draining) the owner's
// Retry-After hint.
func fail(w http.ResponseWriter, retryAfter time.Duration, status int, code, msg string) {
	w.Header().Set(ErrorHeader, code)
	if status == http.StatusTooManyRequests || code == CodeBusy || code == CodeDraining {
		// Truncated to whole seconds; "0" is a legal hint meaning "retry
		// immediately" and lets tests run sub-second backoff loops.
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter/time.Second)))
	}
	http.Error(w, msg, status)
}

// failErr maps a service/executor error onto an HTTP response.
func (s *Server) failErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errEntryBusy), errors.Is(err, executor.ErrBusy):
		s.ins.busy.Inc()
		fail(w, s.cfg.retryAfter, http.StatusConflict, CodeBusy, err.Error())
	case errors.Is(err, executor.ErrShed):
		// Speculative work shed under critical pressure: same retry story
		// as a saturated window.
		s.ins.backpressure.Inc()
		fail(w, s.cfg.retryAfter, http.StatusTooManyRequests, CodeSaturated, err.Error())
	case errors.Is(err, ErrQuotaExceeded):
		fail(w, s.cfg.retryAfter, http.StatusInsufficientStorage, CodeQuota, err.Error())
	case errors.Is(err, devmem.ErrOutOfMemory):
		fail(w, s.cfg.retryAfter, http.StatusInsufficientStorage, CodeOOM, err.Error())
	case errors.Is(err, ErrUnknownTensor):
		fail(w, s.cfg.retryAfter, http.StatusNotFound, CodeNotFound, err.Error())
	case errors.Is(err, ErrAlreadyRegistered):
		fail(w, s.cfg.retryAfter, http.StatusConflict, CodeExists, err.Error())
	case errors.Is(err, executor.ErrFreed):
		fail(w, s.cfg.retryAfter, http.StatusGone, CodeState, err.Error())
	case errors.Is(err, executor.ErrClosed):
		fail(w, s.cfg.retryAfter, http.StatusServiceUnavailable, CodeDraining, err.Error())
	case errors.Is(err, errGeometry):
		fail(w, s.cfg.retryAfter, http.StatusBadRequest, CodeBadFrame, err.Error())
	default:
		// "already swapped/resident" misuse and everything else the state
		// machine refuses: a conflict the client can resolve, not a server
		// fault — but genuinely unknown failures are 500s.
		if errors.Is(err, executor.ErrNotResident) || errors.Is(err, executor.ErrNotSwapped) ||
			errors.Is(err, errKind) {
			fail(w, s.cfg.retryAfter, http.StatusConflict, CodeState, err.Error())
			return
		}
		fail(w, s.cfg.retryAfter, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

// readFrame decodes the request body as one frame of the expected type,
// its float field read off the body straight into dst when that is long
// enough, else into a fresh slice — the one a register keeps as the tensor.
func (s *Server) readFrame(w http.ResponseWriter, r *http.Request, want wire.Type, dst []float32) (*wire.Frame, bool) {
	f, err := wire.ReadInto(r.Body, s.cfg.maxPayload, dst)
	if err != nil {
		fail(w, s.cfg.retryAfter, http.StatusBadRequest, CodeBadFrame, err.Error())
		return nil, false
	}
	if f.Type != want {
		fail(w, s.cfg.retryAfter, http.StatusBadRequest, CodeBadFrame,
			fmt.Sprintf("server: %s endpoint got %s frame", want, f.Type))
		return nil, false
	}
	return f, true
}

// respond streams a response frame with its length declared: the fields
// before the float field from a pooled buffer (heads), the float field —
// f.Data, or segs in its place — from the memory it lives in, after one CRC
// pass (none when f carries the field's recorded CRC, as a tensor's does).
// The buffer goes back to the pool once the frame is written.
func (s *Server) respond(w http.ResponseWriter, f *wire.Frame, segs ...[]float32) {
	head := s.heads.Get().(*[]byte)
	defer s.heads.Put(head)
	enc, err := wire.Prepare(*head, f, segs...)
	if err != nil {
		fail(w, s.cfg.retryAfter, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	h := w.Header()
	h["Content-Type"] = octetStream
	h.Set("Content-Length", strconv.FormatInt(enc.Len(), 10))
	_, _ = enc.WriteTo(w)
}

// headCap is the capacity of a pooled response head: a short name and a few
// dozen runs. A longer head is encoded into a buffer of its own.
const headCap = 256

// octetStream is the Content-Type value of every frame body, shared
// read-only by the header maps it is set in.
var octetStream = []string{"application/octet-stream"}

// qualified is the executor-facing tensor name, namespaced by tenant so
// per-tensor series and events stay distinct across sessions.
func qualified(tenant, name string) string { return tenant + "/" + name }

// batchSeen counts one pool request and its block volume (the tensor
// operations have no such series: their cells are nil, and count nothing).
func (s *Server) batchSeen(typ wire.Type, blocks int) {
	s.ins.ops[typ].batchReqs.Inc()
	s.ins.ops[typ].batchBlocks.Add(float64(blocks))
}

// ack answers with the bare acknowledgement frame.
func (s *Server) ack(w http.ResponseWriter, name string) {
	s.respond(w, &wire.Frame{Type: wire.TypeAck, Name: name})
}

// register admits the tensor's bytes — or a pool's whole device
// reservation: the batch ops that follow are pre-paid — against the tenant
// quota, then places it in the shared device pool, charged to the tenant's
// ledger.
func (s *Server) register(w http.ResponseWriter, sess *session, f *wire.Frame) {
	ent, err := s.reserveDemoting(sess, f.Name, chargeOf(f))
	if err != nil {
		if errors.Is(err, ErrQuotaExceeded) {
			s.ins.reg.Counter("server_quota_rejections_total", metrics.L("tenant", sess.tenant)).Inc()
		}
		s.failErr(w, err)
		return
	}
	if ent.obj, err = newObject(s.exec, qualified(sess.tenant, f.Name), f, sess.charge); err != nil {
		sess.release(f.Name, ent)
		ent.mu.Unlock()
		s.failErr(w, err)
		return
	}
	// A pool's region starts zeroed (sparsity 1, what an empty payload
	// measures); batch-write re-measures.
	ent.sparsity = sliceSparsity(f.Data)
	ent.mu.Unlock()
	s.batchSeen(f.Type, f.NumBlocks)
	s.ack(w, f.Name)
}

// reserveDemoting is reserve with the demote-then-admit fallback: a
// tenant-quota refusal with a spill tier attached first tries to demote
// the tenant's swapped tensors and pool runs to disk — migrating their
// quota charge to the tier bucket — and retries the reservation. 507
// survives only when both the device quota and the tier quota are
// exhausted.
func (s *Server) reserveDemoting(sess *session, name string, bytes int64) (*entry, error) {
	ent, err := sess.reserve(name, bytes)
	if err != nil && errors.Is(err, ErrQuotaExceeded) && s.tier != nil && s.demoteForAdmit(sess, bytes) {
		ent, err = sess.reserve(name, bytes)
	}
	return ent, err
}

// demoteForAdmit walks the tenant's entries, tensors and block pools alike,
// demoting each one's swapped, host-resident runs into the disk tier until
// the device quota bucket has room for `need` more bytes, reporting whether
// it does. The executor moves each demoted run's charge to the tier bucket.
// Busy entries are skipped, and so is an entry whose whole size (ent.bytes,
// the most its demotion can move) the tier quota cannot take: demote-then-
// admit never charges the tier bucket past its quota. An entry counts as a
// demote-admit only when its demotion moved bytes — a resident tensor, or
// one already in the tier, moves none.
func (s *Server) demoteForAdmit(sess *session, need int64) bool {
	for _, name := range sess.entryNames() {
		if sess.deviceHeadroom(need) {
			break
		}
		ent, err := sess.acquire(name, 0)
		if err != nil {
			continue
		}
		if sess.tierHeadroom(ent.bytes) {
			// A failed demotion (a full tier) only leaves less room, which
			// the reservation's retry reports.
			if moved, _ := ent.obj.p.DemoteSwapped(); moved > 0 {
				s.ins.reg.Counter("server_tier_demote_admits_total",
					metrics.L("tenant", sess.tenant)).Inc()
			}
		}
		ent.mu.Unlock()
	}
	return sess.deviceHeadroom(need)
}

// hintOf derives a request's admission lane and deadline (zero: none) from
// the wire frame's optional sched extension: without one the request rides
// its operation's default lane (demand swaps normal, prefetches
// speculative) with no deadline. The frame's relative deadline becomes
// absolute here, at decode time.
func hintOf(f *wire.Frame, fallback sched.Lane) (lane sched.Lane, deadline time.Time) {
	if !f.HasSched {
		return fallback, time.Time{}
	}
	if f.DeadlineMicros > 0 {
		deadline = time.Now().Add(time.Duration(f.DeadlineMicros) * time.Microsecond)
	}
	return sched.Lane(f.Lane), deadline
}

// admitReq claims one admission slot for a swap request: a free slot, or a
// place in its lane's bounded EDF queue. A full lane (always, at depth zero)
// answers 429 saturated immediately, a deadline that passes while queued
// answers 429 "expired" (retrying the same deadline is pointless), and a
// granted request proceeds holding one of the MaxInFlight slots until its
// swap's tail releases it.
func (s *Server) admitReq(w http.ResponseWriter, r *http.Request, lane sched.Lane, deadline time.Time) bool {
	err := s.sched.Acquire(r.Context(), lane, deadline)
	switch {
	case err == nil:
		return true
	case errors.Is(err, sched.ErrExpired):
		s.ins.backpressure.Inc()
		fail(w, s.cfg.retryAfter, http.StatusTooManyRequests, CodeExpired, err.Error())
	case errors.Is(err, sched.ErrLaneFull):
		s.ins.backpressure.Inc()
		fail(w, s.cfg.retryAfter, http.StatusTooManyRequests, CodeSaturated, err.Error())
	case errors.Is(err, sched.ErrClosed):
		fail(w, s.cfg.retryAfter, http.StatusServiceUnavailable, CodeDraining, err.Error())
	default:
		// The client's own context died while queued.
		fail(w, s.cfg.retryAfter, http.StatusRequestTimeout, CodeTimeout, err.Error())
	}
	return false
}

// shedSpeculative is a speculative swap's yield function: it fires while a
// critical waiter starves, and records the preemption the executor then
// makes.
func (s *Server) shedSpeculative() bool {
	if !s.sched.ShouldShed(sched.LaneSpeculative) {
		return false
	}
	s.sched.Preempted()
	return true
}

// swapOp runs one admission-gated swap against the entry f names — a tensor
// swap or a whole block batch, which claims ONE admission slot and one lane
// entry regardless of its block count — in the handler's own goroutine, run
// after run (executor.BlockPool.Swap). The entry must accept f's family of
// frames (acquireFor). A swap-out is priced by its blocks, counted after
// coalescing. The frame's hint picks the admission lane/deadline; a swap
// admitted on the speculative lane also carries s.yield, so it sheds at a
// run boundary while critical work starves. A client that gives up
// mid-operation does not stop it: the swap runs to commit, holding the
// entry and the slot until it returns. runs is the request's coalesced run
// table, which the executor takes as it is. On success the entry is returned
// still locked and still holding the slot — the caller reads what it needs,
// then finishes with swapAck or swapData.
func (s *Server) swapOp(w http.ResponseWriter, r *http.Request, sess *session, f *wire.Frame, op *wire.Op, runs []executor.BlockRun, blocks int) (*entry, bool) {
	ent, err := sess.acquireFor(f, s.cfg.retryAfter)
	if err != nil {
		s.failErr(w, err)
		return nil, false
	}
	lane, deadline := hintOf(f, sched.Lane(op.Lane))
	if !s.admitReq(w, r, lane, deadline) {
		ent.mu.Unlock()
		return nil, false
	}
	ctx := r.Context()
	if lane == sched.LaneSpeculative {
		ctx = executor.WithYield(ctx, s.yield)
	}
	var doCompress bool
	var alg compress.Algorithm
	if f.Type == wire.TypeSwapOut || f.Type == wire.TypeBatchSwapOut {
		sess.observeSwap(ent.sparsity, ent.obj.swapBytes(blocks))
		doCompress, alg = s.resolveCodec(sess, ent, f.Compress, f.Alg)
	}
	if err := ent.obj.p.Swap(ctx, op.Path, runs, len(f.BlockIDs), doCompress, alg); err != nil {
		s.swapFail(w, ent, err)
		return nil, false
	}
	return ent, true
}

// swapFail releases the entry and the slot a swapOp holds and answers with
// err.
func (s *Server) swapFail(w http.ResponseWriter, ent *entry, err error) {
	ent.mu.Unlock()
	s.sched.Release()
	s.failErr(w, err)
}

// swapAck is the tail of every swap that answers with a bare ack: release
// the entry and the slot, acknowledge.
func (s *Server) swapAck(w http.ResponseWriter, ent *entry, name string) {
	ent.mu.Unlock()
	s.sched.Release()
	s.ack(w, name)
}

// Every swap-in response gets writeGrace plus its entry's size at
// writeFloorRate to reach the socket: the entry lock is held across that
// write, and a reader slower than the floor must not pin the tensor.
const (
	writeGrace     = 10 * time.Second
	writeFloorRate = 1 << 20 // bytes per second
)

// swapData is the tail of the swaps that answer with the restored bytes,
// served from the object's own memory: the frame is summed and written
// under the entry lock, which still excludes concurrent mutation, so
// nothing is staged or copied. The slot bounds executor work, not socket
// time, and goes back first; the write deadline bounds how long a
// stalled reader can hold the lock. The reader may send its next request
// on the tensor before the write returns, so a request that finds the lock
// held by the write waits for it, for up to its Retry-After hint, rather
// than being told to retry in that long (session.acquire).
//
// A pool's scattered runs are the exception: written one by one, each few
// KiB is a socket write and a wakeup of the reader (six writes where an
// encoded copy took two, and on a two-core box that moved the kv-decode
// tails from run to run), so they are gathered into pooled staging and
// leave as one piece, after the lock.
func (s *Server) swapData(w http.ResponseWriter, ent *entry, f *wire.Frame, segs [][]float32) {
	s.sched.Release()
	if len(segs) > 1 {
		n := 0
		for _, seg := range segs {
			n += len(seg)
		}
		stage := s.staging.Get().(*[]float32)
		defer s.staging.Put(stage)
		if cap(*stage) < n {
			*stage = make([]float32, n)
		}
		f.Data = (*stage)[:0]
		for _, seg := range segs {
			f.Data = append(f.Data, seg...)
		}
		ent.mu.Unlock()
		s.respond(w, f)
		return
	}
	// A writer without deadlines (a test recorder) has no slow reader either.
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Now().Add(s.cfg.writeGrace + time.Duration(ent.bytes/writeFloorRate)*time.Second))
	// The write token goes back after mu, so that a request waiting for the
	// write (session.acquire) finds mu free.
	ent.writing <- struct{}{}
	s.respond(w, f, segs...)
	ent.mu.Unlock()
	<-ent.writing
	_ = rc.SetWriteDeadline(time.Time{}) // the connection outlives this response
}

// swap is the body of the six schedulable operations: one admission slot,
// one executor operation run in this goroutine (for a pool: one coalesced
// batch, run after run), then an ack —
// or, for the swap-ins, the restored content streamed back as one data
// frame. The request's blocks are coalesced once, up front — block 0 for a
// scalar frame — and that run list is the one the executor swaps; it also
// prices a swap-out, counts a pool request's blocks (a duplicated ID counts
// once on every operation) and selects what a swap-in answers with.
func (s *Server) swap(w http.ResponseWriter, r *http.Request, sess *session, f *wire.Frame, op *wire.Op) {
	runs := block0
	if op.Pool {
		runs = executor.CoalesceBlockIDs(f.BlockIDs)
	}
	blocks := 0
	for _, run := range runs {
		blocks += run.Count
	}
	ent, ok := s.swapOp(w, r, sess, f, op, runs, blocks)
	if !ok {
		return
	}
	s.batchSeen(f.Type, blocks)
	if op.Resp == wire.TypeAck {
		s.swapAck(w, ent, f.Name)
		return
	}
	rep := s.replies.Get().(*reply)
	defer func() { rep.reset(); s.replies.Put(rep) }()
	if err := ent.obj.read(rep, op.Resp, f.Name, runs); err != nil {
		s.swapFail(w, ent, err)
		return
	}
	s.swapData(w, ent, &rep.f, rep.segs)
}

// write stores packed block contents into resident blocks. It is a
// device-memory write, not a swap: no admission slot is consumed.
func (s *Server) write(w http.ResponseWriter, sess *session, f *wire.Frame) {
	ent, err := sess.acquireFor(f, s.cfg.retryAfter)
	if err != nil {
		s.failErr(w, err)
		return
	}
	covered, err := ent.obj.write(f)
	if err != nil {
		ent.mu.Unlock()
		s.failErr(w, err)
		return
	}
	// Fold what was actually written into the pool-wide sparsity, weighted
	// by the fraction of blocks this write covers: the signal Auto codec
	// resolution and the tuner profile key off describes the whole pool,
	// and letting a partial write overwrite it would swing every later
	// codec decision on the sliver this batch happened to touch.
	ent.sparsity = ent.sparsity*(1-covered) + sliceSparsity(f.Data)*covered
	ent.mu.Unlock()
	s.batchSeen(f.Type, wire.TotalBlocks(f.Runs))
	s.ack(w, f.Name)
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
	sess.countAuto(doCompress, alg)
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

// free releases the tensor or pool and returns its bytes to the quota.
func (s *Server) free(w http.ResponseWriter, sess *session, f *wire.Frame) {
	ent, err := sess.acquire(f.Name, s.cfg.retryAfter)
	if err != nil {
		s.failErr(w, err)
		return
	}
	if err := ent.obj.p.Free(); err != nil {
		ent.mu.Unlock()
		s.failErr(w, err)
		return
	}
	sess.release(f.Name, ent)
	ent.mu.Unlock()
	s.ack(w, f.Name)
}

// metricsHandler exposes reg — a server's registry, or the one a cluster's
// shards share — in Prometheus text format.
func metricsHandler(reg *metrics.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = (metrics.Prometheus{W: w}).Write(reg.Snapshot())
	}
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

// healthzHandler reports liveness; a draining server or cluster answers 503
// so load balancers stop routing to it before the listener closes.
func healthzHandler(draining func() bool, retryAfter time.Duration) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if draining() {
			fail(w, retryAfter, http.StatusServiceUnavailable, CodeDraining, "draining")
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}
}
