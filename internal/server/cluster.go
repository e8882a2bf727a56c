package server

// Cluster shards the swap service across N executors. Each shard is a
// complete Server — its own device/host pools, admission scheduler, tenant
// sessions, and tuner — so every admission decision (quota 507,
// backpressure 429, per-tensor busy 409) is made per shard, and one
// shard's saturation never refuses another shard's traffic. A consistent-
// hash ring over the active shards (internal/placement) decides which
// shard owns each (tenant, tensor) key; the router peeks the tensor name
// out of the wire frame, dispatches to the owner, and validates the
// client's routing hint so a cluster-aware client and the server always
// agree on placement or find out immediately (421 misrouted).
//
// Topology changes are versioned: the /cluster endpoint publishes the
// shard map, and a drain (POST /admin/drain?shard=N) marks the shard
// draining, bumps the version, and migrates every tensor it holds to the
// ring's new owners over the existing swap wire format — each tensor is
// encoded as a tensor-data frame (each block pool as a batch-data frame)
// and decoded on arrival, so what migrates restores byte-identically.
// While a drain runs, requests for not-yet-moved tensors fall back from
// the ring owner to the draining shard, so clients see at worst a
// retryable refusal, never a lost tensor.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"cswap/internal/compress"
	"cswap/internal/metrics"
	"cswap/internal/placement"
	"cswap/internal/wire"
)

// Cluster-routing headers. A cluster-aware client sends ShardHeader with
// the shard it computed from its cached map; the router answers 421 with
// OwnerHeader when the hint disagrees with the current ring, so the
// client knows to refresh its map and retry.
const (
	ShardHeader      = "X-CSwap-Shard"
	OwnerHeader      = "X-CSwap-Owner"
	MapVersionHeader = "X-CSwap-Map-Version"
)

// CodeMisrouted is the ErrorHeader code for a stale routing hint.
const CodeMisrouted = "misrouted"

// clusterInstruments are the cluster-level metric cells; per-shard series
// live in each shard's shard="N"-labeled registry view.
type clusterInstruments struct {
	misrouted    *metrics.Counter // 421s: stale client routing hints
	fallbacks    *metrics.Counter // requests served by a draining shard
	rebTensors   *metrics.Counter // tensors moved by drains
	rebBytes     *metrics.Counter // bytes moved by drains
	activeShards *metrics.Gauge
	mapVersion   *metrics.Gauge
}

// Cluster multiplexes tenant traffic across shard Servers behind one
// HTTP handler.
type Cluster struct {
	shards     []*Server
	obs        *metrics.Observer
	reg        *metrics.Registry
	ins        clusterInstruments
	mux        *http.ServeMux
	maxPayload uint32
	retryAfter time.Duration

	mu       sync.Mutex
	states   []string // placement.State* per shard, indexed by shard ID
	version  int
	ring     *placement.Ring // over active shards; rebuilt on topology change
	draining bool
}

// NewCluster builds an n-shard cluster from functional options (n from
// WithShards, default 1). Per-shard knobs apply to each shard
// independently; the observer's registry is shared, with each shard
// writing through a shard="N"-labeled view.
func NewCluster(opts ...Option) (*Cluster, error) {
	cfg := resolve(opts)
	reg := cfg.observer.Reg()
	c := &Cluster{
		obs:        cfg.observer,
		reg:        reg,
		maxPayload: cfg.maxPayload,
		retryAfter: cfg.retryAfter,
		version:    1,
		ins: clusterInstruments{
			misrouted:    reg.Counter("cluster_misrouted_total"),
			fallbacks:    reg.Counter("cluster_drain_fallback_total"),
			rebTensors:   reg.Counter("cluster_rebalanced_tensors_total"),
			rebBytes:     reg.Counter("cluster_rebalanced_bytes_total"),
			activeShards: reg.Gauge("cluster_active_shards"),
			mapVersion:   reg.Gauge("cluster_map_version"),
		},
	}
	if c.maxPayload == 0 {
		c.maxPayload = wire.DefaultMaxPayload
	}
	for i := 0; i < cfg.shards; i++ {
		shardCfg := cfg
		// Shards share the registry through shard-labeled views.
		shardCfg.observer = &metrics.Observer{
			Metrics: reg.Sub(metrics.L("shard", strconv.Itoa(i))),
			OnEvent: cfg.observer.OnEvent,
		}
		if cfg.tierDir != "" {
			// Each shard owns its own spill directory: tier keys are only
			// unique per executor, and a drained shard's leftovers must not
			// shadow a live shard's blobs.
			shardCfg.tierDir = filepath.Join(cfg.tierDir, "shard-"+strconv.Itoa(i))
		}
		s, err := newServer(shardCfg)
		if err != nil {
			for _, prev := range c.shards {
				_ = prev.Close()
			}
			return nil, fmt.Errorf("server: shard %d: %w", i, err)
		}
		c.shards = append(c.shards, s)
		c.states = append(c.states, placement.StateActive)
	}
	c.rebuildRingLocked()
	c.mux = http.NewServeMux()
	for _, op := range wire.Ops {
		if op.Path != "" {
			c.mux.HandleFunc("POST /v1/"+op.Path, c.route)
		}
	}
	// The shared registry: every shard's labeled series plus the cluster's.
	c.mux.HandleFunc("GET /metrics", metricsHandler(c.reg))
	c.mux.HandleFunc("GET /healthz", healthzHandler(c.isDraining, c.retryAfter))
	c.mux.HandleFunc("GET /cluster", c.handleClusterMap)
	c.mux.HandleFunc("POST /admin/drain", c.handleDrain)
	return c, nil
}

// rebuildRingLocked recomputes the ring over active shards and refreshes
// the topology gauges. Caller holds c.mu (or is still constructing).
func (c *Cluster) rebuildRingLocked() {
	var active []int
	for i, st := range c.states {
		if st == placement.StateActive {
			active = append(active, i)
		}
	}
	c.ring = placement.NewRing(active, placement.DefaultReplicas)
	c.ins.activeShards.Set(float64(len(active)))
	c.ins.mapVersion.Set(float64(c.version))
}

// Handler returns the cluster's HTTP handler.
func (c *Cluster) Handler() http.Handler { return c.mux }

// Registry exposes the shared metrics registry backing /metrics.
func (c *Cluster) Registry() *metrics.Registry { return c.reg }

// NumShards returns the shard count (drained shards included).
func (c *Cluster) NumShards() int { return len(c.shards) }

// Shard exposes one shard's Server (tests and embedders).
func (c *Cluster) Shard(i int) *Server { return c.shards[i] }

// Map returns the current shard map, the same document /cluster serves.
func (c *Cluster) Map() placement.Map {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := placement.Map{Version: c.version, Replicas: placement.DefaultReplicas}
	for i, st := range c.states {
		m.Shards = append(m.Shards, placement.Shard{ID: i, State: st})
	}
	return m
}

// Drain stops intake on the cluster and every shard; in-flight requests
// finish.
func (c *Cluster) Drain() {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	for _, s := range c.shards {
		s.Drain()
	}
}

// Close shuts the cluster down: stop intake everywhere, then close each
// shard (which waits out its admitted swaps first).
func (c *Cluster) Close() error {
	c.Drain()
	var first error
	for _, s := range c.shards {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *Cluster) isDraining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// peekPool recycles the buffers route peeks frame heads into.
var peekPool = sync.Pool{New: func() any { return new([wire.PeekLen]byte) }}

// route is the cluster's /v1/* entry point: peek the header and the name
// off the front of the body (a bad magic or an oversize frame is refused
// having read no more), find the ring owner, validate the client's hint,
// then dispatch with the peeked bytes chained back in front of the body —
// the payload streams from the socket into the shard's own decode, never
// through a buffer here — falling back to draining shards for tensors a
// live drain has not moved yet.
func (c *Cluster) route(w http.ResponseWriter, r *http.Request) {
	if c.isDraining() {
		fail(w, c.retryAfter, http.StatusServiceUnavailable, CodeDraining, "cluster is draining")
		return
	}
	peek := peekPool.Get().(*[wire.PeekLen]byte)
	defer peekPool.Put(peek)
	n, err := io.ReadFull(r.Body, peek[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		fail(w, c.retryAfter, http.StatusBadRequest, CodeBadFrame, err.Error())
		return
	}
	typ, name, err := wire.PeekName(peek[:n], c.maxPayload)
	if err != nil {
		fail(w, c.retryAfter, http.StatusBadRequest, CodeBadFrame, err.Error())
		return
	}
	key := placement.Key(tenantOf(r), name)
	c.mu.Lock()
	ring, version := c.ring, c.version
	var draining []int // fallback targets, as of the same moment as the ring
	for i, st := range c.states {
		if st == placement.StateDraining {
			draining = append(draining, i)
		}
	}
	c.mu.Unlock()
	owner, ok := ring.Owner(key)
	if !ok {
		fail(w, c.retryAfter, http.StatusServiceUnavailable, CodeDraining, "cluster has no active shards")
		return
	}
	w.Header().Set(MapVersionHeader, strconv.Itoa(version))
	if hint := r.Header.Get(ShardHeader); hint != "" && hint != strconv.Itoa(owner) {
		// The client routed from a stale map. Refuse rather than silently
		// absorb: the refusal carries the authoritative owner and map
		// version, and the client refreshes once instead of drifting.
		c.ins.misrouted.Inc()
		w.Header().Set(OwnerHeader, strconv.Itoa(owner))
		fail(w, c.retryAfter, http.StatusMisdirectedRequest, CodeMisrouted,
			fmt.Sprintf("cluster: key %q is owned by shard %d, not %s", key, owner, hint))
		return
	}
	body := io.MultiReader(bytes.NewReader(peek[:n]), r.Body)
	// A tensor a live drain has not migrated yet still lives on its old
	// (draining) shard, and the owner answers 404 for it. Only while a
	// drain is live, and never for a register — a new name belongs on the
	// ring owner unconditionally — is the owner's answer held until its
	// status is known and the request kept (teed, as the owner reads it)
	// for a second dispatch. Every other response streams straight through.
	if len(draining) == 0 || wire.Ops[typ].Register {
		c.dispatch(owner, w, r, body)
		return
	}
	var seen bytes.Buffer
	cw := &capture{w: w, header: http.Header{}}
	c.dispatch(owner, cw, r, io.TeeReader(body, &seen))
	if !cw.held {
		return
	}
	for _, d := range draining {
		dw := &capture{w: w, header: http.Header{}}
		c.dispatch(d, dw, r, io.MultiReader(bytes.NewReader(seen.Bytes()), body))
		if !dw.held {
			c.ins.fallbacks.Inc()
			return
		}
	}
	cw.release()
}

// dispatch forwards the request, with body as its frame, to one shard's
// handler.
func (c *Cluster) dispatch(shard int, w http.ResponseWriter, r *http.Request, body io.Reader) {
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(body)
	c.shards[shard].Handler().ServeHTTP(wireShard(w, shard), r2)
}

// capture stands between a shard and the client until the shard's status is
// known: a 404 not-found is held back whole (it is a few bytes), so the
// router can try a draining shard; anything else is committed — headers,
// status — and streams through from then on.
type capture struct {
	w      http.ResponseWriter
	header http.Header
	status int
	held   bool
	body   bytes.Buffer // a held response's message
}

func (cw *capture) Header() http.Header { return cw.header }

func (cw *capture) WriteHeader(status int) {
	if cw.status != 0 {
		return
	}
	cw.status = status
	cw.held = status == http.StatusNotFound && cw.header.Get(ErrorHeader) == CodeNotFound
	if !cw.held {
		cw.release()
	}
}

func (cw *capture) Write(b []byte) (int, error) {
	if cw.status == 0 {
		cw.WriteHeader(http.StatusOK)
	}
	if cw.held {
		return cw.body.Write(b)
	}
	return cw.w.Write(b)
}

// Unwrap lets http.ResponseController reach the connection's deadlines.
func (cw *capture) Unwrap() http.ResponseWriter { return cw.w }

// release commits the response to the client: the shard's headers and
// status, and a held response's body.
func (cw *capture) release() {
	for k, vs := range cw.header {
		cw.w.Header()[k] = vs
	}
	cw.w.WriteHeader(cw.status)
	_, _ = cw.w.Write(cw.body.Bytes())
}

// wireShard tags the response with the shard that served it, so clients,
// tests, and the smoke harness can observe routing decisions.
func wireShard(w http.ResponseWriter, shard int) http.ResponseWriter {
	w.Header().Set(ShardHeader, strconv.Itoa(shard))
	return w
}

// handleClusterMap publishes the shard map clients route by.
func (c *Cluster) handleClusterMap(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(c.Map())
}

// handleDrain is the admin entry point: drain one shard synchronously,
// migrating its tensors to the ring's new owners.
func (c *Cluster) handleDrain(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.URL.Query().Get("shard"))
	if err != nil {
		fail(w, c.retryAfter, http.StatusBadRequest, CodeBadFrame, "drain: shard query parameter must be an integer")
		return
	}
	tensors, bytesMoved, err := c.DrainShard(id)
	if err != nil {
		status := http.StatusConflict
		if errors.Is(err, errUnknownShard) {
			status = http.StatusNotFound
		}
		fail(w, c.retryAfter, status, CodeState, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"shard": id, "tensors": tensors, "bytes": bytesMoved,
	})
}

var errUnknownShard = errors.New("server: unknown shard")

// DrainShard migrates every tensor off shard id and retires it. The shard
// is first marked draining — the version bumps and the ring excludes it,
// so no new placements land there — then each tensor is moved to its new
// ring owner and finally the shard stops intake entirely.
//
// A partially failed drain (a tensor's new owner refused it: quota, pool
// exhaustion) leaves the shard in the draining state with the failed
// tensors still served through the router's fallback path; the operator
// fixes capacity and re-issues the drain, which resumes where it left off.
func (c *Cluster) DrainShard(id int) (tensors int, bytesMoved int64, err error) {
	c.mu.Lock()
	if id < 0 || id >= len(c.shards) {
		c.mu.Unlock()
		return 0, 0, fmt.Errorf("%w: %d", errUnknownShard, id)
	}
	switch c.states[id] {
	case placement.StateDrained:
		c.mu.Unlock()
		return 0, 0, fmt.Errorf("server: shard %d is already drained", id)
	case placement.StateActive:
		active := 0
		for _, st := range c.states {
			if st == placement.StateActive {
				active++
			}
		}
		if active <= 1 {
			c.mu.Unlock()
			return 0, 0, fmt.Errorf("server: refusing to drain shard %d: it is the last active shard", id)
		}
		c.states[id] = placement.StateDraining
		c.version++
		c.rebuildRingLocked()
	}
	ring := c.ring
	c.mu.Unlock()

	src := c.shards[id]
	var firstErr error
	for _, sess := range src.sessionList() {
		for _, name := range sess.entryNames() {
			owner, ok := ring.Owner(placement.Key(sess.tenant, name))
			if !ok {
				firstErr = errors.New("server: drain lost all active shards")
				break
			}
			nbytes, merr := c.migrate(src, sess, name, c.shards[owner])
			if merr != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("migrate %s/%s to shard %d: %w", sess.tenant, name, owner, merr)
				}
				continue
			}
			tensors++
			bytesMoved += nbytes
			c.ins.rebTensors.Inc()
			c.ins.rebBytes.Add(float64(nbytes))
		}
	}
	if firstErr != nil {
		return tensors, bytesMoved, firstErr
	}
	c.mu.Lock()
	c.states[id] = placement.StateDrained
	c.version++
	c.rebuildRingLocked()
	c.mu.Unlock()
	src.Drain()
	return tensors, bytesMoved, nil
}

// acquireForMigration claims a tensor's entry lock, contending politely
// with in-flight client requests (they hold the lock only for one
// operation) and giving up after a bounded wait.
func acquireForMigration(sess *session, name string) (*entry, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ent, err := sess.acquire(name, 0)
		if err == nil {
			return ent, nil
		}
		if !errors.Is(err, errEntryBusy) {
			return nil, err
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(time.Millisecond)
	}
}

// migrate moves one tensor or block pool from src to dst through the swap
// wire format: make everything resident on the source (a tier-resident
// payload comes back through the promote path), rebuild it on the
// destination with the same residency (arrive), then free the source copy.
// The entry locks on both sides exclude client requests for the duration
// (they see 409 busy and retry). Any failure before the free puts the
// source back the way the drain found it, so an aborted migration is
// invisible.
func (c *Cluster) migrate(src *Server, sess *session, name string, dst *Server) (int64, error) {
	ent, err := acquireForMigration(sess, name)
	if err != nil {
		if errors.Is(err, ErrUnknownTensor) {
			return 0, nil // freed while the drain walked the session: nothing to move
		}
		return 0, err
	}
	defer ent.mu.Unlock()

	was, err := ent.obj.restoreAll()
	if err != nil {
		return 0, err
	}
	if err := c.arrive(sess, name, ent, was, dst); err != nil {
		_ = src.reswap(sess, ent, was)
		return 0, err
	}
	if err := ent.obj.p.Free(); err != nil {
		// The destination copy is live and owns the name on the ring; a
		// failed source free leaks pool bytes on a shard that is going away,
		// which the drained state eventually reclaims via Close.
		return ent.bytes, nil
	}
	sess.release(name, ent)
	return ent.bytes, nil
}

// arrive registers a copy of the fully resident entry on dst: its whole
// content as one data frame — encoded and decoded, so what arrives is what
// a client would have been sent and restores byte-identically — then
// swapped out again exactly where the source had been (was). A failure
// leaves nothing behind on dst.
func (c *Cluster) arrive(sess *session, name string, ent *entry, was *wire.Frame, dst *Server) error {
	whole, segs, err := ent.obj.readAll(name)
	if err != nil {
		return err
	}
	enc, err := wire.Prepare(whole, segs...)
	if err != nil {
		return err
	}
	decoded, err := wire.Read(enc.Reader(), c.maxPayload)
	if err != nil {
		return err
	}
	dsess := dst.session(sess.tenant)
	dent, err := dsess.reserve(name, ent.bytes)
	if err != nil {
		return err
	}
	defer dent.mu.Unlock()
	if dent.obj, err = newObject(dst.exec, qualified(sess.tenant, name), decoded, dsess.charge); err == nil {
		dent.sparsity = ent.sparsity
		if err = dst.reswap(dsess, dent, was); err != nil {
			_ = dent.obj.p.Free()
		}
	}
	if err != nil {
		dsess.release(name, dent)
	}
	return err
}

// reswap swaps out again the part of an entry that restoreAll found
// swapped, with the codec this shard would pick for it now.
func (s *Server) reswap(sess *session, ent *entry, was *wire.Frame) error {
	if was == nil {
		return nil
	}
	doCompress, alg := s.resolveCodec(sess, ent, true, compress.Auto)
	return ent.obj.p.Swap(context.Background(), wire.Ops[was.Type].Path, was.BlockIDs, doCompress, alg)
}
