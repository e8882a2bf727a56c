package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cswap/internal/compress"
	"cswap/internal/executor"
	"cswap/internal/metrics"
	"cswap/internal/wire"
)

// ErrQuotaExceeded reports that a register would push a tenant past its
// device-memory quota. It is a per-tenant admission refusal, enforced
// before the shared devmem pool is touched, so one tenant's appetite
// cannot starve the others out of the device.
var ErrQuotaExceeded = errors.New("server: tenant device-memory quota exceeded")

// ErrAlreadyRegistered reports a register for a name the tenant already
// holds.
var ErrAlreadyRegistered = errors.New("server: tensor already registered")

// ErrUnknownTensor reports an operation on a name the tenant never
// registered (or already freed).
var ErrUnknownTensor = errors.New("server: unknown tensor")

// errEntryBusy reports that another request of the same tenant holds the
// tensor right now; it maps to the same retry guidance as the executor's
// ErrBusy.
var errEntryBusy = errors.New("server: tensor busy")

// session is one tenant's view of the service: its registered tensors and
// its quota accounting. Sessions are created on first use of a tenant
// name and live until the server shuts down — freeing every tensor empties
// a session but keeps it (and its metric series) warm.
type session struct {
	tenant string
	quota  int64 // bound on the Held bucket at register time
	// tierQuota bounds the Tiered bucket when demote-then-admit picks an
	// entry to demote; zero or negative means unbounded.
	tierQuota int64
	// charge is the tenant's one ledger, the server_tenant_used_bytes
	// (Held) and server_tenant_tier_used_bytes (Tiered) gauges: reserve
	// and release add and subtract an entry's whole size from Held, and the
	// executor moves each stored run's bytes — a tensor's one run, a pool's
	// runs — to Tiered and back as it enters and leaves the disk tier.
	charge executor.Charge
	// reg, requests and autoCodec: the tenant's per-request counters,
	// server_requests_total by operation and server_auto_codec_total by
	// resolved codec (raw in Auto's slot, which never resolves). Each is
	// looked up in reg at its first use — so it is exported from the first
	// request that counts in it — and read without a lookup after.
	reg       *metrics.Registry
	requests  [len(wire.Ops)]atomic.Pointer[metrics.Counter]
	autoCodec [compress.Huffman + 1]atomic.Pointer[metrics.Counter]

	mu      sync.Mutex
	entries map[string]*entry

	// Tuning state (guarded by mu): the live workload profile the tuner
	// folds swap-outs into, and the current/previous codec verdicts. prev
	// is the rollback target when cur's realized cost belies its
	// prediction.
	prof      tenantProfile
	cur, prev verdict
}

// profileAlpha is the EWMA smoothing factor for the tenant workload
// profile: heavy enough that a genuine phase change (a new layer's
// activations, a densified model) shows within a handful of swaps, light
// enough that one outlier tensor does not trigger a retune.
const profileAlpha = 0.3

// tenantProfile is what the tuner knows about a tenant's swap-out stream:
// exponentially weighted sparsity and size, plus the swap count since the
// tuner last acted (its evidence budget).
type tenantProfile struct {
	ewmaSparsity float64
	ewmaBytes    float64
	swaps        int64
	seeded       bool
}

// verdict is one tuner decision for a tenant: what an Auto swap-out
// resolves to, at which observed sparsity it was made, and the cost model's
// predicted per-swap cost backing it (the rollback comparison point).
type verdict struct {
	valid      bool
	compress   bool
	alg        compress.Algorithm
	atSparsity float64
	predicted  float64
}

// codecLabel is the verdict's metric label value: the codec name, or "raw"
// when the verdict is not to compress.
func (v verdict) codecLabel() string {
	if !v.compress {
		return "raw"
	}
	return v.alg.String()
}

// cell returns *c, resolving it as the counter (name, tenant, label) first.
// Racing first uses resolve the same registry cell.
func (s *session) cell(c *atomic.Pointer[metrics.Counter], name string, label metrics.Label) *metrics.Counter {
	if v := c.Load(); v != nil {
		return v
	}
	v := s.reg.Counter(name, metrics.L("tenant", s.tenant), label)
	c.Store(v)
	return v
}

// countRequest counts one request of typ.
func (s *session) countRequest(typ wire.Type) {
	s.cell(&s.requests[typ], "server_requests_total", metrics.L("op", wire.Ops[typ].Path)).Inc()
}

// countAuto counts one Auto swap-out resolved to alg, or to raw.
func (s *session) countAuto(doCompress bool, alg compress.Algorithm) {
	slot, label := compress.Auto, "raw"
	if doCompress {
		slot, label = alg, alg.String()
	}
	s.cell(&s.autoCodec[slot], "server_auto_codec_total", metrics.L("codec", label)).Inc()
}

// observeSwap folds one swap-out into the tenant profile.
func (s *session) observeSwap(sparsity float64, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.prof.seeded {
		s.prof = tenantProfile{ewmaSparsity: sparsity, ewmaBytes: float64(bytes), seeded: true}
	} else {
		s.prof.ewmaSparsity += profileAlpha * (sparsity - s.prof.ewmaSparsity)
		s.prof.ewmaBytes += profileAlpha * (float64(bytes) - s.prof.ewmaBytes)
	}
	s.prof.swaps++
}

// currentVerdict returns the tuner's standing verdict, if any.
func (s *session) currentVerdict() (verdict, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur, s.cur.valid
}

// tunerState snapshots the profile and both verdicts for one tuner pass.
func (s *session) tunerState() (tenantProfile, verdict, verdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prof, s.cur, s.prev
}

// setVerdict installs a new verdict, demoting the old one to the rollback
// slot and resetting the evidence budget.
func (s *session) setVerdict(v verdict) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prev = s.cur
	s.cur = v
	s.prof.swaps = 0
}

// rollbackVerdict reverts to the previous verdict (when one exists),
// re-anchoring it at the current profile so the revert itself does not
// immediately read as drift. Reports whether a rollback happened.
func (s *session) rollbackVerdict() (verdict, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.prev.valid {
		return verdict{}, false
	}
	s.cur, s.prev = s.prev, s.cur
	s.cur.atSparsity = s.prof.ewmaSparsity
	s.prof.swaps = 0
	return s.cur, true
}

// entry is one registered tensor. Its lock serialises same-tensor requests
// inside the server: handlers TryLock and answer "busy, retry" instead of
// queueing, which both preserves the executor's ErrBusy discipline at the
// HTTP boundary and keeps a response's view of the tensor's data exclusive
// while it is encoded.
type entry struct {
	mu sync.Mutex
	// writing is a one-slot token a handler holds while it writes a
	// response from the entry's memory under mu (swapData), until just past
	// mu's release. The caller that read that response may send its next
	// request before mu is free; acquire waits for the token instead of
	// answering busy.
	writing chan struct{}
	// obj is the block pool behind the name (object.go): one name, one
	// quota charge. Its pool is nil until the register commits.
	obj object
	// bytes is the object's uncompressed footprint, the unit of quota
	// accounting (what it pins on device while resident).
	bytes int64
	// sparsity is the zero fraction measured at register time — the
	// per-tensor signal behind Auto codec resolution and the tenant
	// profile the tuner tracks. Written once under mu before the register
	// response; read under the entry lock afterwards.
	sparsity float64
}

func newSession(tenant string, quota, tierQuota int64, reg *metrics.Registry) *session {
	s := &session{
		tenant:    tenant,
		quota:     quota,
		tierQuota: tierQuota,
		charge: executor.Charge{
			Held:   reg.Gauge("server_tenant_used_bytes", metrics.L("tenant", tenant)),
			Tiered: reg.Gauge("server_tenant_tier_used_bytes", metrics.L("tenant", tenant)),
		},
		reg:     reg,
		entries: map[string]*entry{},
	}
	reg.Gauge("server_tenant_quota_bytes", metrics.L("tenant", tenant)).Set(float64(quota))
	reg.Gauge("server_tenant_tier_quota_bytes", metrics.L("tenant", tenant)).Set(float64(tierQuota))
	return s
}

// reserve admits `bytes` of new registration against the quota and
// installs a placeholder entry, locked by the caller. The caller must
// commit (entry.obj set) or abort (release) it. Admitting before touching
// the executor means a rejected tenant never consumes shared pool
// capacity, and the placeholder makes duplicate names of one tenant —
// including two concurrent registers — a clean conflict.
func (s *session) reserve(name string, bytes int64) (*entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[name]; ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrAlreadyRegistered, s.tenant, name)
	}
	if held := s.held(); s.quota > 0 && held+bytes > s.quota {
		return nil, fmt.Errorf("%w: %s holds %d of %d bytes, register needs %d",
			ErrQuotaExceeded, s.tenant, held, s.quota, bytes)
	}
	ent := &entry{bytes: bytes, writing: make(chan struct{}, 1)}
	ent.mu.Lock()
	s.entries[name] = ent
	s.charge.Held.Add(float64(bytes))
	return ent, nil
}

// release removes an entry and takes its bytes out of Held — the abort
// path of a failed register and the commit path of a free. A freed
// tensor's charge is back in Held by then: freeing a tiered payload
// deletes it from the tier, which moves the charge. The caller holds the
// entry's lock.
func (s *session) release(name string, ent *entry) {
	s.mu.Lock()
	delete(s.entries, name)
	s.charge.Held.Add(-float64(ent.bytes))
	s.mu.Unlock()
}

// held is the tenant's Held bucket in bytes.
func (s *session) held() int64 { return int64(s.charge.Held.Value()) }

// tierHeadroom reports whether the tier bucket can take `bytes` more.
func (s *session) tierHeadroom(bytes int64) bool {
	return s.tierQuota <= 0 || int64(s.charge.Tiered.Value())+bytes <= s.tierQuota
}

// deviceHeadroom reports whether the device bucket can admit `bytes` more.
func (s *session) deviceHeadroom(bytes int64) bool {
	return s.quota <= 0 || s.held()+bytes <= s.quota
}

// lookup returns the tenant's entry for name.
func (s *session) lookup(name string) (*entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.entries[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrUnknownTensor, s.tenant, name)
	}
	return ent, nil
}

// acquire looks the tensor up and claims its request lock without
// queueing: contention answers errEntryBusy — the HTTP layer's bounded
// analogue of the executor's ErrBusy. The one wait is for a response write
// from the entry's memory, for up to wait: its reader may be the caller
// whose next request this is, and the write deadline bounds it anyway.
func (s *session) acquire(name string, wait time.Duration) (*entry, error) {
	ent, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	if !ent.mu.TryLock() && (!ent.awaitWrite(wait) || !ent.mu.TryLock()) {
		return nil, fmt.Errorf("%w: %s/%s (request in flight)", errEntryBusy, s.tenant, name)
	}
	if ent.obj.p == nil {
		// A placeholder whose register aborted between lookup and lock.
		ent.mu.Unlock()
		return nil, fmt.Errorf("%w: %s/%s", ErrUnknownTensor, s.tenant, name)
	}
	return ent, nil
}

// awaitWrite waits up to wait for a response write from the entry's memory
// to finish, reporting whether none is in progress by then. It returns at
// once when none is: mu is then held by an operation, not a write.
func (e *entry) awaitWrite(wait time.Duration) bool {
	if wait <= 0 {
		return false
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case e.writing <- struct{}{}:
		<-e.writing
		return true
	case <-t.C:
		return false
	}
}

// entryNames snapshots the tenant's registered tensor names, sorted — the
// work list a drain walks. Entries freed (or registered) after the
// snapshot are the drain's responsibility to tolerate, not prevent.
func (s *session) entryNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.entries))
	for n := range s.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
