package server

// Online per-tenant self-tuning: the serving-layer closure of the paper's
// offline loop. The offline pipeline (Sections IV-C/IV-D) trains time
// predictors and tunes launch geometry once, before serving; this tuner
// re-runs its codec half — measured codec cost and the Section IV-B cost
// model — continuously against the live workload each tenant actually
// swaps:
//
//   - Every swap-out folds the tensor's sparsity and size into a per-tenant
//     EWMA profile (session.observeSwap).
//   - On a fixed tick, tenants whose profile drifted past the threshold
//     (or who have no verdict yet) are retuned: each candidate codec is
//     probed on a synthetic tensor shaped like the profile, the measured
//     encode/decode times and realized ratio feed costmodel.Decide, and
//     the cheapest verdict becomes the tenant's Auto resolution.
//   - Between retunes the tuner audits its own verdicts against the
//     executor's per-codec series (realized seconds and moved bytes). A
//     verdict whose realized cost exceeds its prediction by the rollback
//     factor is reverted to the previous one — the self-correction the
//     offline pipeline cannot do.
//
// The launch stays the one the shard booted with. Tuning it online on a
// 64 Ki probe installed grid 1 in most scans, and grid 1 roughly doubles
// every later multi-MiB swap's codec time on the shard, while the chunk
// floor (compress.ChunkCount) already sizes chunking from each tensor
// (EXPERIMENTS.md, "The launch scan that slowed every tenant").
//
// Everything the tuner concludes is observable: verdicts, codec switches,
// rollbacks, and the profile itself are registry series on /metrics.

import (
	"time"

	"cswap/internal/compress"
	"cswap/internal/costmodel"
	"cswap/internal/metrics"
	"cswap/internal/tensor"
)

// TunerConfig configures the online per-tenant tuner. The zero value is
// disabled; Enabled with everything else zero selects serving defaults.
type TunerConfig struct {
	// Enabled starts the background tuning loop.
	Enabled bool
	// Interval is the tick period (default 2s).
	Interval time.Duration
	// DriftThreshold is the absolute EWMA-sparsity drift from the standing
	// verdict's anchor that triggers a retune (default 0.15).
	DriftThreshold float64
	// MinSwaps is the evidence budget: a tenant is not retuned (or
	// audited) until this many swap-outs accrued since the tuner last
	// acted on it (default 4).
	MinSwaps int
	// LinkBytesPerSec models the swap link bandwidth in the cost model,
	// both directions (default 12 GB/s, PCIe 3.0 x16 effective).
	LinkBytesPerSec float64
	// ProbeElems sizes the synthetic probe tensor (default 64Ki elements;
	// probe times are scaled to the profile's mean tensor size).
	ProbeElems int
}

// rollbackFactor: a verdict whose realized per-swap cost exceeds its
// prediction by this factor is reverted. probeSeed fixes the probe
// generator.
const (
	rollbackFactor = 1.5
	probeSeed      = 1
)

func (c TunerConfig) withDefaults() TunerConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.15
	}
	if c.MinSwaps <= 0 {
		c.MinSwaps = 4
	}
	if c.LinkBytesPerSec <= 0 {
		c.LinkBytesPerSec = 12e9
	}
	if c.ProbeElems <= 0 {
		c.ProbeElems = 64 << 10
	}
	return c
}

// codecStats is one codec's cumulative executor-series reading; the tuner
// diffs consecutive readings to get per-interval realized cost.
type codecStats struct {
	encSum, decSum float64
	encN           int64
	movedBytes     float64
}

// tuner is the background loop. One per server; stopped by Close before
// the executor drains.
type tuner struct {
	srv *Server
	cfg TunerConfig
	obs *metrics.Observer

	stop chan struct{}
	done chan struct{}

	// Probe scratch, reused across ticks (the tuner must not become an
	// allocation hot spot on small intervals).
	probeSrc []float32
	probeDst []float32
	probeBuf []byte

	last map[compress.Algorithm]codecStats // previous tick's reading

	verdicts  func(tenant, codec string) *metrics.Counter
	switches  func(tenant string) *metrics.Counter
	rollbacks func(tenant string) *metrics.Counter
	sparsityG func(tenant string) *metrics.Gauge
}

func startTuner(s *Server, cfg TunerConfig) *tuner {
	cfg = cfg.withDefaults()
	reg := s.ins.reg
	t := &tuner{
		srv:      s,
		cfg:      cfg,
		obs:      s.obs,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		probeDst: make([]float32, cfg.ProbeElems),
		last:     map[compress.Algorithm]codecStats{},
		verdicts: func(tenant, codec string) *metrics.Counter {
			return reg.Counter("server_tuner_verdicts_total",
				metrics.L("tenant", tenant), metrics.L("codec", codec))
		},
		switches: func(tenant string) *metrics.Counter {
			return reg.Counter("server_tuner_codec_switches_total", metrics.L("tenant", tenant))
		},
		rollbacks: func(tenant string) *metrics.Counter {
			return reg.Counter("server_tuner_rollbacks_total", metrics.L("tenant", tenant))
		},
		sparsityG: func(tenant string) *metrics.Gauge {
			return reg.Gauge("server_tuner_sparsity", metrics.L("tenant", tenant))
		},
	}
	go t.run()
	return t
}

// Stop terminates the loop and waits for the in-flight tick to finish, so
// no probe races executor shutdown.
func (t *tuner) Stop() {
	close(t.stop)
	<-t.done
}

func (t *tuner) run() {
	defer close(t.done)
	tick := time.NewTicker(t.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
			t.tick()
		}
	}
}

// sessionList snapshots the live sessions for one tuner pass.
func (s *Server) sessionList() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	return out
}

func (t *tuner) tick() {
	for _, sess := range t.srv.sessionList() {
		prof, cur, prev := sess.tunerState()
		if !prof.seeded || prof.swaps < int64(t.cfg.MinSwaps) {
			continue
		}
		t.sparsityG(sess.tenant).Set(prof.ewmaSparsity)
		drifted := !cur.valid || abs(prof.ewmaSparsity-cur.atSparsity) >= t.cfg.DriftThreshold
		if drifted {
			t.retune(sess, prof, cur)
			continue
		}
		t.audit(sess, cur, prev)
	}
	t.remember()
}

// audit compares the standing verdict's predicted per-swap cost against
// what the executor actually measured since the last tick, feeding the
// cost model's realized-error series and reverting verdicts that the data
// contradicts. The executor series are device-global: with several tenants
// on one codec the attribution is approximate, which is why the revert
// needs a rollbackFactor-sized margin, not a mere excess.
func (t *tuner) audit(sess *session, cur, prev verdict) {
	if !cur.valid || !cur.compress {
		return
	}
	now := t.readCodecStats(cur.alg)
	before, ok := t.last[cur.alg]
	if !ok {
		return
	}
	ops := now.encN - before.encN
	if ops <= 0 {
		return
	}
	kernel := (now.encSum - before.encSum + now.decSum - before.decSum) / float64(ops)
	link := (now.movedBytes - before.movedBytes) / float64(ops) / t.cfg.LinkBytesPerSec
	realized := kernel + link
	costmodel.RecordRealized(t.obs, cur.predicted, realized)
	if realized > rollbackFactor*cur.predicted &&
		prev.valid && (prev.alg != cur.alg || prev.compress != cur.compress) {
		if v, ok := sess.rollbackVerdict(); ok {
			t.rollbacks(sess.tenant).Inc()
			t.verdicts(sess.tenant, v.codecLabel()).Inc()
		}
	}
}

// remember stores this tick's per-codec readings as the next tick's
// baseline.
func (t *tuner) remember() {
	for _, a := range compress.ExtendedAlgorithms() {
		t.last[a] = t.readCodecStats(a)
	}
}

// readCodecStats reads one codec's cumulative series from the cells this
// server's own executor holds — inside a cluster, exactly this shard's.
func (t *tuner) readCodecStats(a compress.Algorithm) codecStats {
	var cs codecStats
	cs.encSum, cs.encN, cs.decSum, cs.movedBytes = t.srv.exec.CodecTotals(a)
	return cs
}

// retune probes every candidate codec against a synthetic tensor shaped
// like the tenant's profile and installs the cost model's cheapest verdict.
func (t *tuner) retune(sess *session, prof tenantProfile, cur verdict) {
	meanBytes := prof.ewmaBytes
	if meanBytes <= 0 {
		return
	}
	probeBytes := float64(t.cfg.ProbeElems) * 4
	scale := meanBytes / probeBytes

	t.fillProbe(prof.ewmaSparsity)
	launch := t.srv.exec.Launch()
	base := costmodel.Params{
		SizeBytes: int64(meanBytes),
		Sparsity:  prof.ewmaSparsity,
		BWd2h:     t.cfg.LinkBytesPerSec,
		BWh2d:     t.cfg.LinkBytesPerSec,
	}
	var (
		best    costmodel.Decision
		bestAlg compress.Algorithm
		first   = true
	)
	for _, alg := range compress.ExtendedAlgorithms() {
		encSec, decSec, ratio, err := t.probe(alg, launch)
		if err != nil {
			continue
		}
		p := base
		p.TimeC, p.TimeDC = encSec*scale, decSec*scale
		p.Ratio = ratio
		dec := costmodel.Decide(p)
		dec.Observe(t.obs, alg.String())
		if first || dec.T < best.T {
			best, bestAlg, first = dec, alg, false
		}
	}
	if first {
		return // every probe failed; keep whatever verdict stands
	}
	v := verdict{
		valid:      true,
		compress:   best.Compress,
		alg:        bestAlg,
		atSparsity: prof.ewmaSparsity,
		predicted:  best.T,
	}
	if !best.Compress {
		v.predicted = best.TPrime
	}
	sess.setVerdict(v)
	t.verdicts(sess.tenant, v.codecLabel()).Inc()
	if cur.valid && (cur.compress != v.compress || (v.compress && cur.alg != v.alg)) {
		t.switches(sess.tenant).Inc()
	}
}

// probe measures one codec on the probe tensor fillProbe last generated:
// wall-clock encode and decode at the given launch, plus the realized
// compression ratio — live measurements standing in for the offline
// pipeline's trained predictor.
func (t *tuner) probe(alg compress.Algorithm, launch compress.Launch) (encSec, decSec, ratio float64, err error) {
	start := time.Now()
	t.probeBuf, err = compress.AppendParallelEncode(t.probeBuf[:0], alg, t.probeSrc, launch)
	if err != nil {
		return 0, 0, 0, err
	}
	encSec = time.Since(start).Seconds()
	start = time.Now()
	if err := compress.ParallelDecodeInto(t.probeDst, t.probeBuf, launch); err != nil {
		return 0, 0, 0, err
	}
	decSec = time.Since(start).Seconds()
	return encSec, decSec, float64(len(t.probeBuf)) / (float64(len(t.probeSrc)) * 4), nil
}

// fillProbe regenerates the probe tensor at the given sparsity. Re-seeding
// per call keeps the probe a pure function of (seed, sparsity), so repeated
// retunes compare codecs on identical data.
func (t *tuner) fillProbe(sparsity float64) {
	src := tensor.NewGenerator(probeSeed).Uniform(t.cfg.ProbeElems, sparsity)
	t.probeSrc = src.Data
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
