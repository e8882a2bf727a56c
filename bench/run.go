package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cswap/client"
	"cswap/internal/executor"
	"cswap/internal/metrics"
	"cswap/internal/server"
	"cswap/internal/tier"
)

// opTimeout bounds every call, so a wedged worker pool shows up as failed
// ops instead of a hang.
const opTimeout = 30 * time.Second

// kind selects which layer a replay enters the stack through.
type kind int

const (
	kindClient  kind = iota // public client -> loopback listener -> cswapd
	kindLib                 // in-process executor
	kindHandler             // server handler, no socket
	kindCluster             // 2-shard cluster router, no socket
)

// instance is one booted copy of the system with a workload's inputs
// registered, entered at one layer.
type instance struct {
	s   *spec
	in  *inputs
	dir string // private scratch directory (tier files)

	svc      *service
	srv      *server.Server
	cluster  *server.Cluster
	exec     *executor.Executor // nil behind the cluster router
	tier     *tier.Store        // nil without a spill tier
	reg      *metrics.Registry
	counting *countingTransport

	targets []target
	ops     [][]op
	// untimed counts the calls made between passes to restore residency, so
	// the traced pass can tell them from retries.
	untimed int64

	baseDevice, baseHost int64
}

// setupOpts varies an instance beyond its kind.
type setupOpts struct {
	verify bool // kindLib: executor checksum verification
	count  bool // kindClient: count HTTP requests (traced pass only)
	single bool // one caller whatever the workload says (ladder rungs)
}

// setup boots the system at layer k under workDir and registers the inputs.
func setup(s *spec, in *inputs, k kind, workDir string, o setupOpts) (x *instance, err error) {
	x = &instance{s: s, in: in}
	if x.dir, err = os.MkdirTemp(workDir, s.name+"-"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			x.shutdown()
		}
	}()
	tierDir := filepath.Join(x.dir, "tier")
	callers := s.effectiveCallers()
	if o.single {
		callers = 1
	}
	switch k {
	case kindLib:
		if s.tierCap > 0 {
			if x.tier, err = tier.Open(tierDir, s.tierCap, nil); err != nil {
				return nil, err
			}
		}
		if x.exec, err = newExecutor(s, o.verify, x.tier); err != nil {
			return nil, err
		}
		x.reg = x.exec.Registry()
	case kindCluster:
		if x.cluster, err = server.NewCluster(append(serverOptions(s, tierDir), server.WithShards(2))...); err != nil {
			return nil, err
		}
	case kindHandler:
		if x.srv, err = server.NewServer(serverOptions(s, tierDir)...); err != nil {
			return nil, err
		}
	case kindClient:
		if x.svc, err = bootService(s, tierDir); err != nil {
			return nil, err
		}
		x.srv = x.svc.srv
	}
	if x.srv != nil {
		x.exec, x.tier, x.reg = x.srv.Executor(), x.srv.Tier(), x.srv.Registry()
	}
	if o.count {
		x.counting = &countingTransport{rt: &http.Transport{MaxIdleConns: 128, MaxIdleConnsPerHost: 128, IdleConnTimeout: 90 * time.Second}}
	}
	for c := 0; c < callers; c++ {
		var t target
		switch k {
		case kindLib:
			t = &libTarget{s: s, in: in, caller: c, exec: x.exec}
		case kindClient:
			copts := []client.Option{client.WithTenant(tenantName(c))}
			if x.counting != nil {
				copts = append(copts, client.WithHTTPClient(&http.Client{Transport: x.counting}))
			}
			t = &clientTarget{s: s, in: in, caller: c, c: client.New(x.svc.url, copts...)}
		case kindHandler:
			t = &handlerTarget{s: s, in: in, caller: c, h: x.srv.Handler(), tenant: tenantName(c)}
		case kindCluster:
			t = &handlerTarget{s: s, in: in, caller: c, h: x.cluster.Handler(), tenant: tenantName(c)}
		}
		x.targets = append(x.targets, t)
		x.ops = append(x.ops, passOps(s, in, c))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*opTimeout)
	defer cancel()
	for _, t := range x.targets {
		if err = t.register(ctx); err != nil {
			return nil, fmt.Errorf("register: %w", err)
		}
	}
	if x.exec != nil {
		x.baseDevice, x.baseHost = x.exec.DeviceStats().Used, x.exec.HostStats().Used
	}
	return x, nil
}

// quiesced checks the liveness invariants that must hold between passes: the
// tier is empty and both pools are back to their post-register occupancy.
func (x *instance) quiesced() error {
	if x.tier != nil && (x.tier.Len() != 0 || x.tier.Used() != 0) {
		return fmt.Errorf("tier not empty after workload: %d blobs, %d bytes", x.tier.Len(), x.tier.Used())
	}
	if x.exec == nil {
		return nil
	}
	if d := x.exec.DeviceStats().Used; d != x.baseDevice {
		return fmt.Errorf("device pool holds %d bytes, %d after register", d, x.baseDevice)
	}
	if h := x.exec.HostStats().Used; h != x.baseHost {
		return fmt.Errorf("host pool holds %d bytes, %d after register", h, x.baseHost)
	}
	return nil
}

// teardown frees everything the instance registered and shuts it down.
func (x *instance) teardown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 4*opTimeout)
	defer cancel()
	var err error
	for _, t := range x.targets {
		err = errors.Join(err, t.free(ctx))
	}
	return errors.Join(err, x.shutdown())
}

// shutdown stops the listener and the executor and removes the scratch dir.
func (x *instance) shutdown() error {
	var err error
	switch {
	case x.svc != nil:
		err = x.svc.close()
	case x.srv != nil:
		err = x.srv.Close()
	case x.cluster != nil:
		err = x.cluster.Close()
	case x.exec != nil:
		err = x.exec.Close()
	}
	if x.counting != nil {
		x.counting.rt.(*http.Transport).CloseIdleConnections()
	}
	return errors.Join(err, os.RemoveAll(x.dir))
}

// recorder accumulates one caller's samples over a window.
type recorder struct {
	outMs, inMs       []float64
	attempted, failed int
	restored          int64  // raw bytes delivered and verified
	allocInSpans      uint64 // heap bytes allocated inside spans (traced pass only)
	firstErr          error

	// tr is nil when tracing is off; layer names the rung the spans belong to.
	tr    *tracer
	layer string
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// span records one timed call; parent is the op's index within its pass.
func (r *recorder) span(call string, parent int, sp span) {
	r.allocInSpans += sp.alloc
	if r.tr != nil {
		r.tr.add(r.layer, call, parent, sp)
	}
}

func (r *recorder) merge(o *recorder) {
	r.outMs = append(r.outMs, o.outMs...)
	r.inMs = append(r.inMs, o.inMs...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.restored += o.restored
	r.allocInSpans += o.allocInSpans
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// corruptRestore, when set by a test, damages every restored payload before
// the bit-exactness check, proving a wrong restore fails the run.
var corruptRestore func(payload)

// verify compares a restored payload with its seed-derived original.
func verify(s *spec, in *inputs, caller int, o op, p payload) error {
	if corruptRestore != nil {
		corruptRestore(p)
	}
	if s.kv == nil {
		if !bitsEqual(p.tensor, in.tensors[o.item]) {
			return fmt.Errorf("%s restored wrong", tensorName(o.item))
		}
		return nil
	}
	img := in.pools[caller]
	for _, id := range o.ids {
		got, ok := p.blocks.Block(id)
		if !ok || !bitsEqual(got, img[id*s.blockElems:(id+1)*s.blockElems]) {
			return fmt.Errorf("block %d restored wrong", id)
		}
	}
	return nil
}

// replay runs caller c's pass once against its target, timing every call and
// checking every restored payload outside the timed span.
func (x *instance) replay(c int, rec *recorder) {
	t := x.targets[c]
	for i, o := range x.ops[c] {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		rec.attempted++
		if o.out {
			sp, err := t.swapOut(ctx, o)
			cancel()
			if err != nil {
				rec.fail(err)
				continue
			}
			rec.outMs = append(rec.outMs, sp.dur.Seconds()*1e3)
			rec.span("swapout", i, sp)
			continue
		}
		sp, p, err := t.swapIn(ctx, o)
		cancel()
		if err == nil {
			err = verify(x.s, x.in, c, o, p)
		}
		if err != nil {
			rec.fail(err)
			continue
		}
		rec.inMs = append(rec.inMs, sp.dur.Seconds()*1e3)
		rec.span("swapin", i, sp)
		rec.restored += x.s.rawBytes(x.in, o)
	}
}

// round has every caller replay its pass once, concurrently, and returns the
// wall time from the common start to the last caller's finish. Restoring
// residency for the next round (KV) and the invariant check are untimed.
func (x *instance) round(recs []*recorder) (time.Duration, error) {
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := range x.targets {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x.replay(c, recs[c])
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	for _, t := range x.targets {
		if err := t.restoreAll(ctx); err != nil {
			return wall, fmt.Errorf("restore between passes: %w", err)
		}
		if x.s.kv != nil {
			x.untimed++
		}
	}
	return wall, x.quiesced()
}

func (x *instance) recorders(tr *tracer, layer string) []*recorder {
	recs := make([]*recorder, len(x.targets))
	for i := range recs {
		recs[i] = &recorder{tr: tr, layer: layer}
	}
	return recs
}

// window is what one measured window produced.
type window struct {
	rec         recorder
	passBytes   []int64
	passSeconds []float64
	rawOut      int64 // executor_raw_bytes delta
	movedOut    int64 // executor_moved_bytes delta
	allocBytes  uint64
	wall        time.Duration
	cal         []float64 // reference-kernel ms, one sample after every pass
}

// add folds another window's samples into w.
func (w *window) add(o *window) {
	w.rec.merge(&o.rec)
	w.passBytes = append(w.passBytes, o.passBytes...)
	w.passSeconds = append(w.passSeconds, o.passSeconds...)
	w.rawOut += o.rawOut
	w.movedOut += o.movedOut
	w.allocBytes += o.allocBytes
	w.wall += o.wall
	w.cal = append(w.cal, o.cal...)
}

// measure runs rounds for at least d, ending on a pass boundary. With tr set
// every call is recorded as a span on it.
func (x *instance) measure(d time.Duration, tr *tracer, layer string) (*window, error) {
	w := &window{}
	var before executor.Stats
	if x.exec != nil {
		before = x.exec.Stats()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for first := true; first || time.Since(t0) < d; first = false {
		recs := x.recorders(tr, layer)
		wall, err := x.round(recs)
		var restored int64
		for _, r := range recs {
			restored += r.restored
			w.rec.merge(r)
		}
		w.passBytes = append(w.passBytes, restored)
		w.passSeconds = append(w.passSeconds, wall.Seconds())
		w.cal = append(w.cal, calibrate())
		if err != nil {
			return w, err
		}
	}
	w.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	w.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	if x.exec != nil {
		after := x.exec.Stats()
		w.rawOut, w.movedOut = after.RawBytes-before.RawBytes, after.MovedBytes-before.MovedBytes
	}
	return w, nil
}

// warmups is how many untimed passes run before a window opens, so arenas,
// connection pools and lazily started workers are all in place.
const warmups = 1

// setupRepeats is how many times a run boots, registers and warms up the
// system to report setup_s as a median; the last copy is the one measured.
const setupRepeats = 3

// warm boots an instance and runs n warm-up passes, returning it with the
// time that took in seconds at reference speed (see calibrate.go).
func warm(s *spec, in *inputs, k kind, workDir string, o setupOpts, n int) (*instance, float64, error) {
	t0 := time.Now()
	x, err := setup(s, in, k, workDir, o)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < n; i++ {
		recs := x.recorders(nil, "")
		_, err := x.round(recs)
		for _, r := range recs {
			if err == nil && r.failed > 0 {
				err = fmt.Errorf("%d of %d warm-up ops failed: %w", r.failed, r.attempted, r.firstErr)
			}
		}
		if err != nil {
			_ = x.shutdown()
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	secs := time.Since(t0).Seconds()
	return x, secs * speedFactor([]float64{calibrate()}), nil
}

// entryKind is the layer a workload itself enters through.
func (s *spec) entryKind() kind {
	if s.service {
		return kindClient
	}
	return kindLib
}
