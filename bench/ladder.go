package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cswap/internal/compress"
	"cswap/internal/executor"
	"cswap/internal/metrics"
	"cswap/internal/placement"
	"cswap/internal/sched"
	"cswap/internal/tensor"
	"cswap/internal/tier"
	"cswap/internal/trace"
	"cswap/internal/wire"
)

// The traced pass. First the workload itself runs with untraced and traced
// passes alternating (their goodput difference is the tracing overhead, and
// the counters are read around them). Then the workload's generated inputs
// are replayed, one caller and one request at a time, against each rung of a
// ladder that enters the stack one layer further in:
//
//	client  -> server -> executor -> compress
//	   |         |  \        \
//	   |         |   sched    tier
//	   |       wire
//	 (cluster router: beside the server rung, placement under it)
//
// Every rung calls only public functions and records one span per call. A
// layer's self time is its rung's median minus the medians of the rungs it
// calls. This is attribution by differencing replays, not by following one
// request: it cannot see overlap between layers, and a layer cheaper than
// the noise between two replays can come out slightly negative.

// perLayer names the per-layer metrics in reporting order; BENCHMARK.json
// carries the same list.
var perLayer = []struct{ name, unit string }{
	{"compress.encode_ms_per_mib", "ms/MiB"}, {"compress.decode_ms_per_mib", "ms/MiB"},
	{"compress.calls", "count"}, {"compress.ratio", "ratio"},
	{"compress.zvc.encode_ms_per_mib", "ms/MiB"}, {"compress.zvc.decode_ms_per_mib", "ms/MiB"}, {"compress.zvc.ratio", "ratio"},
	{"compress.rle.encode_ms_per_mib", "ms/MiB"}, {"compress.rle.decode_ms_per_mib", "ms/MiB"}, {"compress.rle.ratio", "ratio"},
	{"compress.csr.encode_ms_per_mib", "ms/MiB"}, {"compress.csr.decode_ms_per_mib", "ms/MiB"}, {"compress.csr.ratio", "ratio"},
	{"compress.lz4.encode_ms_per_mib", "ms/MiB"}, {"compress.lz4.decode_ms_per_mib", "ms/MiB"}, {"compress.lz4.ratio", "ratio"},
	{"compress.huf.encode_ms_per_mib", "ms/MiB"}, {"compress.huf.decode_ms_per_mib", "ms/MiB"}, {"compress.huf.ratio", "ratio"},
	{"costmodel.break_even_link_gbps", "GB/s"},
	{"executor.swapout_self_ms", "ms"}, {"executor.swapin_self_ms", "ms"}, {"executor.verify_ms_per_mib", "ms/MiB"},
	{"executor.arena_hit_share", "ratio"}, {"devmem.host_peak_mb", "MB"}, {"devmem.device_peak_mb", "MB"},
	{"executor.blocks_per_run", "ratio"},
	{"executor.fallbacks", "count"}, {"executor.decode_retries", "count"}, {"executor.backpressure_waits", "count"},
	{"tier.put_ms_per_mib", "ms/MiB"}, {"tier.write_amp", "ratio"}, {"tier.demotions", "count"},
	{"tier.get_ms_per_mib", "ms/MiB"}, {"tier.delete_us", "us"}, {"tier.promotions", "count"}, {"tier.hit_share", "ratio"},
	{"sched.acquire_release_us", "us"}, {"sched.admits", "count"},
	{"sched.handoff_us", "us"}, {"sched.queue_wait_p50_ms", "ms"}, {"sched.queue_wait_tail_ms", "ms"}, {"sched.rejects", "count"},
	{"wire.encode_ms_per_mib", "ms/MiB"}, {"wire.decode_ms_per_mib", "ms/MiB"}, {"wire.alloc_per_byte", "B/B"},
	{"wire.batch_encode_us", "us"}, {"wire.batch_decode_us", "us"},
	{"server.swapout_self_ms", "ms"}, {"server.swapin_self_ms", "ms"}, {"server.alloc_per_byte", "B/B"},
	{"server.refused_429", "count"}, {"server.busy_409", "count"}, {"server.quota_507", "count"},
	{"server.cluster_route_self_ms", "ms"}, {"placement.owner_ns", "ns"},
	{"client.swapout_self_ms", "ms"}, {"client.swapin_self_ms", "ms"}, {"client.alloc_per_byte", "B/B"}, {"client.retries", "count"},
	{"trace.overhead_share", "ratio"},
}

// tracer collects the spans of one traced run in memory; they are written
// out when the run ends.
type tracer struct {
	mu     sync.Mutex // callers of a multi-caller workload record concurrently
	tl     trace.Timeline
	epoch  time.Time
	nextID int
}

// add records one span: layer.call, its id, and as parent the op's index in
// its pass.
func (tr *tracer) add(layer, call string, parent int, sp span) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.nextID++
	start := sp.start.Sub(tr.epoch).Seconds()
	_ = tr.tl.AddChecked(layer, fmt.Sprintf("%s.%s id=%d parent=%d", layer, call, tr.nextID, parent),
		start, start+sp.dur.Seconds())
}

const mibF = float64(mib)

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

// runTraced is one `-trace 1` run of a workload: it prints every per-layer
// metric and writes the span file.
func runTraced(cfg config, s *spec) (*result, error) {
	defer func() { sampleAllocs = false }()
	in := genInputs(s, cfg.seed)
	tr := &tracer{epoch: time.Now()}
	total := time.Duration(cfg.seconds * float64(time.Second))
	v := map[string]float64{}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	note := func(attempted, failed int, err error) {
		res.Attempted += attempted
		res.Failed += failed
		if err != nil || failed > 0 {
			res.Correct = false
		}
		if err != nil {
			fmt.Printf("   problem: %v\n", err)
		}
	}

	// The workload itself: untraced and traced passes alternate, so drift in
	// the machine's speed lands on both sides of the overhead comparison.
	x, _, err := warm(s, in, s.entryKind(), cfg.workDir, setupOpts{verify: true, count: true}, warmups)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	plain, traced := &window{}, &window{}
	snap0, sent0, untimed0 := x.reg.Snapshot(), x.sent(), x.untimed
	for t0 := time.Now(); len(traced.passBytes) == 0 || time.Since(t0) < 2*total/5; {
		sampleAllocs = false
		w, err := x.measure(0, nil, "")
		plain.add(w)
		note(w.rec.attempted, w.rec.failed, err)
		sampleAllocs = true
		w, err = x.measure(0, tr, "workload")
		traced.add(w)
		note(w.rec.attempted, w.rec.failed, err)
	}
	counters(v, s, x, snap0, x.reg.Snapshot())
	if x.counting != nil {
		calls := int64(plain.rec.attempted+traced.rec.attempted) + x.untimed - untimed0
		v["client.retries"] = float64(x.sent() - sent0 - calls)
	}
	pg, tg := passMedian(plain.passBytes, plain.passSeconds), passMedian(traced.passBytes, traced.passSeconds)
	v["trace.overhead_share"] = ratio(pg-tg, pg)
	if err := x.teardown(); err != nil {
		note(0, 0, err)
	}

	// The ladder, outside in. Each instance rung replays caller 0's pass for
	// a fifth of the run length (and at least one pass).
	budget := total / 5
	rung := func(layer string, k kind, o setupOpts) *window {
		o.single = true
		x, _, err := warm(s, in, k, cfg.workDir, o, 1)
		if err != nil {
			note(0, 0, fmt.Errorf("%s rung: %w", layer, err))
			return &window{}
		}
		runtime.GC()
		w, err := x.measure(budget, tr, layer)
		note(w.rec.attempted, w.rec.failed, err)
		if err := x.teardown(); err != nil {
			note(0, 0, err)
		}
		return w
	}
	cli := rung("client", kindClient, setupOpts{})
	srv := rung("server", kindHandler, setupOpts{})
	clu := rung("cluster", kindCluster, setupOpts{})
	exv := rung("executor", kindLib, setupOpts{verify: true})
	exn := rung("executor-noverify", kindLib, setupOpts{})

	runtime.GC() // the instance rungs left garbage; the pure rungs should not pay for it
	ops := passOps(s, in, 0)
	cr := compressRung(s, in, ops, tr)
	note(cr.calls, cr.wrong, nil)
	wr := wireRung(s, in, ops, tr)
	ti, err := tierRung(cr.blobs, filepath.Join(cfg.workDir, "tier-rung"), tr)
	if err != nil {
		note(0, 0, err)
		ti = &tiered{}
	}
	sr := schedRung(tr)
	v["placement.owner_ns"] = placementRung(s, tr)
	codecTable(v, cfg.seed, tr)

	// Differencing.
	opMiB := median(cr.opMiB)
	v["compress.encode_ms_per_mib"] = ratio(cr.encSec*1e3, float64(cr.rawBytes)/mibF)
	v["compress.decode_ms_per_mib"] = ratio(cr.decSec*1e3, float64(cr.rawBytes)/mibF)
	v["compress.calls"] = float64(cr.calls)
	v["compress.ratio"] = ratio(float64(cr.blobBytes), float64(cr.rawBytes))
	v["costmodel.break_even_link_gbps"] = ratio((1-v["compress.ratio"])*float64(cr.rawBytes), cr.encSec+cr.decSec) / 1e9

	v["tier.put_ms_per_mib"], v["tier.get_ms_per_mib"] = ti.putMsPerMiB, ti.getMsPerMiB
	v["tier.delete_us"], v["tier.write_amp"] = ti.deleteUs, ti.writeAmp
	blobMiB := ratio(float64(cr.blobBytes), float64(len(cr.blobs))) / mibF
	demotionsPerOut := ratio(v["tier.demotions"], float64(len(traced.rec.outMs)))
	exOut, exIn, exInNo := median(exv.rec.outMs), median(exv.rec.inMs), median(exn.rec.inMs)
	v["executor.swapout_self_ms"] = selfTime(exOut, once(median(cr.encMs)),
		weighted{ti.putMsPerMiB * blobMiB, demotionsPerOut})
	v["executor.swapin_self_ms"] = selfTime(exInNo, once(median(cr.decMs)),
		weighted{ti.getMsPerMiB*blobMiB + ti.deleteUs/1e3, v["tier.hit_share"]})
	v["executor.verify_ms_per_mib"] = ratio(exIn-exInNo, opMiB)

	v["sched.acquire_release_us"], v["sched.handoff_us"] = sr.pairUs, sr.handoffUs
	v["wire.encode_ms_per_mib"], v["wire.decode_ms_per_mib"] = wr.encMsPerMiB, wr.decMsPerMiB
	v["wire.alloc_per_byte"] = wr.allocPerByte
	v["wire.batch_encode_us"], v["wire.batch_decode_us"] = wr.reqEncUs, wr.reqDecUs

	srvOut, srvIn := median(srv.rec.outMs), median(srv.rec.inMs)
	v["server.swapout_self_ms"] = selfTime(srvOut, once(exOut), once(wr.srvOutMs), once(sr.pairUs/1e3))
	v["server.swapin_self_ms"] = selfTime(srvIn, once(exIn), once(wr.srvInMs), once(sr.pairUs/1e3))
	v["server.cluster_route_self_ms"] = (median(clu.rec.outMs) - srvOut + median(clu.rec.inMs) - srvIn) / 2
	v["client.swapout_self_ms"] = selfTime(median(cli.rec.outMs), once(srvOut))
	v["client.swapin_self_ms"] = selfTime(median(cli.rec.inMs), once(srvIn))
	exAlloc := allocPerByte(exv)
	v["server.alloc_per_byte"] = allocPerByte(srv) - exAlloc - wr.srvAllocPerByte
	v["client.alloc_per_byte"] = allocPerByte(cli) - allocPerByte(srv)

	for _, m := range perLayer {
		res.Metrics[m.name] = metric{v[m.name], m.unit}
	}
	fmt.Printf("## %s traced  ops=%d failed=%d  goodput untraced %.2f MB/s, traced %.2f MB/s\n",
		s.name, res.Attempted, res.Failed, pg, tg)
	fmt.Printf("   rung medians, ms out/in:  client %.4f/%.4f  server %.4f/%.4f  cluster %.4f/%.4f  executor %.4f/%.4f (no verify %.4f/%.4f)  compress %.4f/%.4f\n",
		median(cli.rec.outMs), median(cli.rec.inMs), srvOut, srvIn, median(clu.rec.outMs), median(clu.rec.inMs),
		exOut, exIn, median(exn.rec.outMs), exInNo, median(cr.encMs), median(cr.decMs))
	// The rung the workload itself enters through replays the same calls with
	// one caller; everything below it telescopes to it.
	entry, entryName := cli, "client"
	if !s.service {
		entry, entryName = exv, "executor"
	}
	ladder, e2e := median(entry.rec.outMs)+median(entry.rec.inMs), median(traced.rec.outMs)+median(traced.rec.inMs)
	fmt.Printf("   ladder out+in %.4f ms (the %s rung, which the self times below it sum to) vs end-to-end p50 out+in %.4f ms in the traced passes: %+.1f%% (callers: %d there, 1 on the ladder)\n",
		ladder, entryName, e2e, 100*ratio(ladder-e2e, e2e), len(x.targets))
	fmt.Printf("   break-even link %.3f GB/s beside the modeled 10.6-12.9 GB/s PCIe link\n", v["costmodel.break_even_link_gbps"])
	for _, m := range perLayer {
		fmt.Printf("   %-34s %14.6g %s\n", m.name, v[m.name], m.unit)
	}
	out := cfg.traceOut
	if out == "" {
		out = filepath.Join(cfg.workDir, "trace-"+s.name+".json")
	}
	js, err := tr.tl.ChromeTrace()
	if err == nil {
		err = os.WriteFile(out, js, 0o644)
	}
	if err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	fmt.Printf("   %d spans -> %s\n", len(tr.tl.Spans), out)
	return res, nil
}

// sent is the HTTP requests the instance's clients have issued so far.
func (x *instance) sent() int64 {
	if x.counting == nil {
		return 0
	}
	return x.counting.sent.Load()
}

// allocPerByte is the heap bytes allocated inside a rung's spans per raw byte
// it restored.
func allocPerByte(w *window) float64 {
	return ratio(float64(w.rec.allocInSpans), float64(w.rec.restored))
}

// counters fills the count-type metrics from registry deltas (snapshot a to
// snapshot b) and pool peaks around the workload's own passes.
func counters(v map[string]float64, s *spec, x *instance, a, b *metrics.Snapshot) {
	// delta sums a counter over every label set it has.
	delta := func(name string) float64 {
		var d float64
		for _, c := range b.Counters {
			if c.Name == name {
				d += c.Value
			}
		}
		for _, c := range a.Counters {
			if c.Name == name {
				d -= c.Value
			}
		}
		return d
	}
	only := func(name string, labels ...metrics.Label) float64 {
		after, _ := b.Counter(name, labels...)
		before, _ := a.Counter(name, labels...)
		return after - before
	}
	hits := only("executor_arena_gets_total", metrics.L("outcome", "hit"))
	v["executor.arena_hit_share"] = ratio(hits, hits+only("executor_arena_gets_total", metrics.L("outcome", "miss")))
	if x.exec != nil {
		v["devmem.host_peak_mb"] = float64(x.exec.HostStats().Peak) / 1e6
		v["devmem.device_peak_mb"] = float64(x.exec.DeviceStats().Peak) / 1e6
	}
	v["executor.blocks_per_run"] = ratio(delta("executor_batch_blocks_total"), delta("executor_batch_runs_total"))
	v["executor.fallbacks"] = delta("executor_fallbacks_total")
	v["executor.decode_retries"] = delta("executor_decode_retries_total")
	v["executor.backpressure_waits"] = delta("executor_async_backpressure_total")
	v["tier.demotions"] = only("executor_tier_demotions_total")
	v["tier.promotions"] = delta("executor_tier_promotions_total")
	v["tier.hit_share"] = ratio(delta("executor_tier_hits_total"), delta("executor_swap_ins_total"))
	v["sched.admits"] = delta("server_sched_admits_total")
	v["sched.rejects"] = delta("server_sched_rejects_total") + delta("server_sched_expiries_total")
	v["server.refused_429"] = delta("server_backpressure_total")
	v["server.busy_409"] = delta("server_busy_total")
	v["server.quota_507"] = delta("server_quota_rejections_total")

	// Queue wait: the scheduler's own histogram, all lanes, over the window.
	var bounds []float64
	var counts []int64
	for _, h := range b.Histograms {
		if h.Name != "server_sched_queue_wait_seconds" {
			continue
		}
		if counts == nil {
			counts = make([]int64, len(h.Buckets))
			for _, bk := range h.Buckets {
				bounds = append(bounds, bk.UpperBound)
			}
		}
		for i, bk := range h.Buckets {
			counts[i] += bk.Count
		}
	}
	for _, h := range a.Histograms {
		if h.Name == "server_sched_queue_wait_seconds" {
			for i, bk := range h.Buckets {
				counts[i] -= bk.Count
			}
		}
	}
	if counts != nil {
		v["sched.queue_wait_p50_ms"] = histQuantile(bounds, counts, 0.5) * 1e3
		v["sched.queue_wait_tail_ms"] = histQuantile(bounds, counts, s.tailPct/100) * 1e3
	}
}

// ---------------------------------------------------------------------------
// compress rung.

// compressed is what the compress rung measured, plus the blobs it produced
// (the tier rung stores blobs of exactly these sizes).
type compressed struct {
	encMs, decMs        []float64 // per op
	opMiB               []float64 // raw MiB per swap-in op
	encSec, decSec      float64
	rawBytes, blobBytes int64
	calls, wrong        int
	blobs               [][]byte
}

// maxTierBlobs caps how many blobs the compress rung keeps for the tier rung.
const maxTierBlobs = 256

// compressRung replays one pass against compress.AppendParallelEncode and
// ParallelDecodeInto at the daemon's launch, one call per tensor or per
// coalesced block run — the unit the executor hands the codec.
func compressRung(s *spec, in *inputs, ops []op, tr *tracer) *compressed {
	type stored struct {
		src  []float32
		blob []byte
	}
	c := &compressed{}
	var alg compress.Algorithm
	var img []float32
	var held []*stored // per block (KV) or per tensor: the stored run holding it
	if s.kv != nil {
		img = in.pools[0]
		alg = compress.BestRatioAlgorithm(zeroShare(img))
		held = make([]*stored, s.blocks())
	} else {
		held = make([]*stored, len(in.tensors))
	}
	// One encode buffer and one decode buffer, reused like the executor's
	// arena, so a call pays for the codec and not for fresh pages.
	var buf []byte
	var dst []float32
	for i, o := range ops {
		var dur time.Duration
		if o.out {
			var srcs [][]float32
			var keys [][2]int // first held index, count
			if s.kv == nil {
				srcs, keys = [][]float32{in.tensors[o.item]}, [][2]int{{o.item, 1}}
				alg = compress.BestRatioAlgorithm(zeroShare(in.tensors[o.item]))
			} else {
				for _, r := range executor.CoalesceBlockIDs(o.ids) {
					srcs = append(srcs, img[r.Start*s.blockElems:(r.Start+r.Count)*s.blockElems])
					keys = append(keys, [2]int{r.Start, r.Count})
				}
			}
			for j, src := range srcs {
				bound, err := compress.MaxParallelEncodedLen(alg, len(src), launch)
				if err != nil {
					c.wrong++
					continue
				}
				if cap(buf) < bound {
					buf = make([]byte, bound)
				}
				var blob []byte
				sp, err := timed(func() (err error) {
					blob, err = compress.AppendParallelEncode(buf[:0], alg, src, launch)
					return err
				})
				c.calls++
				if err != nil {
					c.wrong++
					continue
				}
				tr.add("compress", "encode", i, sp)
				dur += sp.dur
				blob = append([]byte(nil), blob...) // keep only the used bytes
				st := &stored{src: src, blob: blob}
				for k := keys[j][0]; k < keys[j][0]+keys[j][1]; k++ {
					held[k] = st
				}
				c.rawBytes += int64(len(src)) * 4
				c.blobBytes += int64(len(blob))
				if len(c.blobs) < maxTierBlobs {
					c.blobs = append(c.blobs, blob)
				}
			}
			c.encSec += dur.Seconds()
			c.encMs = append(c.encMs, ms(dur))
			continue
		}
		idx := []int{o.item}
		if s.kv != nil {
			idx = o.ids
		}
		for _, k := range idx {
			st := held[k]
			if st == nil {
				continue // already resident: another block's run restored it
			}
			if cap(dst) < len(st.src) {
				dst = make([]float32, len(st.src))
			}
			d := dst[:len(st.src)]
			sp, err := timed(func() error { return compress.ParallelDecodeInto(d, st.blob, launch) })
			c.calls++
			if err != nil || !bitsEqual(d, st.src) {
				c.wrong++
			}
			tr.add("compress", "decode", i, sp)
			dur += sp.dur
			for j := range held {
				if held[j] == st {
					held[j] = nil
				}
			}
		}
		c.decSec += dur.Seconds()
		c.decMs = append(c.decMs, ms(dur))
		c.opMiB = append(c.opMiB, float64(s.rawBytes(in, o))/mibF)
	}
	return c
}

// codecTable measures each codec alone on one fixed 16 MiB tensor at
// sparsity 0.5, so the per-codec rows are comparable across workloads.
func codecTable(v map[string]float64, seed int64, tr *tracer) {
	src := tensor.NewGenerator(seed).SizedUniform(16*mib, 0.5).Data
	dst := make([]float32, len(src))
	names := map[compress.Algorithm]string{compress.ZVC: "zvc", compress.RLE: "rle", compress.CSR: "csr", compress.LZ4: "lz4", compress.Huffman: "huf"}
	for i, alg := range compress.ExtendedAlgorithms() {
		bound, err := compress.MaxParallelEncodedLen(alg, len(src), launch)
		if err != nil {
			continue
		}
		buf := make([]byte, 0, bound)
		var blob []byte
		enc, err := timed(func() (err error) {
			blob, err = compress.AppendParallelEncode(buf, alg, src, launch)
			return err
		})
		if err != nil {
			continue
		}
		dec, err := timed(func() error { return compress.ParallelDecodeInto(dst, blob, launch) })
		if err != nil || !bitsEqual(dst, src) {
			continue
		}
		tr.add("compress", names[alg]+".encode", i, enc)
		tr.add("compress", names[alg]+".decode", i, dec)
		p := "compress." + names[alg]
		v[p+".encode_ms_per_mib"] = ms(enc.dur) / 16
		v[p+".decode_ms_per_mib"] = ms(dec.dur) / 16
		v[p+".ratio"] = float64(len(blob)) / float64(len(src)*4)
	}
}

// ---------------------------------------------------------------------------
// wire rung.

// wired is what the wire rung measured. srvOutMs/srvInMs are the wire work
// the server does for one request in each direction (read the request, encode
// the reply), which is what the server rung's self time subtracts.
type wired struct {
	encMsPerMiB, decMsPerMiB float64 // payload-bearing frames
	allocPerByte             float64
	reqEncUs, reqDecUs       float64 // control frames (batch ID lists, or the tensor requests)
	srvOutMs, srvInMs        float64
	srvAllocPerByte          float64
}

// wireRung runs wire.Encode and wire.Read over the frames one pass puts on
// the wire: the register frames, then each op's request and its reply.
func wireRung(s *spec, in *inputs, ops []op, tr *tracer) *wired {
	var reqEnc, reqDec, srvOut, srvIn []float64
	var dataEncSec, dataDecSec float64
	var dataBytes, dataAlloc, srvAlloc, inBytes uint64
	// trip encodes then reads one frame, returning both spans.
	trip := func(f *wire.Frame, parent int, what string) (enc, dec span) {
		var b []byte
		enc, err := timed(func() (err error) { b, err = wire.Encode(f); return err })
		if err != nil {
			return
		}
		dec, _ = timed(func() error { _, err := wire.Read(bytes.NewReader(b), 0); return err })
		tr.add("wire", "encode "+what, parent, enc)
		tr.add("wire", "read "+what, parent, dec)
		return
	}
	data := func(f *wire.Frame, parent int, what string) (enc, dec span) {
		enc, dec = trip(f, parent, what)
		dataEncSec += enc.dur.Seconds()
		dataDecSec += dec.dur.Seconds()
		dataBytes += uint64(len(f.Data)) * 4
		dataAlloc += enc.alloc + dec.alloc
		return
	}
	if s.kv == nil {
		for i, t := range in.tensors {
			data(&wire.Frame{Type: wire.TypeRegister, Name: tensorName(i), Data: t}, i, "register")
		}
	} else {
		trip(&wire.Frame{Type: wire.TypeRegisterPool, Name: poolName, BlockElems: s.blockElems, NumBlocks: s.blocks()}, 0, "register-pool")
		data(&wire.Frame{Type: wire.TypeBatchData, Name: poolName, BlockElems: s.blockElems,
			Runs: []wire.BlockRun{{Start: 0, Count: s.blocks()}}, Data: in.pools[0]}, 0, "batch-write")
	}
	for i, o := range ops {
		var req, resp *wire.Frame
		switch {
		case s.kv == nil && o.out:
			req = &wire.Frame{Type: wire.TypeSwapOut, Name: tensorName(o.item), Compress: true, Alg: compress.Auto}
		case s.kv == nil:
			req = &wire.Frame{Type: wire.TypeSwapIn, Name: tensorName(o.item)}
			resp = &wire.Frame{Type: wire.TypeTensorData, Name: req.Name, Data: in.tensors[o.item]}
		case o.out:
			req = &wire.Frame{Type: wire.TypeBatchSwapOut, Name: poolName, Compress: true, Alg: compress.Auto, BlockIDs: o.ids}
		default:
			req = &wire.Frame{Type: wire.TypeBatchSwapIn, Name: poolName, BlockIDs: o.ids}
			resp = &wire.Frame{Type: wire.TypeBatchData, Name: poolName, BlockElems: s.blockElems}
			for _, r := range executor.CoalesceBlockIDs(o.ids) {
				resp.Runs = append(resp.Runs, wire.BlockRun{Start: r.Start, Count: r.Count})
				resp.Data = append(resp.Data, in.pools[0][r.Start*s.blockElems:(r.Start+r.Count)*s.blockElems]...)
			}
		}
		qe, qd := trip(req, i, req.Type.String())
		reqEnc = append(reqEnc, qe.dur.Seconds()*1e6)
		reqDec = append(reqDec, qd.dur.Seconds()*1e6)
		if resp == nil {
			ae, _ := trip(&wire.Frame{Type: wire.TypeAck, Name: req.Name}, i, "ack")
			srvOut = append(srvOut, ms(qd.dur+ae.dur))
			continue
		}
		re, _ := data(resp, i, resp.Type.String())
		srvIn = append(srvIn, ms(qd.dur+re.dur))
		srvAlloc += qd.alloc + re.alloc
		inBytes += uint64(len(resp.Data)) * 4
	}
	return &wired{
		encMsPerMiB:     ratio(dataEncSec*1e3, float64(dataBytes)/mibF),
		decMsPerMiB:     ratio(dataDecSec*1e3, float64(dataBytes)/mibF),
		allocPerByte:    ratio(float64(dataAlloc), float64(dataBytes)),
		reqEncUs:        median(reqEnc),
		reqDecUs:        median(reqDec),
		srvOutMs:        median(srvOut),
		srvInMs:         median(srvIn),
		srvAllocPerByte: ratio(float64(srvAlloc), float64(inBytes)),
	}
}

// ---------------------------------------------------------------------------
// tier rung.

type tiered struct {
	putMsPerMiB, getMsPerMiB, deleteUs, writeAmp float64
}

// tierRung puts, gets and deletes blobs of the workload's compressed sizes in
// a fresh store under dir. Like the tier itself it never syncs: the times are
// the page cache's.
func tierRung(blobs [][]byte, dir string, tr *tracer) (*tiered, error) {
	defer os.RemoveAll(dir)
	st, err := tier.Open(dir, 0, nil)
	if err != nil {
		return nil, err
	}
	var putSec, getSec float64
	var payload int64
	var del []float64
	key := func(i int) string { return fmt.Sprintf("bench/blob%04d", i) }
	for i, b := range blobs {
		sp, err := timed(func() error { return st.Put(key(i), b, struct{ RawBytes int }{len(b)}) })
		if err != nil {
			return nil, err
		}
		tr.add("tier", "put", i, sp)
		putSec += sp.dur.Seconds()
		payload += int64(len(b))
	}
	var onDisk int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			onDisk += fi.Size()
		}
	}
	for i, b := range blobs {
		var got []byte
		sp, err := timed(func() (err error) { got, err = st.Get(key(i), nil); return err })
		if err != nil || !bytes.Equal(got, b) {
			return nil, fmt.Errorf("tier rung: blob %d read back wrong: %v", i, err)
		}
		tr.add("tier", "get", i, sp)
		getSec += sp.dur.Seconds()
	}
	for i := range blobs {
		sp, err := timed(func() error { _, err := st.Delete(key(i)); return err })
		if err != nil {
			return nil, err
		}
		tr.add("tier", "delete", i, sp)
		del = append(del, sp.dur.Seconds()*1e6)
	}
	if st.Len() != 0 {
		return nil, fmt.Errorf("tier rung: %d blobs left after delete", st.Len())
	}
	return &tiered{
		putMsPerMiB: ratio(putSec*1e3, float64(payload)/mibF),
		getMsPerMiB: ratio(getSec*1e3, float64(payload)/mibF),
		deleteUs:    median(del),
		writeAmp:    ratio(float64(onDisk), float64(payload)),
	}, nil
}

// ---------------------------------------------------------------------------
// sched and placement rungs.

type scheduled struct{ pairUs, handoffUs float64 }

// schedRung times an uncontended Acquire/Release pair on a one-slot
// scheduler, and the hand-off of that slot to one queued waiter: from the
// holder's Release to the waiter's Acquire returning.
func schedRung(tr *tracer) *scheduled {
	sc, err := sched.New(sched.Config{Slots: 1})
	if err != nil {
		return &scheduled{}
	}
	defer sc.Close()
	ctx := context.Background()
	const pairs, perSpan, handoffs = 20000, 100, 1000
	var pair []float64
	for i := 0; i < pairs/perSpan; i++ {
		sp, _ := timed(func() error {
			for j := 0; j < perSpan; j++ {
				if err := sc.Acquire(ctx, sched.LaneNormal, time.Time{}); err != nil {
					return err
				}
				sc.Release()
			}
			return nil
		})
		tr.add("sched", fmt.Sprintf("acquire-release x%d", perSpan), i, sp)
		pair = append(pair, sp.dur.Seconds()*1e6/perSpan)
	}
	var handoff []float64
	for i := 0; i < handoffs; i++ {
		if err := sc.Acquire(ctx, sched.LaneNormal, time.Time{}); err != nil {
			break
		}
		got := make(chan time.Time, 1) // sized to the one send
		go func() {
			err := sc.Acquire(ctx, sched.LaneNormal, time.Time{})
			got <- time.Now()
			if err == nil {
				sc.Release()
			}
		}()
		for sc.Depth(sched.LaneNormal) == 0 {
			runtime.Gosched()
		}
		t0 := time.Now()
		sc.Release()
		t1 := <-got
		tr.add("sched", "handoff", i, span{start: t0, dur: t1.Sub(t0)})
		handoff = append(handoff, t1.Sub(t0).Seconds()*1e6)
	}
	return &scheduled{pairUs: median(pair), handoffUs: median(handoff)}
}

// placementRung times Ring.Owner on a 2-shard ring over the workload's keys.
func placementRung(s *spec, tr *tracer) float64 {
	ring := placement.NewRing([]int{0, 1}, 0)
	var keys []string
	if s.kv != nil {
		keys = []string{placement.Key(tenantName(0), poolName)}
	}
	for i := 0; i < s.tensors; i++ {
		keys = append(keys, placement.Key(tenantName(0), tensorName(i)))
	}
	const calls = 200000
	sink := 0
	sp, _ := timed(func() error {
		for i := 0; i < calls; i++ {
			shard, _ := ring.Owner(keys[i%len(keys)])
			sink += shard
		}
		return nil
	})
	tr.add("placement", fmt.Sprintf("owner x%d (%d)", calls, sink), 0, sp)
	return float64(sp.dur.Nanoseconds()) / calls
}
