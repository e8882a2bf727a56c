package executor

import (
	"time"

	"cswap/internal/compress"
	"cswap/internal/metrics"
)

// instruments are the executor's pre-resolved registry cells. They are
// resolved once at construction — the swap hot path updates lock-free
// atomic counters with no map lookups and no allocations, which is what
// keeps the nil-Observer configuration at its pre-registry cost.
type instruments struct {
	swapOuts, swapIns               *metrics.Counter
	rawBytes, movedBytes            *metrics.Counter
	compressed, verified            *metrics.Counter
	encodeFallbacks, allocFallbacks *metrics.Counter
	decodeRetries, decodeRecoveries *metrics.Counter
	busyRejections                  *metrics.Counter
	// Clean copies (BlockPool.cleanCopy): swap-outs that committed one
	// instead of storing, and copies given up before reuse.
	cleanSwapOuts, cleanDrops *metrics.Counter

	// Async pipeline instruments: the in-flight gauge and its high-water
	// mark, the queue-depth histogram (one observation per submission, of
	// the window occupancy it saw), backpressure stalls, and per-op
	// submission counters.
	asyncInflight     *metrics.Gauge
	asyncPeak         *metrics.Gauge
	asyncDepth        *metrics.Histogram
	asyncBackpressure *metrics.Counter
	submittedOut      *metrics.Counter
	submittedIn       *metrics.Counter
	submittedPrefetch *metrics.Counter

	// Block-pool batch instruments: blocks and coalesced runs moved by
	// batch operations, the per-batch size distribution (requested IDs),
	// and the coalescing ratio (runs/blocks, 1 = nothing merged).
	batchBlocks   *metrics.Counter
	batchRuns     *metrics.Counter
	batchSize     *metrics.Histogram
	coalesceRatio *metrics.Histogram

	// Disk-tier instruments: bytes resident in the spill tier, demotions
	// (host→tier), promotions (tier→host-free restore) and tier hits
	// (restores whose payload was read from the tier).
	tierOccupancy  *metrics.Gauge
	tierDemotions  *metrics.Counter
	tierPromotions *metrics.Counter
	tierHits       *metrics.Counter

	// Scheduler-coupling and background-demotion instruments: shed events
	// (one per preemption) and the runs they rolled back, the background
	// demoter's demotions (a labeled sibling of tierDemotions, so
	// dashboards can split inline pressure demotion from background
	// housekeeping) and its owed sweeps (wake-ups accepted and not yet
	// swept: 0 when it is idle), and tier payloads staged host-ward by
	// prefetch read-ahead.
	schedPreemptions   *metrics.Counter
	schedShedRuns      *metrics.Counter
	watermarkDemotions *metrics.Counter
	demoterPending     *metrics.Gauge
	tierReadahead      *metrics.Counter

	// Per-codec deep series, indexed by payload encoding: slot 0 is "raw"
	// (Auto never reaches a codec), slot a is codec a. The set is closed —
	// the codecs plus raw — so these resolve once like every other cell,
	// and neither tensors nor block runs pay a registry lookup per swap.
	codec [compress.Huffman + 1]codecCells
}

// codecCells are one payload encoding's Observer-only series: bytes moved,
// the stored-blob size distribution, and encode/decode kernel time.
type codecCells struct {
	moved    *metrics.Counter
	blob     *metrics.Histogram
	enc, dec *metrics.Histogram
}

func newInstruments(r *metrics.Registry) instruments {
	ins := instruments{
		swapOuts:         r.Counter("executor_swap_outs_total"),
		swapIns:          r.Counter("executor_swap_ins_total"),
		rawBytes:         r.Counter("executor_raw_bytes_total"),
		movedBytes:       r.Counter("executor_moved_bytes_total"),
		compressed:       r.Counter("executor_compressed_tensors_total"),
		verified:         r.Counter("executor_verified_total"),
		encodeFallbacks:  r.Counter("executor_fallbacks_total", metrics.L("site", "encode")),
		allocFallbacks:   r.Counter("executor_fallbacks_total", metrics.L("site", "host-alloc")),
		decodeRetries:    r.Counter("executor_decode_retries_total"),
		decodeRecoveries: r.Counter("executor_decode_recoveries_total"),
		busyRejections:   r.Counter("executor_busy_rejections_total"),
		cleanSwapOuts:    r.Counter("executor_clean_swapouts_total"),
		cleanDrops:       r.Counter("executor_clean_drops_total"),

		asyncInflight:     r.Gauge("executor_async_inflight"),
		asyncPeak:         r.Gauge("executor_async_inflight_peak"),
		asyncDepth:        r.HistogramWith("executor_async_queue_depth", metrics.ExpBuckets(1, 2, 10)),
		asyncBackpressure: r.Counter("executor_async_backpressure_total"),
		submittedOut:      r.Counter("executor_async_submitted_total", metrics.L("op", "swap-out")),
		submittedIn:       r.Counter("executor_async_submitted_total", metrics.L("op", "swap-in")),
		submittedPrefetch: r.Counter("executor_async_submitted_total", metrics.L("op", "prefetch")),

		batchBlocks: r.Counter("executor_batch_blocks_total"),
		batchRuns:   r.Counter("executor_batch_runs_total"),
		batchSize:   r.HistogramWith("executor_batch_size_blocks", metrics.ExpBuckets(1, 2, 12)),
		coalesceRatio: r.HistogramWith("executor_batch_coalescing_ratio",
			metrics.ExpBuckets(1.0/64, 2, 7)),

		tierOccupancy:  r.Gauge("executor_tier_occupancy_bytes"),
		tierDemotions:  r.Counter("executor_tier_demotions_total"),
		tierPromotions: r.Counter("executor_tier_promotions_total"),
		tierHits:       r.Counter("executor_tier_hits_total"),

		schedPreemptions:   r.Counter("executor_sched_preemptions_total"),
		schedShedRuns:      r.Counter("executor_sched_shed_runs_total"),
		watermarkDemotions: r.Counter("executor_tier_demotions_total", metrics.L("reason", "watermark")),
		demoterPending:     r.Gauge("executor_tier_demoter_pending"),
		tierReadahead:      r.Counter("executor_tier_readahead_total"),
	}
	cells := func(codec string) codecCells {
		lab := metrics.L("codec", codec)
		return codecCells{
			moved: r.Counter("executor_moved_bytes_by_codec_total", lab),
			blob:  r.HistogramWith("executor_blob_bytes", metrics.ByteBuckets(), lab),
			enc:   r.Histogram("executor_encode_seconds", lab),
			dec:   r.Histogram("executor_decode_seconds", lab),
		}
	}
	ins.codec[0] = cells("raw")
	for _, a := range compress.ExtendedAlgorithms() {
		ins.codec[a] = cells(a.String())
	}
	return ins
}

// asyncSubmitted returns the pre-resolved submission counter for an op.
func (i *instruments) asyncSubmitted(op string) *metrics.Counter {
	switch op {
	case "swap-out", "batch-swap-out":
		return i.submittedOut
	case "swap-in", "batch-swap-in":
		return i.submittedIn
	default:
		return i.submittedPrefetch
	}
}

// forPayload returns the per-codec series for a stored payload's encoding:
// the codec's for compressed blobs, "raw" for uncompressed ones (including
// fallbacks).
func (i *instruments) forPayload(s *stored) *codecCells {
	if !s.compressed {
		return &i.codec[0]
	}
	return &i.codec[s.alg]
}

// CodecTotals returns the cumulative deep series of one codec's committed
// swaps: encode seconds and encodes, decode seconds, bytes moved — what the
// online tuner diffs between ticks. They move only under an Observer.
func (e *Executor) CodecTotals(alg compress.Algorithm) (encSeconds float64, encodes int64, decSeconds, movedBytes float64) {
	c := &e.ins.codec[alg]
	return c.enc.Sum(), c.enc.Count(), c.dec.Sum(), c.moved.Value()
}

// observeSwapOut records the deep (Observer-only) view of one swap-out:
// per-codec volume, encode timing, a wall-clock span, and fallback events.
// t0/t1 bound the whole operation in seconds since the executor epoch. It
// runs after the owner has committed, so it takes the payload's series and
// stored size by value instead of reading a record it no longer owns.
func (e *Executor) observeSwapOut(name string, c *codecCells, moved int, encDur time.Duration, t0, t1 float64, encodeFellBack, allocFellBack bool) {
	o := e.obs
	c.moved.Add(float64(moved))
	c.blob.Observe(float64(moved))
	if encDur > 0 {
		c.enc.Observe(encDur.Seconds())
	}
	if o.Trace != nil {
		o.Span("swap-out", "o:"+name, t0, t1)
	}
	if encodeFellBack {
		o.Emit("executor.fallback", "tensor", name, "site", "encode")
	}
	if allocFellBack {
		o.Emit("executor.fallback", "tensor", name, "site", "host-alloc")
	}
}

// observeSwapIn records the deep view of one swap-in: decode timing, a
// wall-clock span, and retry/recovery events. Like observeSwapOut it may run
// after the commit, so the series is resolved by the caller.
func (e *Executor) observeSwapIn(name string, c *codecCells, decDur time.Duration, t0, t1 float64, retried, recovered bool) {
	o := e.obs
	if decDur > 0 {
		c.dec.Observe(decDur.Seconds())
	}
	if o.Trace != nil {
		o.Span("swap-in", "p:"+name, t0, t1)
	}
	if retried {
		outcome := "failed"
		if recovered {
			outcome = "recovered"
		}
		o.Emit("executor.decode_retry", "tensor", name, "outcome", outcome)
	}
}

// sinceEpoch is the executor's wall clock for spans, in seconds.
func (e *Executor) sinceEpoch() float64 { return time.Since(e.epoch).Seconds() }
