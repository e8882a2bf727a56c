// Swap-server: the serving layer end to end. By default this example
// starts an in-process cswapd-equivalent service on an ephemeral port,
// drives it with the public client — two tenants registering, swapping
// out through different codecs, and restoring bit-exactly — and prints
// the per-tenant accounting the service exposes over /metrics.
//
// With -connect the example skips the in-process service and drives an
// externally started daemon instead:
//
//	cswapd -addr 127.0.0.1:7077 &
//	go run ./examples/swap-server -connect http://127.0.0.1:7077
//
// With -smoke the example additionally scrapes /metrics and exits
// non-zero unless the swap counters moved — the assertion the Makefile's
// serve-smoke target builds on.
//
// With -drift the example instead drives a drifting-sparsity workload
// against a tuner-enabled daemon (cswapd -tune): dense tensors swapped
// through the Auto selector until the tuner issues a Huffman verdict, then
// sparse tensors until the codec-switch counter moves. It exits non-zero
// if the tuner never reacts — the assertion behind the Makefile's
// tune-smoke target.
//
// With -cluster the example drives a sharded daemon (cswapd -shards 3, or
// an in-process 3-shard cluster when -connect is absent) with the
// cluster-aware client: three tenants spread tensors across every shard,
// restores are verified bit-exact, one shard is drained live, and the
// survivors must restore every migrated tensor bit-exactly. /metrics must
// show per-shard swap counters and a non-zero rebalance count — the
// assertions behind the Makefile's cluster-smoke target.
//
// With -pressure the example drives an overflow workload against a daemon
// whose pinned-host pool is deliberately too small for the swap stream
// (cswapd -host 1 -tier-dir DIR): every swap-out must still succeed by
// demoting cold blobs to the disk tier, /metrics must show
// executor_tier_demotions_total > 0 and zero quota rejections, and every
// restore must come back bit-exact through the promote path — the
// assertions behind the Makefile's tier-smoke target.
//
// With -slo the example drives an SLO-scheduling workload against a
// scheduler-enabled daemon (cswapd -sched): a saturating stream of
// speculative prefetches with a train of deadline-bound critical restores
// riding over it. Every critical restore must land bit-exact within its
// deadline, /metrics must show both lanes admitted and zero critical
// expiries — the assertions behind the Makefile's slo-smoke target.
//
// With -kv the example drives the batch block API with a paged KV-cache
// decode trace: one pool registration, then per decode step one
// batch-swap-out of the evicted block IDs and one batch-swap-in of the
// returning ones, every restore verified bit-exact. It then times 64
// single-block round trips against one 64-block batch and exits non-zero
// unless the batch lands under 25% of the singles' wall time, the batch
// counters moved, and the coalescing-ratio histogram is populated — the
// assertions behind the Makefile's kv-smoke target.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"cswap"
	"cswap/client"
)

var errExit = false

func main() {
	connect := flag.String("connect", "", "drive an external daemon at this base URL instead of an in-process service")
	smoke := flag.Bool("smoke", false, "assert non-zero swap counters via /metrics and exit non-zero on failure")
	drift := flag.Bool("drift", false, "drive a drifting-sparsity workload and assert the tuner switched codecs (requires cswapd -tune)")
	clusterMode := flag.Bool("cluster", false, "drive a sharded daemon with the cluster client: spread keys, drain a shard, verify bit-exact restores")
	kvMode := flag.Bool("kv", false, "drive the batch block API with a KV-cache decode trace and assert batching beats single-block round trips")
	pressure := flag.Bool("pressure", false, "drive a host-overflow workload and assert it completes via tier demotions with zero 507s (requires cswapd -tier-dir)")
	slo := flag.Bool("slo", false, "drive a speculative flood plus deadline-bound critical restores and assert zero critical expiries (requires cswapd -sched)")
	flag.Parse()

	if *slo {
		if *connect == "" {
			log.Fatal("-slo requires -connect (a cswapd started with -sched)")
		}
		if err := driveSLO(*connect); err != nil {
			log.Fatal(err)
		}
		fmt.Println("slo: ok")
		return
	}

	if *pressure {
		if *connect == "" {
			log.Fatal("-pressure requires -connect (a cswapd started with -tier-dir and a small -host)")
		}
		if err := drivePressure(*connect); err != nil {
			log.Fatal(err)
		}
		fmt.Println("pressure: ok")
		return
	}

	if *drift {
		if *connect == "" {
			log.Fatal("-drift requires -connect (a cswapd started with -tune)")
		}
		if err := driveDrift(*connect); err != nil {
			log.Fatal(err)
		}
		fmt.Println("drift: ok")
		return
	}

	if *clusterMode {
		base := *connect
		if base == "" {
			cl, err := cswap.NewSwapCluster(
				cswap.WithSwapShards(3),
				cswap.WithSwapDeviceCapacity(64<<20),
				cswap.WithSwapHostCapacity(256<<20),
				cswap.WithSwapVerify(true),
			)
			if err != nil {
				log.Fatal(err)
			}
			hs := httptest.NewServer(cl.Handler())
			defer func() {
				hs.Close()
				_ = cl.Close()
			}()
			base = hs.URL
			fmt.Printf("in-process 3-shard cluster at %s\n", base)
		}
		if err := driveCluster(base); err != nil {
			log.Fatal(err)
		}
		fmt.Println("cluster: ok")
		return
	}

	if *kvMode {
		base := *connect
		if base == "" {
			svc, err := cswap.NewSwapService(
				cswap.WithSwapDeviceCapacity(64<<20),
				cswap.WithSwapHostCapacity(256<<20),
				cswap.WithSwapVerify(true),
			)
			if err != nil {
				log.Fatal(err)
			}
			hs := httptest.NewServer(svc.Handler())
			defer func() {
				hs.Close()
				_ = svc.Close()
			}()
			base = hs.URL
			fmt.Printf("in-process swap service at %s\n", base)
		}
		if err := driveKV(base); err != nil {
			log.Fatal(err)
		}
		fmt.Println("kv: ok")
		return
	}

	base := *connect
	if base == "" {
		// In-process service: same code path cswapd runs, mounted on an
		// httptest listener so the example is self-contained.
		svc, err := cswap.NewSwapService(
			cswap.WithSwapDeviceCapacity(64<<20),
			cswap.WithSwapHostCapacity(256<<20),
			cswap.WithSwapVerify(true),
		)
		if err != nil {
			log.Fatal(err)
		}
		hs := httptest.NewServer(svc.Handler())
		defer func() {
			hs.Close()
			_ = svc.Close()
		}()
		base = hs.URL
		fmt.Printf("in-process swap service at %s\n", base)
	} else {
		fmt.Printf("connecting to %s\n", base)
	}

	ctx := context.Background()
	gen := cswap.NewTensorGenerator(42)

	// Two tenants share the service; each swaps a tensor of its own
	// sparsity through its own codec.
	tenants := []struct {
		name     string
		alg      client.Algorithm
		sparsity float64
	}{
		{"trainer-a", client.ZVC, 0.7},
		{"trainer-b", client.LZ4, 0.3},
	}
	for _, tn := range tenants {
		c := client.New(base, client.WithTenant(tn.name))
		data := gen.Uniform(64*1024, tn.sparsity).Data
		want := append([]float32(nil), data...)

		if err := c.Register(ctx, "act0", data); err != nil {
			log.Fatal(err)
		}
		if err := c.SwapOut(ctx, "act0", client.WithCodec(tn.alg)); err != nil {
			log.Fatal(err)
		}
		got, err := c.SwapIn(ctx, "act0")
		if err != nil {
			log.Fatal(err)
		}
		exact := len(got) == len(want)
		for i := 0; exact && i < len(want); i++ {
			exact = math.Float32bits(got[i]) == math.Float32bits(want[i])
		}
		fmt.Printf("%-10s %s  %6d KiB  sparsity %.0f%%  bit-exact %v\n",
			tn.name, tn.alg, len(want)*4/1024, tn.sparsity*100, exact)
		if !exact {
			errExit = true
		}
	}

	// The service's own accounting, over the same endpoint an operator
	// scrapes.
	text, err := client.New(base).Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, series := range []string{
		"executor_swap_outs_total",
		"executor_swap_ins_total",
		"server_sessions",
		`server_tenant_used_bytes{tenant="trainer-a"}`,
	} {
		fmt.Printf("  %-50s %s\n", series, sample(text, series))
	}

	if *smoke {
		for _, series := range []string{"executor_swap_outs_total", "executor_swap_ins_total"} {
			v := sample(text, series)
			if v == "" || v == "0" {
				fmt.Fprintf(os.Stderr, "smoke: %s = %q, want non-zero\n", series, v)
				errExit = true
			}
		}
		if !errExit {
			fmt.Println("smoke: ok")
		}
	}
	if errExit {
		os.Exit(1)
	}
}

// sample pulls one raw sample value out of Prometheus exposition text.
func sample(text, series string) string {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			return rest
		}
	}
	return ""
}

// driveCluster exercises the sharded service end to end: three tenants
// spread tensors over every shard through the cluster-aware client, every
// restore is verified bit-exact, one shard is drained live, and every
// migrated tensor must restore bit-exactly from its new shard.
func driveCluster(base string) error {
	ctx := context.Background()
	gen := cswap.NewTensorGenerator(7)
	mc := client.New(base)

	tenants := []string{"trainer-a", "trainer-b", "trainer-c"}
	clients := map[string]*client.ClusterClient{}
	for _, tn := range tenants {
		cc := client.NewCluster(base, client.WithTenant(tn))
		if err := cc.Refresh(ctx); err != nil {
			return fmt.Errorf("cluster: refresh: %w", err)
		}
		clients[tn] = cc
	}
	m := clients[tenants[0]].Map()
	fmt.Printf("cluster: %d shards, map version %d\n", len(m.Shards), m.Version)
	if len(m.Shards) < 2 {
		return fmt.Errorf("cluster: want a sharded daemon (cswapd -shards N), got %d shard(s)", len(m.Shards))
	}

	type key struct{ tenant, name string }
	want := map[key][]float32{}
	const perTenant = 12
	for _, tn := range tenants {
		cc := clients[tn]
		for i := 0; i < perTenant; i++ {
			name := fmt.Sprintf("layer%d/act", i)
			data := gen.Uniform(4096, float64(i%5)/5).Data
			want[key{tn, name}] = append([]float32(nil), data...)
			if err := cc.Register(ctx, name, data); err != nil {
				return fmt.Errorf("cluster: register %s/%s: %w", tn, name, err)
			}
			if err := cc.SwapOut(ctx, name); err != nil {
				return fmt.Errorf("cluster: swap-out %s/%s: %w", tn, name, err)
			}
		}
	}

	// verify restores every tensor bit-exactly and swaps it back out, so
	// each stage leaves the population swapped (the state a drain migrates).
	verify := func(stage string) error {
		for k, w := range want {
			got, err := clients[k.tenant].SwapIn(ctx, k.name)
			if err != nil {
				return fmt.Errorf("cluster: %s swap-in %s/%s: %w", stage, k.tenant, k.name, err)
			}
			exact := len(got) == len(w)
			for i := 0; exact && i < len(w); i++ {
				exact = math.Float32bits(got[i]) == math.Float32bits(w[i])
			}
			if !exact {
				return fmt.Errorf("cluster: %s restore of %s/%s is not bit-exact", stage, k.tenant, k.name)
			}
			if err := clients[k.tenant].SwapOut(ctx, k.name); err != nil {
				return fmt.Errorf("cluster: %s re-swap-out %s/%s: %w", stage, k.tenant, k.name, err)
			}
		}
		return nil
	}
	if err := verify("pre-drain"); err != nil {
		return err
	}

	// Every shard must have seen swap traffic: the ring spread the keys.
	text, err := mc.Metrics(ctx)
	if err != nil {
		return err
	}
	for _, s := range m.Shards {
		series := fmt.Sprintf(`executor_swap_outs_total{shard="%d"}`, s.ID)
		if v := sample(text, series); v == "" || v == "0" {
			return fmt.Errorf("cluster: %s = %q, want non-zero (keys not spread)", series, v)
		}
	}

	// Drain one shard live; its tensors migrate to the survivors.
	const victim = 1
	if err := clients[tenants[0]].DrainShard(ctx, victim); err != nil {
		return fmt.Errorf("cluster: drain shard %d: %w", victim, err)
	}
	m2 := clients[tenants[0]].Map()
	drained := false
	for _, s := range m2.Shards {
		if s.ID == victim && s.State == "drained" {
			drained = true
		}
	}
	if !drained || m2.Version <= m.Version {
		return fmt.Errorf("cluster: map after drain = %+v, want shard %d drained and a newer version", m2, victim)
	}
	if err := verify("post-drain"); err != nil {
		return err
	}
	text, err = mc.Metrics(ctx)
	if err != nil {
		return err
	}
	if v := sample(text, "cluster_rebalanced_tensors_total"); v == "" || v == "0" {
		return fmt.Errorf("cluster: cluster_rebalanced_tensors_total = %q, want non-zero", v)
	}
	fmt.Printf("cluster: drained shard %d, rebalanced %s tensors, all restores bit-exact\n",
		victim, sample(text, "cluster_rebalanced_tensors_total"))
	return nil
}

// driveKV drives the batch block API the way a paged-attention serving
// loop would: register one KV-cache pool, write every block once, then
// replay a deterministic decode trace — per step one batch-swap-out of
// the evicted IDs and one batch-swap-in of the returning ones, each
// restore verified bit-exact. It finishes with the head-to-head the
// batch path exists for: 64 single-block round trips versus one 64-block
// batch over the same connection, asserting the batch costs under 25% of
// the singles' wall time, and checks /metrics recorded batch traffic and
// a coalescing ratio below 1.
func driveKV(base string) error {
	ctx := context.Background()
	cfg := cswap.DefaultKVTrace()
	// 1 KiB blocks: small enough that per-request control cost, not codec
	// time, dominates a single-block swap — the regime paged KV caches
	// live in and the one batching exists to amortize.
	blockElems := 256
	numBlocks := cfg.Sequences * cfg.BlocksPerSeq

	c := client.New(base, client.WithTenant("decoder"))
	const pool = "layer0/kv"
	if err := c.RegisterPool(ctx, pool, blockElems, numBlocks); err != nil {
		return fmt.Errorf("kv: register pool: %w", err)
	}
	defer func() { _ = c.Free(context.Background(), pool) }()

	gen := cswap.NewTensorGenerator(11)
	want := gen.Uniform(numBlocks*blockElems, 0.5).Data
	allIDs := make([]int, numBlocks)
	for i := range allIDs {
		allIDs[i] = i
	}
	if err := c.WriteBlocks(ctx, pool, allIDs, want); err != nil {
		return fmt.Errorf("kv: write blocks: %w", err)
	}
	wantBlock := func(id int) []float32 {
		return want[id*blockElems : (id+1)*blockElems]
	}

	// Replay the decode trace: evictions leave as one coalesced batch per
	// step, restores return the same way, and every restored block must be
	// bit-exact.
	steps, blocksMoved := 0, 0
	for s, st := range cswap.GenKVTrace(cfg) {
		if len(st.Out) > 0 {
			if err := c.SwapOutBlocks(ctx, pool, st.Out); err != nil {
				return fmt.Errorf("kv: step %d swap-out %v: %w", s, st.Out, err)
			}
			blocksMoved += len(st.Out)
		}
		if len(st.In) > 0 {
			bd, err := c.SwapInBlocks(ctx, pool, st.In)
			if err != nil {
				return fmt.Errorf("kv: step %d swap-in %v: %w", s, st.In, err)
			}
			for _, id := range st.In {
				got, ok := bd.Block(id)
				if !ok {
					return fmt.Errorf("kv: step %d: block %d missing from batch result", s, id)
				}
				w := wantBlock(id)
				for i := range w {
					if math.Float32bits(got[i]) != math.Float32bits(w[i]) {
						return fmt.Errorf("kv: step %d: block %d not bit-exact at elem %d", s, id, i)
					}
				}
			}
			blocksMoved += len(st.In)
		}
		steps++
	}
	fmt.Printf("kv: replayed %d decode steps, %d blocks moved batched\n", steps, blocksMoved)

	// Head-to-head over the same loopback connection: equal byte volume,
	// only the per-operation control cost differs. Best-of-two per side
	// absorbs scheduler noise.
	batchIDs := allIDs[:64]
	if err := c.PrefetchBlocks(ctx, pool, allIDs); err != nil {
		return fmt.Errorf("kv: prefetch before timing: %w", err)
	}
	roundTrip := func(ids ...int) error {
		if err := c.SwapOutBlocks(ctx, pool, ids); err != nil {
			return err
		}
		_, err := c.SwapInBlocks(ctx, pool, ids)
		return err
	}
	if err := roundTrip(batchIDs...); err != nil { // warm the path
		return fmt.Errorf("kv: warmup: %w", err)
	}
	best := func(f func() error) (time.Duration, error) {
		min := time.Duration(math.MaxInt64)
		for i := 0; i < 2; i++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min, nil
	}
	singles, err := best(func() error {
		for _, id := range batchIDs {
			if err := roundTrip(id); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("kv: single-block round trips: %w", err)
	}
	batched, err := best(func() error { return roundTrip(batchIDs...) })
	if err != nil {
		return fmt.Errorf("kv: batched round trip: %w", err)
	}
	ratio := float64(batched) / float64(singles)
	fmt.Printf("kv: 64 single-block round trips %v, one 64-block batch %v (%.1f%%)\n",
		singles, batched, ratio*100)
	if ratio >= 0.25 {
		return fmt.Errorf("kv: batch took %.1f%% of single-block time, want < 25%%", ratio*100)
	}

	// The service and executor must have accounted the batches: request
	// and block counters moved, and the coalescing histogram saw ratios —
	// strictly fewer runs than blocks, or the run merge did nothing.
	text, err := client.New(base).Metrics(ctx)
	if err != nil {
		return err
	}
	for _, series := range []string{
		`server_batch_requests_total{op="swap-out"}`,
		`server_batch_blocks_total{op="swap-out"}`,
		`server_batch_blocks_total{op="swap-in"}`,
		"executor_batch_coalescing_ratio_count",
	} {
		if v := sample(text, series); v == "" || v == "0" {
			return fmt.Errorf("kv: %s = %q, want non-zero", series, v)
		}
	}
	var runs, blocks float64
	fmt.Sscan(sample(text, "executor_batch_runs_total"), &runs)
	fmt.Sscan(sample(text, "executor_batch_blocks_total"), &blocks)
	if runs <= 0 || blocks <= 0 || runs >= blocks {
		return fmt.Errorf("kv: executor saw %v runs for %v blocks, want coalescing (runs < blocks)", runs, blocks)
	}
	fmt.Printf("kv: coalesced %v blocks into %v runs (ratio %.3f)\n", blocks, runs, runs/blocks)
	return nil
}

// driveDrift swaps a dense workload through the Auto selector until the
// tuner issues a Huffman verdict, then switches the workload sparse and
// waits for the tuner's codec-switch counter to move. Each phase keeps the
// workload live (the tuner only acts on tenants with fresh evidence) and
// fails after a deadline.
// drivePressure overflows the daemon's pinned-host pool on purpose: eight
// raw swap-outs whose blobs cannot all fit must still succeed by demoting
// cold blobs to the disk tier, the tier counters must move with zero quota
// rejections, and every restore must come back bit-exact through the
// promote path. It starts by requiring an empty tier — a daemon reopening
// a used directory must have scrubbed what its predecessor left — and ends
// by leaving the last few tensors swapped and tiered, so tier-smoke's
// restart leg has orphans to find.
func drivePressure(base string) error {
	ctx := context.Background()
	const (
		tenant   = "pressured"
		nTensors = 8
		elems    = 96 * 1024 // 384 KiB raw per blob; a -host 1 pool fits two
	)
	c := client.New(base, client.WithTenant(tenant))
	gen := cswap.NewTensorGenerator(42)

	text, err := client.New(base).Metrics(ctx)
	if err != nil {
		return err
	}
	if occ := sample(text, "executor_tier_occupancy_bytes"); occ != "0" {
		return fmt.Errorf("pressure: executor_tier_occupancy_bytes = %q at start, want 0 (restart leaked tier capacity)", occ)
	}
	fmt.Printf("pressure: tier empty at start, %s orphans scrubbed at boot\n", sample(text, "server_tier_orphans_scrubbed_total"))

	payloads := make([][]float32, nTensors)
	for i := range payloads {
		name := fmt.Sprintf("p%d", i)
		data := gen.Uniform(elems, 0.5).Data
		payloads[i] = append([]float32(nil), data...)
		if err := c.Register(ctx, name, data); err != nil {
			return fmt.Errorf("pressure: register %s: %w", name, err)
		}
		// Raw swap-outs keep the blob sizes deterministic, so the overflow
		// is guaranteed regardless of codec behavior.
		if err := c.SwapOut(ctx, name, client.WithRaw()); err != nil {
			return fmt.Errorf("pressure: swap-out %s overflowed instead of demoting: %w", name, err)
		}
	}

	if text, err = client.New(base).Metrics(ctx); err != nil {
		return err
	}
	demotions := sample(text, "executor_tier_demotions_total")
	if demotions == "" || demotions == "0" {
		return fmt.Errorf("pressure: executor_tier_demotions_total = %q, want non-zero", demotions)
	}
	fmt.Printf("pressure: executor_tier_demotions_total = %s\n", demotions)
	rejections := sample(text, `server_quota_rejections_total{tenant="`+tenant+`"}`)
	if rejections != "" && rejections != "0" {
		return fmt.Errorf("pressure: server_quota_rejections_total = %s, want zero", rejections)
	}

	for i := range payloads {
		name := fmt.Sprintf("p%d", i)
		got, err := c.SwapIn(ctx, name)
		if err != nil {
			return fmt.Errorf("pressure: swap-in %s: %w", name, err)
		}
		for j := range payloads[i] {
			if math.Float32bits(got[j]) != math.Float32bits(payloads[i][j]) {
				return fmt.Errorf("pressure: %s restored[%d] = %v, want %v", name, j, got[j], payloads[i][j])
			}
		}
		// The second half goes back out and stays: the host pool fits two,
		// so the daemon exits with blobs in its tier directory.
		if i >= nTensors/2 {
			err = c.SwapOut(ctx, name, client.WithRaw())
		} else {
			err = c.Free(ctx, name)
		}
		if err != nil {
			return fmt.Errorf("pressure: retiring %s: %w", name, err)
		}
	}
	return nil
}

// driveSLO exercises the SLO-aware admission scheduler end to end: four
// goroutines saturate the speculative lane with prefetches while a train
// of deadline-bound critical swap rounds rides over them. The flood is
// entitled to refusals (saturated lanes, expiries, sheds) — that lane is
// best-effort by contract — but every critical restore must come back
// bit-exact, and /metrics must show both lanes admitted with zero
// critical expiries.
func driveSLO(base string) error {
	ctx := context.Background()
	const (
		tenant = "slo-tenant"
		nSpec  = 6
		nCrit  = 2
		rounds = 20
		elems  = 16 * 1024
	)
	c := client.New(base, client.WithTenant(tenant))
	gen := cswap.NewTensorGenerator(42)

	// Speculative working set: swapped out once, then prefetched in a loop
	// by the flood goroutines below.
	for i := 0; i < nSpec; i++ {
		name := fmt.Sprintf("spec%d", i)
		if err := c.Register(ctx, name, gen.Uniform(elems, 0.6).Data); err != nil {
			return fmt.Errorf("slo: register %s: %w", name, err)
		}
		if err := c.SwapOut(ctx, name); err != nil {
			return fmt.Errorf("slo: swap-out %s: %w", name, err)
		}
	}
	crit := make([][]float32, nCrit)
	for i := range crit {
		name := fmt.Sprintf("crit%d", i)
		data := gen.Uniform(elems, 0.4).Data
		crit[i] = append([]float32(nil), data...)
		if err := c.Register(ctx, name, data); err != nil {
			return fmt.Errorf("slo: register %s: %w", name, err)
		}
	}

	floodCtx, stopFlood := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fc := client.New(base, client.WithTenant(tenant))
			for i := 0; floodCtx.Err() == nil; i++ {
				callCtx, cancel := context.WithTimeout(floodCtx, 250*time.Millisecond)
				_ = fc.Prefetch(callCtx, fmt.Sprintf("spec%d", (g+i)%nSpec),
					client.WithLane(client.LaneSpeculative),
					client.WithDeadline(100*time.Millisecond))
				cancel()
			}
		}(g)
	}

	// Critical train: a deadline the scheduler can trivially meet once the
	// lane outranks the flood, and a hard bit-exactness check per restore.
	var critErr error
	for r := 0; r < rounds && critErr == nil; r++ {
		for i := range crit {
			name := fmt.Sprintf("crit%d", i)
			if err := c.SwapOut(ctx, name,
				client.WithLane(client.LaneCritical), client.WithDeadline(10*time.Second)); err != nil {
				critErr = fmt.Errorf("slo: critical swap-out %s round %d: %w", name, r, err)
				break
			}
			got, err := c.SwapIn(ctx, name,
				client.WithLane(client.LaneCritical), client.WithDeadline(10*time.Second))
			if err != nil {
				critErr = fmt.Errorf("slo: critical swap-in %s round %d: %w", name, r, err)
				break
			}
			for j := range crit[i] {
				if math.Float32bits(got[j]) != math.Float32bits(crit[i][j]) {
					critErr = fmt.Errorf("slo: %s restored[%d] = %v, want %v", name, j, got[j], crit[i][j])
					break
				}
			}
		}
	}
	stopFlood()
	wg.Wait()
	if critErr != nil {
		return critErr
	}

	text, err := client.New(base).Metrics(ctx)
	if err != nil {
		return err
	}
	for _, series := range []string{
		`server_sched_admits_total{lane="critical"}`,
		`server_sched_admits_total{lane="speculative"}`,
	} {
		v := sample(text, series)
		if v == "" || v == "0" {
			return fmt.Errorf("slo: %s = %q, want non-zero (is the daemon running -sched?)", series, v)
		}
		fmt.Printf("slo: %s = %s\n", series, v)
	}
	if exp := sample(text, `server_sched_expiries_total{lane="critical"}`); exp != "" && exp != "0" {
		return fmt.Errorf("slo: server_sched_expiries_total{lane=\"critical\"} = %s, want zero", exp)
	}
	fmt.Println("slo: critical expiries = 0")
	return nil
}

func driveDrift(base string) error {
	ctx := context.Background()
	const tenant = "drifter"
	c := client.New(base, client.WithTenant(tenant))
	gen := cswap.NewTensorGenerator(42)
	mc := client.New(base)

	cycle := func(name string) error {
		if err := c.SwapOut(ctx, name); err != nil {
			return fmt.Errorf("drift: swap-out %s: %w", name, err)
		}
		if _, err := c.SwapIn(ctx, name); err != nil {
			return fmt.Errorf("drift: swap-in %s: %w", name, err)
		}
		return nil
	}
	// Prometheus label sets are alphabetical, so codec sorts before tenant.
	waitSeries := func(name, series string) error {
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if err := cycle(name); err != nil {
				return err
			}
			text, err := mc.Metrics(ctx)
			if err != nil {
				return err
			}
			if v := sample(text, series); v != "" && v != "0" {
				fmt.Printf("drift: %s = %s\n", series, v)
				return nil
			}
			time.Sleep(20 * time.Millisecond)
		}
		return fmt.Errorf("drift: %s never moved", series)
	}

	if err := c.Register(ctx, "act0", gen.Uniform(16384, 0).Data); err != nil {
		return err
	}
	if err := waitSeries("act0",
		`server_tuner_verdicts_total{codec="HUF",tenant="`+tenant+`"}`); err != nil {
		return err
	}
	if err := c.Free(ctx, "act0"); err != nil {
		return err
	}
	if err := c.Register(ctx, "act1", gen.Uniform(16384, 0.95).Data); err != nil {
		return err
	}
	return waitSeries("act1",
		`server_tuner_codec_switches_total{tenant="`+tenant+`"}`)
}
