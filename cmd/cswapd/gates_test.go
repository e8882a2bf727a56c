package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cswap/client"
	"cswap/internal/compress"
	"cswap/internal/executor"
	"cswap/internal/placement"
	"cswap/internal/sim"
	"cswap/internal/tensor"
	"cswap/internal/tier"
)

// daemonEnv turns the test binary into cswapd: a gate re-executes it with
// the variable set and the daemon's flags, and TestMain runs main — so the
// gates boot the real program without a toolchain call, and `go test -race`
// race-checks the daemon as well.
const daemonEnv = "CSWAPD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// gates are the daemon's end-to-end checks, one per serving feature; `make
// <name>-smoke` runs one. Each boots cswapd with its flags in a fresh
// t.TempDir() (the daemon's working directory), drives it through the public
// client, and SIGTERMs it into a clean drained exit — once per leg, every
// leg a new daemon over the same directory.
var gates = []struct {
	name  string
	flags string
	legs  int
	drive func(t *testing.T, base string)
}{
	{"serve", "-device 256 -host 1024", 1, driveServe},
	// A small grid so Huffman's per-chunk code table amortises on test-sized
	// tensors, a glacial modelled link so ratio dominates kernel noise, fast
	// ticks and a two-swap evidence budget.
	{"tune", "-device 256 -host 1024 -grid 4 -tune -tune-interval 50ms -tune-link 131072 -tune-min-swaps 2 -tune-probe 16384", 1, driveTune},
	{"cluster", "-shards 3 -device 256 -host 1024", 1, driveCluster},
	{"kv", "-device 256 -host 1024", 1, driveKV},
	// The second leg boots on the tier directory the first exited with
	// blobs in; that clean exit removed the spill file.
	{"tier", tierFlags, 2, drivePressure},
	// A two-slot window, so the lanes actually queue.
	{"slo", "-device 256 -host 1024 -max-inflight 2 -sched", 1, driveSLO},
}

// tierFlags give the overflow workload a pinned-host pool too small for it,
// over a disk tier inside the gate's directory.
const tierFlags = "-device 256 -host 1 -tier-dir tier"

func TestGates(t *testing.T) {
	for _, g := range gates {
		t.Run(g.name, func(t *testing.T) {
			dir := t.TempDir()
			for leg := 0; leg < g.legs; leg++ {
				d := boot(t, dir, strings.Fields(g.flags)...)
				g.drive(t, d.base)
				d.stop(t)
			}
		})
	}
}

// daemon is one cswapd process.
type daemon struct {
	base string // "http://host:port"; empty when it exited before listening
	cmd  *exec.Cmd
	out  bytes.Buffer // stdout and stderr; read only once done is closed
	done chan struct{}
	err  error // exit status, set before done closes
}

// start runs cswapd on an ephemeral loopback port with dir as its working
// directory, and returns once it has written its address or exited.
func start(t *testing.T, dir string, flags ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	must(t, err)
	addrFile := filepath.Join(dir, "addr")
	_ = os.Remove(addrFile) // a previous leg's; the first leg has none
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.Command(exe, append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, flags...)...)
	d.cmd.Dir, d.cmd.Env = dir, append(os.Environ(), daemonEnv+"=1")
	d.cmd.Stdout, d.cmd.Stderr = &d.out, &d.out
	must(t, d.cmd.Start())
	go func() { d.err = d.cmd.Wait(); close(d.done) }()
	t.Cleanup(d.kill)
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if addr, _ := os.ReadFile(addrFile); len(addr) > 0 {
			d.base = "http://" + string(addr)
			return d
		}
		select {
		case <-d.done:
			return d
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("cswapd %v wrote no address within 30 s", flags)
	return nil
}

// boot is start for a daemon that must come up.
func boot(t *testing.T, dir string, flags ...string) *daemon {
	t.Helper()
	d := start(t, dir, flags...)
	if d.base == "" {
		t.Fatalf("cswapd %v exited before listening: %v\n%s", flags, d.err, &d.out)
	}
	return d
}

// stop sends SIGTERM and requires a clean drained exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	must(t, d.cmd.Process.Signal(syscall.SIGTERM))
	select {
	case <-d.done:
	case <-time.After(time.Minute):
		t.Fatal("cswapd still running a minute after SIGTERM")
	}
	if d.err != nil || !strings.Contains(d.out.String(), "drained, exiting") {
		t.Fatalf("cswapd after SIGTERM: exit %v, want a clean drained exit\n%s", d.err, &d.out)
	}
}

// kill ends the process with SIGKILL, as a crash would, and reaps it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only when the process has already exited
	<-d.done
}

var ctx = context.Background()

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// scrape reads base's /metrics once and returns a lookup of one sample by
// its exact series, name plus label set. An absent series reads NaN, which
// fails every comparison: `v > 0` wants a counter that moved, `v != 0`
// rejects an absent gauge, and a failure on `v > 0` lets an absent counter
// count as zero.
func scrape(t *testing.T, base string) func(series string) float64 {
	t.Helper()
	text, err := client.New(base).Metrics(ctx)
	must(t, err)
	return func(series string) float64 {
		for _, line := range strings.Split(text, "\n") {
			if v, ok := strings.CutPrefix(line, series+" "); ok {
				f, _ := strconv.ParseFloat(v, 64)
				return f
			}
		}
		return math.NaN()
	}
}

// moved fails t unless every series is above zero.
func moved(t *testing.T, m func(string) float64, series ...string) {
	t.Helper()
	for _, s := range series {
		if v := m(s); !(v > 0) {
			t.Errorf("%s = %v, want > 0", s, v)
		}
	}
}

// exact fails t unless got is want bit for bit.
func exact(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: restored %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d restored as %v, want %v", what, i, got[i], want[i])
		}
	}
}

// cycle swaps name out and back in, and requires the restore to be want.
func cycle(t *testing.T, c *client.Client, name string, want []float32, opts ...client.SwapOption) {
	t.Helper()
	must(t, c.SwapOut(ctx, name, opts...))
	got, err := c.SwapIn(ctx, name, opts...)
	must(t, err)
	exact(t, name, got, want)
}

// driveServe: two tenants swap a tensor each through a codec of their own
// and restore it bit-exactly, and the swap counters move.
func driveServe(t *testing.T, base string) {
	g := tensor.NewGenerator(42)
	for _, tn := range []struct {
		name     string
		alg      client.Algorithm
		sparsity float64
	}{{"trainer-a", client.ZVC, 0.7}, {"trainer-b", client.LZ4, 0.3}} {
		c := client.New(base, client.WithTenant(tn.name))
		want := g.Uniform(64*1024, tn.sparsity).Data
		must(t, c.Register(ctx, "act0", want))
		cycle(t, c, "act0", want, client.WithCodec(tn.alg))
	}
	moved(t, scrape(t, base), "executor_swap_outs_total", "executor_swap_ins_total")
}

// driveTune swaps a dense tensor through the Auto selector until the tuner
// issues a Huffman verdict, then a sparse one until its codec-switch counter
// moves. The tuner acts only on tenants with fresh evidence, so each phase
// keeps swapping until its series move or a minute passes. No
// Bayesian-optimisation series may appear: the tuner picks codecs only.
func driveTune(t *testing.T, base string) {
	c, g := client.New(base, client.WithTenant("drifter")), tensor.NewGenerator(42)
	for i, phase := range []struct {
		sparsity float64
		series   []string // label sets are alphabetical: codec before tenant
	}{
		{0, []string{`server_tuner_verdicts_total{codec="HUF",tenant="drifter"}`}},
		{0.95, []string{`server_tuner_codec_switches_total{tenant="drifter"}`}},
	} {
		name, data := fmt.Sprintf("act%d", i), g.Uniform(16384, phase.sparsity).Data
		must(t, c.Register(ctx, name, data))
		for _, series := range phase.series {
			for deadline := time.Now().Add(time.Minute); !(scrape(t, base)(series) > 0); time.Sleep(20 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s never moved", series)
				}
				cycle(t, c, name, data)
			}
		}
		must(t, c.Free(ctx, name))
	}
	text, err := client.New(base).Metrics(ctx)
	must(t, err)
	if strings.Contains(text, "bayesopt_") {
		t.Error("/metrics exposes bayesopt_ series; the daemon runs no launch search")
	}
}

// driveCluster: three tenants spread tensors over every shard through the
// cluster client, every restore is bit-exact before and after shard 1 is
// drained live, and the rebalance counter moves.
func driveCluster(t *testing.T, base string) {
	g := tensor.NewGenerator(7)
	type key struct{ tenant, name string }
	want := map[key][]float32{}
	clients := map[string]*client.ClusterClient{}
	for _, tn := range []string{"trainer-a", "trainer-b", "trainer-c"} {
		clients[tn] = client.NewCluster(base, client.WithTenant(tn))
		for i := 0; i < 12; i++ {
			k := key{tn, fmt.Sprintf("layer%d/act", i)}
			want[k] = g.Uniform(4096, float64(i%5)/5).Data
			must(t, clients[tn].Register(ctx, k.name, want[k]))
			must(t, clients[tn].SwapOut(ctx, k.name))
		}
	}
	// verify leaves every tensor swapped out again: the state a drain moves.
	verify := func(stage string) {
		for k, w := range want {
			got, err := clients[k.tenant].SwapIn(ctx, k.name)
			must(t, err)
			exact(t, stage+" "+k.tenant+"/"+k.name, got, w)
			must(t, clients[k.tenant].SwapOut(ctx, k.name))
		}
	}
	verify("pre-drain")
	cc := clients["trainer-a"]
	before, m := cc.Map(), scrape(t, base)
	if len(before.Shards) != 3 {
		t.Fatalf("cluster map %+v, want 3 shards", before)
	}
	for _, s := range before.Shards { // the ring spread the keys
		moved(t, m, fmt.Sprintf(`executor_swap_outs_total{shard="%d"}`, s.ID))
	}
	must(t, cc.DrainShard(ctx, 1))
	if after := cc.Map(); after.Version <= before.Version || !slices.Contains(after.Shards, placement.Shard{ID: 1, State: "drained"}) {
		t.Fatalf("cluster map after drain %+v, want shard 1 drained at a newer version", after)
	}
	verify("post-drain")
	moved(t, scrape(t, base), "cluster_rebalanced_tensors_total")
}

// driveKV replays a paged KV-cache decode trace through the batch block API
// — per step one batch swap-out of the evicted blocks and one batch swap-in
// of the returning ones, every restored block bit-exact — then requires one
// 64-block batch round trip to cost under 25 % of 64 single-block ones, the
// batch counters to move and the coalescing histogram to show runs < blocks.
func driveKV(t *testing.T, base string) {
	// 1 KiB blocks: per-request control cost, not codec time, dominates a
	// single-block swap — the regime batching exists to amortise.
	const blockElems, pool = 256, "layer0/kv"
	cfg := sim.DefaultKVTrace()
	n := cfg.Sequences * cfg.BlocksPerSeq
	c := client.New(base, client.WithTenant("decoder"))
	must(t, c.RegisterPool(ctx, pool, blockElems, n))
	want, all := tensor.NewGenerator(11).Uniform(n*blockElems, 0.5).Data, make([]int, n)
	for i := range all {
		all[i] = i
	}
	must(t, c.WriteBlocks(ctx, pool, all, want))
	for s, st := range sim.GenKVTrace(cfg) {
		if len(st.Out) > 0 {
			must(t, c.SwapOutBlocks(ctx, pool, st.Out))
		}
		if len(st.In) > 0 {
			bd, err := c.SwapInBlocks(ctx, pool, st.In)
			must(t, err)
			for _, id := range st.In {
				got, _ := bd.Block(id)
				exact(t, fmt.Sprintf("step %d block %d", s, id), got, want[id*blockElems:(id+1)*blockElems])
			}
		}
	}

	// Same connection, same bytes: only the per-operation control cost
	// differs. Best of two per side absorbs scheduler noise.
	must(t, c.PrefetchBlocks(ctx, pool, all))
	trip := func(ids ...int) {
		must(t, c.SwapOutBlocks(ctx, pool, ids))
		_, err := c.SwapInBlocks(ctx, pool, ids)
		must(t, err)
	}
	best := func(f func()) time.Duration {
		least := time.Duration(math.MaxInt64)
		for i := 0; i < 2; i++ {
			start := time.Now()
			f()
			least = min(least, time.Since(start))
		}
		return least
	}
	ids := all[:64]
	trip(ids...) // warm the path
	singles := best(func() {
		for _, id := range ids {
			trip(id)
		}
	})
	batched := best(func() { trip(ids...) })
	ratio := float64(batched) / float64(singles)
	t.Logf("64 single-block round trips %v, one 64-block batch %v (%.1f%%)", singles, batched, 100*ratio)
	if ratio >= 0.25 {
		t.Errorf("the batch took %.1f%% of the single-block time, want < 25%%", 100*ratio)
	}
	m := scrape(t, base)
	moved(t, m, `server_batch_requests_total{op="swap-out"}`, `server_batch_blocks_total{op="swap-out"}`,
		`server_batch_blocks_total{op="swap-in"}`, "executor_batch_coalescing_ratio_count")
	if runs, blocks := m("executor_batch_runs_total"), m("executor_batch_blocks_total"); !(runs > 0 && runs < blocks) {
		t.Errorf("executor saw %v runs for %v blocks, want coalescing (0 < runs < blocks)", runs, blocks)
	}
	must(t, c.Free(ctx, pool))
}

// pressureElems is 384 KiB a tensor: a -host 1 pool holds two raw blobs.
// The pressured tenant's block pool is the same size, in four blocks.
const pressureElems = 96 * 1024

// drivePressure overflows the pinned-host pool on purpose: a block pool's
// runs, then eight tensors, swapped out raw (so blob sizes do not depend on
// a codec) complete only by demoting cold blobs — the pool's runs first,
// the oldest — to the disk tier: demotions move, no quota 507s, and the
// tenant's quota buckets follow the bytes of tensors and pool runs alike
// (ledger), and every restore comes back bit-exact through the promote
// path. It first requires an empty tier (a daemon on a used directory
// starts with none of its predecessor's blobs) and leaves the pool and the
// second half of the tensors swapped out and tiered, so the daemon exits
// with blobs in the tier.
func drivePressure(t *testing.T, base string) {
	c, m := client.New(base, client.WithTenant("pressured")), scrape(t, base)
	if occ := m("executor_tier_occupancy_bytes"); occ != 0 {
		t.Fatalf("executor_tier_occupancy_bytes = %v at start, want 0 (a restart leaked tier capacity)", occ)
	}
	must(t, c.RegisterPool(ctx, "kv", pressureElems/4, 4))
	must(t, c.SwapOutBlocks(ctx, "kv", []int{0, 1, 3}, client.WithRaw())) // two runs
	g, want := tensor.NewGenerator(42), make([][]float32, 8)
	for i := range want {
		want[i] = g.Uniform(pressureElems, 0.5).Data
		must(t, c.Register(ctx, fmt.Sprintf("p%d", i), want[i]))
		must(t, c.SwapOut(ctx, fmt.Sprintf("p%d", i), client.WithRaw()))
	}
	m = settled(t, base)
	moved(t, m, "executor_tier_demotions_total")
	if v := m(`server_quota_rejections_total{tenant="pressured"}`); v > 0 {
		t.Errorf("server_quota_rejections_total = %v, want 0", v)
	}
	ledger(t, m, len(want)+1)
	for i := range want {
		name := fmt.Sprintf("p%d", i)
		got, err := c.SwapIn(ctx, name)
		must(t, err)
		exact(t, name, got, want[i])
		if i < len(want)/2 {
			must(t, c.Free(ctx, name))
		} else {
			must(t, c.SwapOut(ctx, name, client.WithRaw()))
		}
	}
	ledger(t, settled(t, base), len(want)/2+1)
}

// settled scrapes base once the tier's background demoter owes no sweep.
// A demotion moves the tenant's tier charge before it sets the occupancy
// gauge, so a scrape taken during a sweep can read the two apart; with no
// request in flight nothing wakes the demoter again, so the scrape after
// one that finds it idle reads a quiet shard.
func settled(t *testing.T, base string) func(string) float64 {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); scrape(t, base)("executor_tier_demoter_pending") != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the tier's demoter still owed a sweep after 10 s")
		}
	}
	return scrape(t, base)
}

// ledger requires the pressured tenant's quota buckets to be the executor's
// own record: the tier bucket is what the tier holds (every blob is raw, so
// its size is its tensor's or its pool run's), and the two buckets together
// are the live objects, tensors and the pool, each pressureElems.
func ledger(t *testing.T, m func(string) float64, live int) {
	t.Helper()
	used, tierUsed := m(`server_tenant_used_bytes{tenant="pressured"}`), m(`server_tenant_tier_used_bytes{tenant="pressured"}`)
	if occ := m("executor_tier_occupancy_bytes"); tierUsed != occ {
		t.Errorf("server_tenant_tier_used_bytes = %v, want executor_tier_occupancy_bytes %v", tierUsed, occ)
	}
	if want := float64(live * pressureElems * 4); used+tierUsed != want {
		t.Errorf("server_tenant_used_bytes %v + server_tenant_tier_used_bytes %v, want the %d live objects' %v bytes",
			used, tierUsed, live, want)
	}
}

// driveSLO: four goroutines flood the speculative lane — each swaps its own
// tensor out and prefetches it back, so the flood holds the slots (a
// prefetch of a resident tensor is a no-op and would hold none) — while a
// train of deadline-bound critical swap rounds rides over them. The flood
// may be refused, expired or shed — that lane is best-effort — but every
// critical restore is bit-exact, both lanes admit work, and the critical
// lane neither expires nor refuses a request: it queues.
func driveSLO(t *testing.T, base string) {
	const tenant, elems = "slo-tenant", 16 * 1024
	c, g := client.New(base, client.WithTenant(tenant)), tensor.NewGenerator(42)
	for w := 0; w < 4; w++ {
		must(t, c.Register(ctx, fmt.Sprintf("spec%d", w), g.Uniform(elems, 0.6).Data))
	}
	crit := make([][]float32, 2)
	for i := range crit {
		crit[i] = g.Uniform(elems, 0.4).Data
		must(t, c.Register(ctx, fmt.Sprintf("crit%d", i), crit[i]))
	}

	flood, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	halt := func() { stop(); wg.Wait() }
	defer halt()
	spec := []client.SwapOption{client.WithLane(client.LaneSpeculative), client.WithDeadline(100 * time.Millisecond)}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fc, name := client.New(base, client.WithTenant(tenant)), fmt.Sprintf("spec%d", w)
			for flood.Err() == nil {
				call, cancel := context.WithTimeout(flood, 250*time.Millisecond)
				_ = fc.SwapOut(call, name, spec...)
				_ = fc.Prefetch(call, name, spec...)
				cancel()
			}
		}()
	}
	// A deadline the scheduler meets easily once the lane outranks the flood.
	for r := 0; r < 20; r++ {
		for i, want := range crit {
			cycle(t, c, fmt.Sprintf("crit%d", i), want,
				client.WithLane(client.LaneCritical), client.WithDeadline(10*time.Second))
		}
	}
	halt()

	m := scrape(t, base)
	moved(t, m, `server_sched_admits_total{lane="critical"}`, `server_sched_admits_total{lane="speculative"}`)
	for _, s := range []string{`server_sched_expiries_total{lane="critical"}`, `server_sched_rejects_total{lane="critical"}`} {
		if v := m(s); v > 0 {
			t.Errorf("%s = %v, want 0", s, v)
		}
	}
}

// TestTierCrashLeg kills the tier gate's daemon with SIGKILL while the
// overflow workload demotes — right after the 3rd, 5th and 7th swap-out is
// acknowledged, with the next one written to the wire — and boots a fresh
// daemon on the directory it left. The tier is scratch for one process:
// the new daemon removes the spill file the dead one left, unread, and
// counts its bytes (server_tier_orphan_bytes_scrubbed_total), the tier
// starts empty with the spill file its only entry, and the workload then
// runs bit-exact.
func TestTierCrashLeg(t *testing.T) {
	for _, acked := range []int{3, 5, 7} {
		t.Run(fmt.Sprintf("after-%d", acked), func(t *testing.T) {
			dir := t.TempDir()
			d := boot(t, dir, strings.Fields(tierFlags)...)
			c, g := client.New(d.base, client.WithTenant("pressured")), tensor.NewGenerator(42)
			for i := 0; i <= acked; i++ {
				must(t, c.Register(ctx, fmt.Sprintf("p%d", i), g.Uniform(pressureElems, 0.5).Data))
				if i < acked {
					must(t, c.SwapOut(ctx, fmt.Sprintf("p%d", i), client.WithRaw()))
				}
			}
			var once sync.Once
			sent, returned := make(chan struct{}), make(chan struct{})
			trace := httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
				WroteRequest: func(httptrace.WroteRequestInfo) { once.Do(func() { close(sent) }) },
			})
			go func() {
				defer close(returned)
				_ = c.SwapOut(trace, fmt.Sprintf("p%d", acked), client.WithRaw())
			}()
			select {
			case <-sent:
			case <-returned:
				t.Fatalf("swap-out of p%d returned before its request was written", acked)
			}
			d.kill()
			<-returned

			tierDir := filepath.Join(dir, "tier")
			spill, err := os.Stat(filepath.Join(tierDir, tier.SpillName))
			must(t, err)
			if spill.Size() == 0 {
				t.Fatal("the killed daemon demoted nothing")
			}
			t.Logf("killed with a %d-byte spill file in the tier", spill.Size())
			d = boot(t, dir, strings.Fields(tierFlags)...)
			if v := scrape(t, d.base)("server_tier_orphan_bytes_scrubbed_total"); v != float64(spill.Size()) {
				t.Errorf("server_tier_orphan_bytes_scrubbed_total = %v, want the %d bytes the killed daemon left", v, spill.Size())
			}
			entries, err := os.ReadDir(tierDir)
			must(t, err)
			if len(entries) != 1 || entries[0].Name() != tier.SpillName {
				t.Errorf("tier directory after the boot holds %d entries, want the new spill file alone", len(entries))
			}
			drivePressure(t, d.base) // requires executor_tier_occupancy_bytes 0 first
			d.stop(t)
		})
	}
}

// TestFlags pins how cswapd resolves its launch and orphan flags: each row
// is either refused (non-zero exit and its stderr line) or boots and
// answers /healthz — with the launch the launch function resolves, which
// is not visible from outside the process. The dropped -block flag is
// refused like any unknown one.
func TestFlags(t *testing.T) {
	e, err := executor.New(executor.Config{DeviceCapacity: 1 << 20, HostCapacity: 1 << 20})
	must(t, err)
	if got, def := launch(0), e.Launch(); got != def {
		t.Errorf("launch(0) = %+v, want the executor default %+v", got, def)
	}
	must(t, e.Close())

	const (
		tierRefusal = "cswapd: -tier-cap/-tier-quota/-tier-watermark need -tier-dir"
		tuneRefusal = "cswapd: -tune-interval/-tune-drift/-tune-link/-tune-min-swaps/-tune-probe need -tune"
	)
	for _, tc := range []struct {
		grid   int
		more   string          // further flags
		refuse string          // a refused row's stderr line
		want   compress.Launch // a booting row's launch
	}{
		{grid: 4, want: compress.Launch{Grid: 4, Block: 64}},
		{more: "-block 128", refuse: "flag provided but not defined: -block"},
		{more: "-tier-cap 64", refuse: tierRefusal},
		{more: "-tier-quota 64", refuse: tierRefusal},
		{more: "-tier-watermark 0.5", refuse: tierRefusal},
		{more: "-sched-lanes 1,1,1", refuse: "cswapd: -sched-lanes/-sched-starve need -sched"},
		{more: "-tune-interval 50ms", refuse: tuneRefusal},
		{more: "-tune-drift 0.2", refuse: tuneRefusal},
		{more: "-tune-link 131072", refuse: tuneRefusal},
		{more: "-tune-min-swaps 2", refuse: tuneRefusal},
		{more: "-tune-probe 16384", refuse: tuneRefusal},
	} {
		var flags []string
		if tc.grid != 0 {
			flags = append(flags, "-grid", strconv.Itoa(tc.grid))
		}
		flags = append(flags, strings.Fields(tc.more)...)
		t.Run(strings.Join(flags, " "), func(t *testing.T) {
			d := start(t, t.TempDir(), flags...)
			if tc.refuse != "" {
				listening := d.base != ""
				d.kill()
				if listening || d.err == nil || !strings.Contains(d.out.String(), tc.refuse) {
					t.Fatalf("cswapd %v: listening %t, exit %v, want a refusal saying %q\n%s", flags, listening, d.err, tc.refuse, &d.out)
				}
				return
			}
			if got := launch(tc.grid); got != tc.want {
				t.Errorf("launch(%d) = %+v, want %+v", tc.grid, got, tc.want)
			}
			if d.base == "" {
				t.Fatalf("cswapd %v exited before listening: %v\n%s", flags, d.err, &d.out)
			}
			must(t, client.New(d.base).Health(ctx))
			d.stop(t)
		})
	}
}
