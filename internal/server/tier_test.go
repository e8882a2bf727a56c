package server_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cswap/client"
	"cswap/internal/metrics"
	"cswap/internal/placement"
	"cswap/internal/server"
	"cswap/internal/tensor"
	"cswap/internal/tier"
)

// gaugeValue reads one gauge from the server registry.
func gaugeValue(t *testing.T, s *server.Server, name string, labels ...metrics.Label) float64 {
	t.Helper()
	v, _ := s.Registry().Snapshot().Gauge(name, labels...)
	return v
}

// TestQuotaDemoteThenAdmit pins the tentpole's service-level contract: a
// register that would previously have drawn a tenant-quota 507 instead
// demotes the tenant's swapped tensors — or a KV tenant's swapped pool runs
// — to the disk tier, migrates their quota charge to the tier bucket, and
// admits.
func TestQuotaDemoteThenAdmit(t *testing.T) {
	const elems = 4096
	quota := int64(elems * 4)
	half := blockRange(0, 4) // of an 8-block pool at quota: one run
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		moved int64 // what the demotion moves to the tier bucket
		// fill registers data at quota and swaps the part to be demoted out;
		// again is the register that needs it demoted; back restores it.
		fill  func(c *client.Client, data []float32) error
		again func(c *client.Client, data []float32) error
		back  func(c *client.Client) ([]float32, error)
	}{
		{
			name: "tensor", moved: quota,
			fill: func(c *client.Client, data []float32) error {
				if err := c.Register(ctx, "t1", data); err != nil {
					return err
				}
				return c.SwapOut(ctx, "t1", client.WithCodec(client.ZVC))
			},
			again: func(c *client.Client, data []float32) error { return c.Register(ctx, "t2", data) },
			back:  func(c *client.Client) ([]float32, error) { return c.SwapIn(ctx, "t1") },
		},
		{
			name: "pool", moved: quota / 2,
			fill: func(c *client.Client, data []float32) error {
				if err := c.RegisterPool(ctx, "kv", elems/8, 8); err != nil {
					return err
				}
				if err := c.WriteBlocks(ctx, "kv", blockRange(0, 8), data); err != nil {
					return err
				}
				return c.SwapOutBlocks(ctx, "kv", half, client.WithCodec(client.ZVC))
			},
			again: func(c *client.Client, _ []float32) error { return c.RegisterPool(ctx, "kv2", elems/8, 4) },
			back: func(c *client.Client) ([]float32, error) {
				bd, err := c.SwapInBlocks(ctx, "kv", half)
				if err != nil {
					return nil, err
				}
				return bd.Data, nil
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, url := newTestServer(t,
				server.WithTierDir(t.TempDir()),
				server.WithTenantQuota(quota),
			)
			c := client.New(url)

			gen := tensor.NewGenerator(1)
			d1 := gen.Uniform(elems, 0.6).Data
			want1 := append([]float32(nil), d1[:tc.moved/4]...)
			if err := tc.fill(c, d1); err != nil {
				t.Fatal(err)
			}
			// The quota is full; without the tier this register answers 507.
			if err := tc.again(c, gen.Uniform(elems, 0.5).Data); err != nil {
				t.Fatalf("register under full quota with tier attached: %v", err)
			}
			lab := metrics.L("tenant", server.DefaultTenant)
			if n := counterValue(t, s, "server_tier_demote_admits_total", lab); n != 1 {
				t.Fatalf("demote-admits = %v, want 1", n)
			}
			if n := counterValue(t, s, "server_quota_rejections_total", lab); n != 0 {
				t.Fatalf("quota rejections = %v, want 0", n)
			}
			if st := s.Executor().Stats(); st.TierDemotions != 1 {
				t.Fatalf("TierDemotions = %d, want 1", st.TierDemotions)
			}
			if v := gaugeValue(t, s, "server_tenant_tier_used_bytes", lab); v != float64(tc.moved) {
				t.Fatalf("tier bucket holds %v bytes, want %v", v, tc.moved)
			}

			// The demoted payload restores bit-exact through the real HTTP
			// path, and promotion returns its charge to the device bucket.
			got, err := tc.back(c)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want1) {
				t.Fatalf("restored %d elements, want %d", len(got), len(want1))
			}
			for i := range want1 {
				if got[i] != want1[i] {
					t.Fatalf("restored[%d] = %v, want %v", i, got[i], want1[i])
				}
			}
			if v := gaugeValue(t, s, "server_tenant_tier_used_bytes", lab); v != 0 {
				t.Fatalf("tier bucket holds %v bytes after promotion, want 0", v)
			}
			if st := s.Executor().Stats(); st.TierPromotions != 1 {
				t.Fatalf("TierPromotions = %d, want 1", st.TierPromotions)
			}
		})
	}
}

// TestDemoteAdmitCountsOnlyItsOwnDemotions: a tensor the executor demoted
// under host pressure is charged to the tier bucket at once, so it neither
// blocks the next register nor counts as a demote-admit when a later
// register walks past it.
func TestDemoteAdmitCountsOnlyItsOwnDemotions(t *testing.T) {
	const elems = 4096
	n := int64(elems * 4)
	s, url := newTestServer(t,
		server.WithTierDir(t.TempDir()),
		server.WithTenantQuota(2*n),
		server.WithHostCapacity(n+n/2), // one raw blob
	)
	c := client.New(url)
	ctx := context.Background()
	gen := tensor.NewGenerator(5)
	lab := metrics.L("tenant", server.DefaultTenant)
	want := func(step string, admits float64, demotions int, used, tierUsed int64) {
		t.Helper()
		if v := counterValue(t, s, "server_tier_demote_admits_total", lab); v != admits {
			t.Errorf("%s: demote-admits = %v, want %v", step, v, admits)
		}
		if d := s.Executor().Stats().TierDemotions; d != demotions {
			t.Errorf("%s: TierDemotions = %d, want %d", step, d, demotions)
		}
		if v := gaugeValue(t, s, "server_tenant_used_bytes", lab); v != float64(used) {
			t.Errorf("%s: used bucket %v, want %d", step, v, used)
		}
		if v := gaugeValue(t, s, "server_tenant_tier_used_bytes", lab); v != float64(tierUsed) {
			t.Errorf("%s: tier bucket %v, want %d", step, v, tierUsed)
		}
	}
	for _, name := range []string{"a", "b"} {
		if err := c.Register(ctx, name, gen.Uniform(elems, 0.5).Data); err != nil {
			t.Fatal(err)
		}
		if err := c.SwapOut(ctx, name, client.WithRaw()); err != nil {
			t.Fatal(err)
		}
	}
	want("b's swap-out demoted a", 0, 1, n, n)
	if err := c.Register(ctx, "c", gen.Uniform(elems, 0.5).Data); err != nil {
		t.Fatal(err)
	}
	want("c fits beside b", 0, 1, 2*n, n)
	// d needs b demoted; a, first in the walk, is already in the tier.
	if err := c.Register(ctx, "d", gen.Uniform(elems, 0.5).Data); err != nil {
		t.Fatal(err)
	}
	want("d demoted b", 1, 2, 2*n, 2*n)
}

// TestWatermarkDemotionChargesTier: the background demoter moves a tenant's
// charge to the tier bucket by itself — no request touches the tensor, or
// the pool's runs, between the swap-out and the scrape that sees the charge
// move.
func TestWatermarkDemotionChargesTier(t *testing.T) {
	const elems = 4096
	n := float64(elems * 4)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		fill func(c *client.Client) error // register n bytes, swap them all out raw
	}{
		{"tensor", func(c *client.Client) error {
			if err := c.Register(ctx, "t", tensor.NewGenerator(6).Uniform(elems, 0.5).Data); err != nil {
				return err
			}
			return c.SwapOut(ctx, "t", client.WithRaw())
		}},
		{"pool", func(c *client.Client) error {
			if err := c.RegisterPool(ctx, "kv", elems/4, 4); err != nil {
				return err
			}
			for _, run := range [][]int{{0, 1}, {2, 3}} { // two runs, each over the mark
				if err := c.SwapOutBlocks(ctx, "kv", run, client.WithRaw()); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, url := newTestServer(t,
				server.WithTierDir(t.TempDir()),
				server.WithHostCapacity(4*elems*4),
				server.WithTierWatermark(0.1), // one raw blob is over the mark
			)
			if err := tc.fill(client.New(url)); err != nil {
				t.Fatal(err)
			}
			lab := metrics.L("tenant", server.DefaultTenant)
			for deadline := time.Now().Add(5 * time.Second); gaugeValue(t, s, "server_tenant_tier_used_bytes", lab) != n; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("tier bucket %v five seconds after the swap-out (%v watermark demotions), want %v",
						gaugeValue(t, s, "server_tenant_tier_used_bytes", lab),
						counterValue(t, s, "executor_tier_demotions_total", metrics.L("reason", "watermark")), n)
				}
			}
			if v := gaugeValue(t, s, "server_tenant_used_bytes", lab); v != 0 {
				t.Fatalf("used bucket %v after the demotion, want 0", v)
			}
		})
	}
}

// TestTierDirRunsDemoter: a tier directory alone turns the background
// demoter on at DefaultTierWatermark. Ten raw swap-outs fill a ten-blob host
// pool exactly — no swap-out needs room made inline — and the demoter, woken
// by the ones past the mark, demotes until the pool is back under it.
func TestTierDirRunsDemoter(t *testing.T) {
	const elems, blobs = 4096, 10
	s, url := newTestServer(t,
		server.WithTierDir(t.TempDir()),
		server.WithHostCapacity(blobs*elems*4),
	)
	c, ctx := client.New(url), context.Background()
	gen := tensor.NewGenerator(8)
	for i := 0; i < blobs; i++ {
		name := fmt.Sprintf("t%d", i)
		if err := c.Register(ctx, name, gen.Uniform(elems, 0.5).Data); err != nil {
			t.Fatal(err)
		}
		if err := c.SwapOut(ctx, name, client.WithRaw()); err != nil {
			t.Fatal(err)
		}
	}
	mark := int64(server.DefaultTierWatermark * blobs * elems * 4)
	for deadline := time.Now().Add(5 * time.Second); s.Executor().HostStats().Used > mark; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("host pool at %d bytes five seconds after the swap-outs, want at most %d", s.Executor().HostStats().Used, mark)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); gaugeValue(t, s, "executor_tier_demoter_pending") != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the demoter still owed a sweep five seconds after the swap-outs")
		}
	}
	all := counterValue(t, s, "executor_tier_demotions_total")
	if watermark := counterValue(t, s, "executor_tier_demotions_total", metrics.L("reason", "watermark")); watermark < 1 || watermark != all {
		t.Fatalf("%v demotions, %v of them the demoter's; want >= 1, all the demoter's", all, watermark)
	}
}

// TestRestartReclaimsTier: blobs a process demoted belong to no session
// after a restart (handles and sessions live in memory only), so the tier
// is scratch: a clean Close removes the spill file, and a server opening
// the same directory starts with an empty, usable tier. (A killed daemon's
// leftovers are TestTierCrashLeg's, in cmd/cswapd.)
func TestRestartReclaimsTier(t *testing.T) {
	const elems = 4096
	dir := t.TempDir()
	opts := []server.Option{server.WithTierDir(dir), server.WithTenantQuota(elems * 4)}
	ctx := context.Background()
	gen := tensor.NewGenerator(3)

	// First life: a full quota turns the second register into
	// demote-then-admit, leaving t1's payload in the tier at shutdown.
	s1, url1 := newTestServer(t, opts...)
	c1 := client.New(url1)
	for _, name := range []string{"t1", "t2"} {
		if err := c1.Register(ctx, name, gen.Uniform(elems, 0.5).Data); err != nil {
			t.Fatal(err)
		}
		if err := c1.SwapOut(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	left := s1.Tier().Len()
	if left == 0 || s1.Tier().Used() == 0 {
		t.Fatal("first life demoted nothing; the restart has nothing to reclaim")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, tier.SpillName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("the spill file survived a clean Close: %v", err)
	}

	// Second life on the same directory.
	s2, url2 := newTestServer(t, opts...)
	if used, n := s2.Tier().Used(), s2.Tier().Len(); used != 0 || n != 0 {
		t.Fatalf("restarted server's tier holds %d bytes in %d blobs, want empty", used, n)
	}
	if got := counterValue(t, s2, "server_tier_orphan_bytes_scrubbed_total"); got != 0 {
		t.Fatalf("server_tier_orphan_bytes_scrubbed_total = %v after a clean Close, want 0", got)
	}
	if v := gaugeValue(t, s2, "executor_tier_occupancy_bytes"); v != 0 {
		t.Fatalf("executor_tier_occupancy_bytes = %v after the scrub, want 0", v)
	}
	// The names are free again and the tier takes demotions: the first
	// life's workload runs again, and t1 comes back from the tier bit-exact.
	c2 := client.New(url2)
	want := gen.Uniform(elems, 0.5).Data
	for _, name := range []string{"t1", "t2"} {
		if err := c2.Register(ctx, name, append([]float32(nil), want...)); err != nil {
			t.Fatal(err)
		}
		if err := c2.SwapOut(ctx, name); err != nil {
			t.Fatal(err)
		}
	}
	if s2.Tier().Len() == 0 {
		t.Fatal("second life demoted nothing")
	}
	got, err := c2.SwapIn(ctx, "t1")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestQuota507OnlyWhenBothTiersFull: with the tier quota too small to
// absorb a demotion, the register still answers 507 — the tier widens the
// hierarchy, it does not remove the bound.
func TestQuota507OnlyWhenBothTiersFull(t *testing.T) {
	const elems = 4096
	s, url := newTestServer(t,
		server.WithTierDir(t.TempDir()),
		server.WithTenantQuota(elems*4),
		server.WithTenantTierQuota(64),
	)
	c := client.New(url)
	ctx := context.Background()
	gen := tensor.NewGenerator(2)
	if err := c.Register(ctx, "t1", gen.Uniform(elems, 0.6).Data); err != nil {
		t.Fatal(err)
	}
	if err := c.SwapOut(ctx, "t1", client.WithCodec(client.ZVC)); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(ctx, "t2", gen.Uniform(elems, 0.5).Data); !errors.Is(err, client.ErrQuota) {
		t.Fatalf("register with both tiers full = %v, want ErrQuota", err)
	}
	lab := metrics.L("tenant", server.DefaultTenant)
	if n := counterValue(t, s, "server_quota_rejections_total", lab); n != 1 {
		t.Fatalf("quota rejections = %v, want 1", n)
	}
}

// TestHostPressureCompletesWithTier is the acceptance workload: a swap
// stream that overflows the pinned-host pool, which previously drew 507s,
// now completes with demotions recorded and every restore byte-identical
// over the real HTTP path.
func TestHostPressureCompletesWithTier(t *testing.T) {
	const (
		nTensors = 6
		elems    = 40000 // 160000-byte raw blobs; the host pool fits one
	)
	hostCap := int64(256 << 10)
	gen := tensor.NewGenerator(3)
	payloads := make([][]float32, nTensors)
	for i := range payloads {
		payloads[i] = gen.Uniform(elems, 0.5).Data
	}
	names := []string{"t0", "t1", "t2", "t3", "t4", "t5"}
	ctx := context.Background()

	// Control: without a tier the same stream hits the host-pool bound.
	{
		_, url := newTestServer(t, server.WithHostCapacity(hostCap))
		c := client.New(url)
		var failed bool
		for i, name := range names {
			if err := c.Register(ctx, name, payloads[i]); err != nil {
				t.Fatal(err)
			}
			if err := c.SwapOut(ctx, name, client.WithRaw()); err != nil {
				failed = true
				break
			}
		}
		if !failed {
			t.Fatal("control server absorbed the overflow workload; pressure scenario is not exercising the bound")
		}
	}

	s, url := newTestServer(t,
		server.WithHostCapacity(hostCap),
		server.WithTierDir(t.TempDir()),
	)
	c := client.New(url)
	for i, name := range names {
		if err := c.Register(ctx, name, payloads[i]); err != nil {
			t.Fatal(err)
		}
		if err := c.SwapOut(ctx, name, client.WithRaw()); err != nil {
			t.Fatalf("swap-out %s under host pressure: %v", name, err)
		}
	}
	st := s.Executor().Stats()
	if st.TierDemotions == 0 {
		t.Fatal("overflow workload recorded no demotions")
	}
	for i, name := range names {
		got, err := c.SwapIn(ctx, name)
		if err != nil {
			t.Fatalf("swap-in %s: %v", name, err)
		}
		for j := range payloads[i] {
			if got[j] != payloads[i][j] {
				t.Fatalf("%s restored[%d] = %v, want %v", name, j, got[j], payloads[i][j])
			}
		}
	}
	if n := counterValue(t, s, "server_quota_rejections_total",
		metrics.L("tenant", server.DefaultTenant)); n != 0 {
		t.Fatalf("quota rejections = %v, want 0", n)
	}
}

// TestClusterDrainMigratesTierResidentBlobs: a drain moves tier-resident
// payloads to the shard's successors bit-exactly, exactly like
// host-resident ones (migration restores through the promote path).
func TestClusterDrainMigratesTierResidentBlobs(t *testing.T) {
	const (
		nTensors = 8
		elems    = 40000
	)
	cl, err := server.NewCluster(
		server.WithShards(2),
		server.WithDeviceCapacity(64<<20),
		server.WithHostCapacity(256<<10), // one raw blob per shard: overflow demotes
		server.WithTierDir(t.TempDir()),
		server.WithVerify(true),
		server.WithRetryAfter(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(cl.Handler())
	t.Cleanup(func() {
		hs.Close()
		_ = cl.Close()
	})
	c := client.New(hs.URL)
	ctx := context.Background()

	gen := tensor.NewGenerator(4)
	// One block pool per shard (names steered by the ring), all but its
	// last run swapped out raw before the tensors arrive: the oldest
	// payloads in the host pool, so the tensors' overflow demotes them.
	const blockElems, poolBlocks = 1024, 48
	poolRuns := [][]int{blockRange(0, 8), blockRange(12, 8), blockRange(24, 8), blockRange(36, 8)}
	m := cl.Map()
	ring := m.Ring()
	pools := make([]string, cl.NumShards())
	poolData := gen.Uniform(poolBlocks*blockElems, 0.5).Data
	for shard := range pools {
		for i := 0; pools[shard] == ""; i++ {
			name := fmt.Sprintf("pool%d/kv", i)
			if o, _ := ring.Owner(placement.Key(server.DefaultTenant, name)); o == shard {
				pools[shard] = name
			}
		}
		if err := c.RegisterPool(ctx, pools[shard], blockElems, poolBlocks); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteBlocks(ctx, pools[shard], blockRange(0, poolBlocks), poolData); err != nil {
			t.Fatal(err)
		}
		for _, run := range poolRuns[:len(poolRuns)-1] {
			if err := c.SwapOutBlocks(ctx, pools[shard], run, client.WithRaw()); err != nil {
				t.Fatal(err)
			}
		}
	}
	payloads := make(map[string][]float32, nTensors)
	for i := 0; i < nTensors; i++ {
		name := "kv" + string(rune('a'+i))
		payloads[name] = gen.Uniform(elems, 0.5).Data
		if err := c.Register(ctx, name, payloads[name]); err != nil {
			t.Fatal(err)
		}
		if err := c.SwapOut(ctx, name, client.WithRaw()); err != nil {
			t.Fatal(err)
		}
	}
	// Drain a shard that holds tier-resident payloads, so the migration
	// demonstrably crosses the disk tier.
	victim := -1
	for i := 0; i < cl.NumShards(); i++ {
		if cl.Shard(i).Executor().TierUsed() > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no shard holds tier-resident payloads; pressure setup is wrong")
	}
	// The pool on the victim must go into the drain with runs in all three
	// places: resident, swapped in the host pool (the run swapped out last),
	// and tiered (the older runs, pushed out by the tensors).
	vpool := pools[victim]
	if err := c.SwapOutBlocks(ctx, vpool, poolRuns[len(poolRuns)-1], client.WithRaw()); err != nil {
		t.Fatal(err)
	}
	tiered := 0
	for _, key := range cl.Shard(victim).Tier().Keys() {
		if strings.HasPrefix(key, server.DefaultTenant+"/"+vpool+"#p") {
			tiered++
		}
	}
	if tiered == 0 || tiered >= len(poolRuns) {
		t.Fatalf("%d of the victim pool's %d swapped runs are tiered, want some but not all", tiered, len(poolRuns))
	}
	if _, _, err := cl.DrainShard(victim); err != nil {
		t.Fatalf("drain shard %d: %v", victim, err)
	}
	if used := cl.Shard(victim).Executor().TierUsed(); used != 0 {
		t.Fatalf("drained shard still holds %d tier bytes", used)
	}
	for name, want := range payloads {
		got, err := c.SwapIn(ctx, name)
		if err != nil {
			t.Fatalf("swap-in %s after drain: %v", name, err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%s restored[%d] = %v, want %v", name, j, got[j], want[j])
			}
		}
	}
	for _, pool := range pools {
		bd, err := c.SwapInBlocks(ctx, pool, blockRange(0, poolBlocks))
		if err != nil {
			t.Fatalf("swap-in %s after drain: %v", pool, err)
		}
		for j := range poolData {
			if bd.Data[j] != poolData[j] {
				t.Fatalf("%s restored[%d] = %v, want %v", pool, j, bd.Data[j], poolData[j])
			}
		}
	}
}

// blockRange lists n consecutive block IDs from start.
func blockRange(start, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = start + i
	}
	return ids
}
