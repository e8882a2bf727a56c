package server_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"cswap/client"
	"cswap/internal/metrics"
	"cswap/internal/placement"
	"cswap/internal/server"
	"cswap/internal/tensor"
	"cswap/internal/wire"
)

// newTestCluster starts a 3-shard cluster behind loopback HTTP. Caller
// options come after the defaults, so they override.
func newTestCluster(t *testing.T, opts ...server.Option) (*server.Cluster, string) {
	t.Helper()
	defaults := []server.Option{
		server.WithShards(3),
		server.WithDeviceCapacity(64 << 20),
		server.WithHostCapacity(64 << 20),
		server.WithRetryAfter(time.Millisecond),
		server.WithVerify(true),
	}
	c, err := server.NewCluster(append(defaults, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		hs.Close()
		_ = c.Close()
	})
	return c, hs.URL
}

// namesOwnedBy probes synthetic names until count of them land on the
// wanted shard under the given ring — the tests' way of steering keys.
func namesOwnedBy(t *testing.T, ring *placement.Ring, tenant string, shard, count int) []string {
	t.Helper()
	var names []string
	for i := 0; len(names) < count; i++ {
		if i > 100000 {
			t.Fatalf("no %d names landed on shard %d in 100k probes", count, shard)
		}
		name := fmt.Sprintf("probe-%d", i)
		if owner, ok := ring.Owner(placement.Key(tenant, name)); ok && owner == shard {
			names = append(names, name)
		}
	}
	return names
}

// TestClusterConcurrentRoundTrip drives three tenants concurrently
// through a 3-shard cluster and verifies every restore is bit-exact and
// every shard served traffic (the per-shard labeled executor series).
func TestClusterConcurrentRoundTrip(t *testing.T) {
	cl, url := newTestCluster(t)
	tenants := []string{"trainer-a", "trainer-b", "trainer-c"}
	var wg sync.WaitGroup
	for ti, tn := range tenants {
		wg.Add(1)
		go func(ti int, tn string) {
			defer wg.Done()
			cc := client.NewCluster(url, client.WithTenant(tn))
			ctx := context.Background()
			for i := 0; i < 8; i++ {
				name := fmt.Sprintf("layer%d/act", i)
				data := tensor.NewGenerator(int64(ti*100+i)).Uniform(2048, float64(i%5)/5).Data
				want := append([]float32(nil), data...)
				if err := cc.Register(ctx, name, data); err != nil {
					t.Errorf("%s: register %s: %v", tn, name, err)
					return
				}
				if err := cc.SwapOut(ctx, name); err != nil {
					t.Errorf("%s: swap-out %s: %v", tn, name, err)
					return
				}
				got, err := cc.SwapIn(ctx, name)
				if err != nil {
					t.Errorf("%s: swap-in %s: %v", tn, name, err)
					return
				}
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("%s: %s restored[%d] = %v, want %v", tn, name, j, got[j], want[j])
						return
					}
				}
			}
		}(ti, tn)
	}
	wg.Wait()

	// 3 tenants x 8 names across a 256-vnode ring: every shard should have
	// seen swap-outs, each on its own shard-labeled series.
	snap := cl.Registry().Snapshot()
	for i := 0; i < cl.NumShards(); i++ {
		v, ok := snap.Counter("executor_swap_outs_total", metrics.L("shard", strconv.Itoa(i)))
		if !ok || v == 0 {
			t.Errorf("shard %d served no swap-outs (got %v, present %v)", i, v, ok)
		}
	}
}

// TestClusterPerShardQuota verifies admission is per shard: one shard
// refusing a tenant on quota neither consumes nor blocks the same
// tenant's budget on another shard, and the rejection lands on the
// refusing shard's labeled series only.
func TestClusterPerShardQuota(t *testing.T) {
	// Quota admits one 1024-element (4 KiB) tensor per tenant per shard.
	cl, url := newTestCluster(t, server.WithTenantQuota(6<<10))
	ring := placement.NewRing([]int{0, 1, 2}, 0)
	const tn = "tenant-q"
	onShard0 := namesOwnedBy(t, ring, tn, 0, 2)
	onShard1 := namesOwnedBy(t, ring, tn, 1, 1)
	cc := client.NewCluster(url, client.WithTenant(tn), client.WithRetry(0, 0))
	ctx := context.Background()

	if err := cc.Register(ctx, onShard0[0], make([]float32, 1024)); err != nil {
		t.Fatal(err)
	}
	if err := cc.Register(ctx, onShard0[1], make([]float32, 1024)); !isErr(err, client.ErrQuota) {
		t.Fatalf("second register on shard 0: %v, want ErrQuota", err)
	}
	// Shard 1 runs its own admission: the same tenant still has its full
	// budget there.
	if err := cc.Register(ctx, onShard1[0], make([]float32, 1024)); err != nil {
		t.Fatalf("register on shard 1 blocked by shard 0's quota: %v", err)
	}

	snap := cl.Registry().Snapshot()
	if v, _ := snap.Counter("server_quota_rejections_total",
		metrics.L("shard", "0"), metrics.L("tenant", tn)); v != 1 {
		t.Errorf("shard 0 quota rejections = %v, want 1", v)
	}
	if v, ok := snap.Counter("server_quota_rejections_total",
		metrics.L("shard", "1"), metrics.L("tenant", tn)); ok && v != 0 {
		t.Errorf("shard 1 quota rejections = %v, want none", v)
	}
}

// TestClusterLiveDrainBitExact rebalances a shard away mid-traffic: churn
// clients keep swapping while /admin/drain migrates shard 1's tensors,
// and afterwards every tensor — migrated or not — restores byte-exactly.
func TestClusterLiveDrainBitExact(t *testing.T) {
	cl, url := newTestCluster(t)
	ctx := context.Background()
	tenants := []string{"trainer-a", "trainer-b"}

	type tkey struct{ tenant, name string }
	want := map[tkey][]float32{}
	for ti, tn := range tenants {
		cc := client.NewCluster(url, client.WithTenant(tn))
		for i := 0; i < 12; i++ {
			name := fmt.Sprintf("layer%d/act", i)
			data := tensor.NewGenerator(int64(1+ti*100+i)).Uniform(2048, float64(i%5)/5).Data
			want[tkey{tn, name}] = append([]float32(nil), data...)
			if err := cc.Register(ctx, name, data); err != nil {
				t.Fatal(err)
			}
			// Leave a mix of swapped and resident tensors for the migrator.
			if i%2 == 0 {
				if err := cc.SwapOut(ctx, name); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// Churners hammer their own tensors for the duration of the drain;
	// migration-held entry locks surface as retryable 409s, topology
	// changes as one 421 + refresh — never as hard errors.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for gi, tn := range tenants {
		wg.Add(1)
		go func(gi int, tn string) {
			defer wg.Done()
			cc := client.NewCluster(url, client.WithTenant(tn))
			name := "churn/act"
			data := tensor.NewGenerator(int64(1000+gi)).Uniform(1024, 0.5).Data
			ref := append([]float32(nil), data...)
			if err := cc.Register(ctx, name, data); err != nil {
				t.Errorf("%s: churn register: %v", tn, err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := cc.SwapOut(ctx, name); err != nil {
					t.Errorf("%s: churn swap-out: %v", tn, err)
					return
				}
				got, err := cc.SwapIn(ctx, name)
				if err != nil {
					t.Errorf("%s: churn swap-in: %v", tn, err)
					return
				}
				for j := range ref {
					if got[j] != ref[j] {
						t.Errorf("%s: churn restored[%d] = %v, want %v", tn, j, got[j], ref[j])
						return
					}
				}
			}
		}(gi, tn)
	}

	admin := client.NewCluster(url)
	if err := admin.DrainShard(ctx, 1); err != nil {
		close(stop)
		wg.Wait()
		t.Fatalf("drain shard 1: %v", err)
	}
	close(stop)
	wg.Wait()

	m := cl.Map()
	if got := m.Shards[1].State; got != placement.StateDrained {
		t.Errorf("shard 1 state = %q, want drained", got)
	}
	if m.Version < 3 {
		t.Errorf("map version = %d, want >= 3 after drain", m.Version)
	}
	if v, _ := cl.Registry().Snapshot().Counter("cluster_rebalanced_tensors_total"); v == 0 {
		t.Error("drain rebalanced no tensors; the ring put nothing on shard 1?")
	}

	// Every pre-drain tensor restores bit-exactly through the new topology.
	for ti, tn := range tenants {
		cc := client.NewCluster(url, client.WithTenant(tn))
		for i := 0; i < 12; i++ {
			name := fmt.Sprintf("layer%d/act", i)
			ref := want[tkey{tn, name}]
			// Force a full swap cycle regardless of current residency; a
			// resident tensor answers ErrState to the redundant swap-out.
			if err := cc.SwapOut(ctx, name); err != nil && !isErr(err, client.ErrState) {
				t.Fatalf("%s: post-drain swap-out %s: %v", tn, name, err)
			}
			got, err := cc.SwapIn(ctx, name)
			if err != nil {
				t.Fatalf("%s: post-drain swap-in %s: %v", tn, name, err)
			}
			for j := range ref {
				if got[j] != ref[j] {
					t.Fatalf("%s: post-drain %s restored[%d] = %v, want %v (tenant %d)",
						tn, name, j, got[j], ref[j], ti)
				}
			}
		}
	}
}

// TestClusterMisroutedHint checks the routing-hint contract over raw
// HTTP: a stale hint is refused with 421 + the authoritative owner, a
// correct hint is served and stamped with the serving shard.
func TestClusterMisroutedHint(t *testing.T) {
	cl, url := newTestCluster(t)
	ring := placement.NewRing([]int{0, 1, 2}, 0)
	name := namesOwnedBy(t, ring, "default", 0, 1)[0]
	body, err := wire.Encode(&wire.Frame{Type: wire.TypeRegister, Name: name, Data: make([]float32, 64)})
	if err != nil {
		t.Fatal(err)
	}

	post := func(hint string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url+"/v1/register", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if hint != "" {
			req.Header.Set(server.ShardHeader, hint)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	resp := post("1") // lies about the owner
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("stale hint answered %d, want 421", resp.StatusCode)
	}
	if code := resp.Header.Get(server.ErrorHeader); code != server.CodeMisrouted {
		t.Errorf("error code = %q, want %q", code, server.CodeMisrouted)
	}
	if owner := resp.Header.Get(server.OwnerHeader); owner != "0" {
		t.Errorf("owner header = %q, want 0", owner)
	}
	if v := resp.Header.Get(server.MapVersionHeader); v != "1" {
		t.Errorf("map version header = %q, want 1", v)
	}

	resp = post("0") // correct hint
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("correct hint answered %d, want 200", resp.StatusCode)
	}
	if shard := resp.Header.Get(server.ShardHeader); shard != "0" {
		t.Errorf("serving shard header = %q, want 0", shard)
	}
	if v, _ := cl.Registry().Snapshot().Counter("cluster_misrouted_total"); v != 1 {
		t.Errorf("misrouted counter = %v, want 1", v)
	}
}

// TestClusterClientRefreshOnMisroute drains a shard behind a client's
// back and verifies the client's stale hint costs exactly one refresh
// round trip, not an error.
func TestClusterClientRefreshOnMisroute(t *testing.T) {
	cl, url := newTestCluster(t)
	cc := client.NewCluster(url)
	ctx := context.Background()
	if err := cc.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	// A name shard 1 owns on the 3-shard ring must move on the 2-shard one.
	ring3 := placement.NewRing([]int{0, 1, 2}, 0)
	name := namesOwnedBy(t, ring3, "default", 1, 1)[0]

	// Topology changes server-side only; cc still routes by the old map.
	if _, _, err := cl.DrainShard(1); err != nil {
		t.Fatal(err)
	}
	if err := cc.Register(ctx, name, make([]float32, 256)); err != nil {
		t.Fatalf("register after hidden drain: %v", err)
	}
	if got := cc.Map().Version; got < 3 {
		t.Errorf("client map version = %d, want refreshed to >= 3", got)
	}
	if v, _ := cl.Registry().Snapshot().Counter("cluster_misrouted_total"); v == 0 {
		t.Error("no misroute was counted; the stale hint was silently absorbed")
	}
}

// TestClusterDrainRefusals pins the admin-drain error contract.
func TestClusterDrainRefusals(t *testing.T) {
	cl, _ := newTestCluster(t)
	if _, _, err := cl.DrainShard(7); err == nil {
		t.Error("draining unknown shard succeeded")
	}
	if _, _, err := cl.DrainShard(1); err != nil {
		t.Fatalf("first drain: %v", err)
	}
	if _, _, err := cl.DrainShard(1); err == nil {
		t.Error("re-draining a drained shard succeeded")
	}
	if _, _, err := cl.DrainShard(0); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if _, _, err := cl.DrainShard(2); err == nil {
		t.Error("draining the last active shard succeeded")
	}
}

// TestClusterClientAgainstSingleShard points the cluster-aware client at
// a plain single-shard server: the one-shard map routes everything to
// shard 0 and round trips work unchanged.
func TestClusterClientAgainstSingleShard(t *testing.T) {
	_, url := newTestServer(t)
	cc := client.NewCluster(url)
	ctx := context.Background()

	m := cc.Map()
	if m.Version != 0 {
		t.Errorf("map version before first use = %d, want zero value", m.Version)
	}
	data := tensor.NewGenerator(9).Uniform(1024, 0.5).Data
	want := append([]float32(nil), data...)
	if err := cc.Register(ctx, "solo", data); err != nil {
		t.Fatal(err)
	}
	if err := cc.SwapOut(ctx, "solo"); err != nil {
		t.Fatal(err)
	}
	got, err := cc.SwapIn(ctx, "solo")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	m = cc.Map()
	if len(m.Shards) != 1 || m.Shards[0].State != placement.StateActive {
		t.Errorf("single-shard map = %+v, want one active shard", m)
	}
}

func isErr(err, target error) bool { return errors.Is(err, target) }
