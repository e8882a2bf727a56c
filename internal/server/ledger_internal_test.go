package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cswap/client"
	"cswap/internal/executor"
	"cswap/internal/metrics"
	"cswap/internal/placement"
	"cswap/internal/tensor"
)

// books is one tenant's ledger on one shard beside what it should say: the
// two buckets, the bytes of the tenant's live objects, and the raw bytes of
// its stored runs — tensors' and pool runs' — that the tier holds.
type books struct{ held, tiered, live, inTier int64 }

// sessionsOf snapshots s's sessions.
func sessionsOf(s *Server) []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	return sessions
}

// eachObject calls f with each of sess's registered objects, tensors and
// block pools alike, under its entry lock.
func eachObject(sess *session, f func(ent *entry)) {
	for _, name := range sess.entryNames() {
		if ent, err := sess.lookup(name); err == nil {
			ent.mu.Lock()
			if ent.obj.p != nil {
				f(ent)
			}
			ent.mu.Unlock()
		}
	}
}

// ledger reads every session's books on s. What the tier holds is read from
// the tier itself: each blob's key starts with its tenant, and its metadata
// records the run's raw bytes.
func ledger(t *testing.T, s *Server) map[string]books {
	t.Helper()
	out := map[string]books{}
	for _, sess := range sessionsOf(s) {
		b := books{held: sess.held(), tiered: int64(sess.charge.Tiered.Value())}
		eachObject(sess, func(ent *entry) { b.live += ent.bytes })
		out[sess.tenant] = b
	}
	for _, key := range s.tier.Keys() {
		var meta struct {
			RawBytes int64 `json:"raw_bytes"`
		}
		if _, err := s.tier.Get(key, &meta); err != nil {
			t.Fatal(err)
		}
		tenant, _, _ := strings.Cut(key, "/")
		b := out[tenant]
		b.inTier += meta.RawBytes
		out[tenant] = b
	}
	return out
}

// quiet reports whether s's watermark demoter has nothing left to do — the
// host pool at or under the mark — and no block of any object is
// mid-operation, so every demotion that was under way has committed, its
// charge move included.
func quiet(s *Server) bool {
	hs := s.exec.HostStats()
	busy := float64(hs.Used) > s.cfg.tierWatermark*float64(hs.Capacity)
	for _, sess := range sessionsOf(s) {
		eachObject(sess, func(ent *entry) {
			for id := 0; id < ent.obj.p.NumBlocks(); id++ {
				st := ent.obj.p.BlockState(id)
				busy = busy || (st != executor.Resident && st != executor.Swapped)
			}
		})
	}
	return !busy
}

// TestLedgerConservation drives two tensor tenants and a block-pool tenant
// through every operation that moves an object's bytes — register,
// register-pool and batch-write, swap-out raw and ZVC, batch swap-out,
// prefetch and swap-in of both kinds, free, demote-then-admit and a shard
// drain — on a two-shard cluster whose watermark demoter moves payloads
// between requests. At each quiescent point, on each shard and for each
// tenant, Held + Tiered is the bytes of the live entries and Tiered is the
// raw bytes of the tenant's runs in the tier; while every tiered payload is
// raw, Σ Tiered is what the shard's tier holds.
func TestLedgerConservation(t *testing.T) {
	const elems = 8192
	n := int64(elems * 4)
	cl, err := NewCluster(
		WithShards(2),
		WithDeviceCapacity(64<<20),
		WithHostCapacity(6*n),
		WithTierDir(t.TempDir()),
		WithTierWatermark(0.5), // three raw blobs
		WithTenantQuota(16*n),
		WithVerify(true),
		WithRetryAfter(time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(cl.Handler())
	t.Cleanup(func() {
		hs.Close()
		_ = cl.Close()
	})
	ctx, gen := context.Background(), tensor.NewGenerator(9)
	do := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string, allRaw bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !quiet(cl.Shard(0)) || !quiet(cl.Shard(1)); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: the shards never went quiet", step)
			}
		}
		for i := 0; i < cl.NumShards(); i++ {
			var tiered int64
			for tenant, b := range ledger(t, cl.Shard(i)) {
				if b.held+b.tiered != b.live || b.tiered != b.inTier {
					t.Errorf("%s: shard %d, %s: held %d + tiered %d, want live %d with %d tiered",
						step, i, tenant, b.held, b.tiered, b.live, b.inTier)
				}
				tiered += b.tiered
			}
			if used := cl.Shard(i).tier.Used(); allRaw && tiered != used {
				t.Errorf("%s: shard %d charges %d tiered bytes, its tier holds %d", step, i, tiered, used)
			}
		}
	}
	// owned lists four of tenant's names the ring gives shard.
	m := cl.Map()
	ring := m.Ring()
	owned := func(tenant, prefix string, shard int) []string {
		var names []string
		for i := 0; len(names) < 4; i++ {
			name := fmt.Sprintf("%s%d", prefix, i)
			if o, _ := ring.Owner(placement.Key(tenant, name)); o == shard {
				names = append(names, name)
			}
		}
		return names
	}

	alpha := client.New(hs.URL, client.WithTenant("alpha"))
	a := [2][]string{owned("alpha", "a", 0), owned("alpha", "a", 1)}
	for _, names := range a {
		for _, name := range names {
			do(alpha.Register(ctx, name, gen.Uniform(elems, 0.5).Data))
		}
	}
	check("registered", true)
	for _, names := range a {
		for _, name := range names {
			do(alpha.SwapOut(ctx, name, client.WithRaw()))
		}
	}
	check("swapped out raw", true)
	for i := 0; i < cl.NumShards(); i++ {
		if cl.Shard(i).tier.Used() == 0 {
			t.Fatalf("shard %d: four raw blobs over a three-blob watermark, and nothing was demoted", i)
		}
	}
	for _, names := range a {
		do(alpha.Prefetch(ctx, names[0]))
		do(alpha.Prefetch(ctx, names[1]))
	}
	check("prefetched", true)
	for _, names := range a {
		_, err := alpha.SwapIn(ctx, names[2])
		do(err)
	}
	check("swapped in", true)
	for _, names := range a {
		do(alpha.Free(ctx, names[0]))
	}
	check("freed", true)

	// Shard 0 holds names[2] resident and names[1] swapped to the host pool
	// (names[3] is in one place or the other): a register that leaves room
	// for one resident tensor under the quota has to demote.
	do(alpha.SwapOut(ctx, a[0][1], client.WithRaw()))
	big := owned("alpha", "big", 0)[0]
	do(alpha.Register(ctx, big, gen.Uniform(15*elems, 0.5).Data))
	if v := cl.Shard(0).ins.reg.Counter("server_tier_demote_admits_total", metrics.L("tenant", "alpha")).Value(); v == 0 {
		t.Fatal("the register was admitted without a demote-then-admit")
	}
	check("demote-then-admit", true)
	do(alpha.Free(ctx, big)) // room on shard 0 for what the drain brings

	// A KV tenant: one pool per shard, whose raw run swap-outs alone
	// (3.5 blobs' worth) push the host pool past the mark, so the watermark
	// has to demote pool runs.
	const blockElems, poolBlocks = elems / 4, 16
	blockRange := func(start, n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = start + i
		}
		return ids
	}
	outRun, inRun := blockRange(0, 7), blockRange(8, 7)
	kv := client.New(hs.URL, client.WithTenant("gamma"))
	pools := [2]string{owned("gamma", "kv", 0)[0], owned("gamma", "kv", 1)[0]}
	kvData := gen.Uniform(poolBlocks*blockElems, 0.5).Data
	for _, pool := range pools {
		do(kv.RegisterPool(ctx, pool, blockElems, poolBlocks))
		do(kv.WriteBlocks(ctx, pool, blockRange(0, poolBlocks), kvData))
	}
	check("pools registered", true)
	for _, pool := range pools {
		do(kv.SwapOutBlocks(ctx, pool, outRun, client.WithRaw()))
		do(kv.SwapOutBlocks(ctx, pool, inRun, client.WithRaw()))
	}
	check("pool runs swapped out raw", true)
	for i := 0; i < cl.NumShards(); i++ {
		if ledger(t, cl.Shard(i))["gamma"].inTier == 0 {
			t.Fatalf("shard %d: the watermark demoted no pool run", i)
		}
	}
	for _, pool := range pools {
		do(kv.PrefetchBlocks(ctx, pool, outRun))
		bd, err := kv.SwapInBlocks(ctx, pool, inRun)
		do(err)
		for j, v := range bd.Data {
			if want := kvData[inRun[0]*blockElems+j]; v != want {
				t.Fatalf("%s restored[%d] = %v, want %v", pool, j, v, want)
			}
		}
	}
	check("pool runs prefetched and swapped in", true)
	for _, pool := range pools {
		do(kv.SwapOutBlocks(ctx, pool, outRun, client.WithRaw())) // for the drain to move
	}
	check("pool run swapped out again", true)

	beta := client.New(hs.URL, client.WithTenant("beta"))
	b := [2][]string{owned("beta", "b", 0), owned("beta", "b", 1)}
	for _, names := range b {
		for _, name := range names {
			do(beta.Register(ctx, name, gen.Uniform(elems, 0.2).Data))
			do(beta.SwapOut(ctx, name, client.WithCodec(client.ZVC)))
		}
	}
	check("ZVC beside raw", false)
	if _, _, err := cl.DrainShard(1); err != nil {
		t.Fatal(err)
	}
	check("shard 1 drained", false)

	for _, names := range a {
		for _, name := range names[1:] {
			do(alpha.Free(ctx, name))
		}
	}
	for _, names := range b {
		for _, name := range names {
			do(beta.Free(ctx, name))
		}
	}
	for _, pool := range pools {
		do(kv.Free(ctx, pool))
	}
	check("all freed", true) // live 0: both buckets and both tiers empty
}
