package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"cswap/client"
	"cswap/internal/executor"
	"cswap/internal/metrics"
	"cswap/internal/placement"
	"cswap/internal/tensor"
)

// books is one tenant's ledger on one shard beside what it should say: the
// two buckets, the bytes of the tenant's live tensors, and the bytes of
// those whose payload is in the tier.
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

// eachTensor calls f with each of sess's registered tensors, under its
// entry lock.
func eachTensor(sess *session, f func(ent *entry, h *executor.Handle)) {
	for _, name := range sess.entryNames() {
		if ent, err := sess.lookup(name); err == nil {
			ent.mu.Lock()
			if o, ok := ent.obj.(tensorObj); ok {
				f(ent, o.h)
			}
			ent.mu.Unlock()
		}
	}
}

// ledger reads every session's books on s.
func ledger(s *Server) map[string]books {
	out := map[string]books{}
	for _, sess := range sessionsOf(s) {
		b := books{held: sess.held(), tiered: int64(sess.charge.Tiered.Value())}
		eachTensor(sess, func(ent *entry, h *executor.Handle) {
			b.live += ent.bytes
			if h.InTier() {
				b.inTier += h.Bytes()
			}
		})
		out[sess.tenant] = b
	}
	return out
}

// quiet reports whether s's watermark demoter has nothing left to do — the
// host pool at or under the mark — and no tensor is mid-operation, so every
// demotion that was under way has committed, its charge move included.
func quiet(s *Server) bool {
	hs := s.exec.HostStats()
	busy := float64(hs.Used) > s.cfg.tierWatermark*float64(hs.Capacity)
	for _, sess := range sessionsOf(s) {
		eachTensor(sess, func(_ *entry, h *executor.Handle) {
			st := h.State()
			busy = busy || (st != executor.Resident && st != executor.Swapped)
		})
	}
	return !busy
}

// TestLedgerConservation drives two tenants through every operation that
// moves a tensor's bytes — register, swap-out raw and ZVC, prefetch,
// swap-in, free, demote-then-admit and a shard drain — on a two-shard
// cluster whose watermark demoter moves payloads between requests. At each
// quiescent point, on each shard and for each tenant, Held + Tiered is the
// bytes of the live entries and Tiered is the bytes of the tiered tensors;
// while every tiered payload is raw, Σ Tiered is what the shard's tier
// holds.
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
			for tenant, b := range ledger(cl.Shard(i)) {
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
	check("all freed", true) // live 0: both buckets and both tiers empty
}
