package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"cswap/client"
	"cswap/internal/executor"
	"cswap/internal/faultinject"
	"cswap/internal/placement"
	"cswap/internal/tensor"
)

// sealedPool returns the pool behind name on s, read under the entry lock.
func sealedPool(t *testing.T, s *Server, name string) *executor.BlockPool {
	t.Helper()
	ent, err := s.session(DefaultTenant).lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	ent.mu.Lock()
	defer ent.mu.Unlock()
	return ent.obj.p
}

// checkSealed requires name's object on s to be sealed: its pool refuses a
// write.
func checkSealed(t *testing.T, s *Server, name string) {
	t.Helper()
	p := sealedPool(t, s, name)
	if err := p.WriteBlocks([]int{0}, make([]float32, p.BlockElems())); !errors.Is(err, executor.ErrSealed) {
		t.Fatalf("%s: write to a served tensor's pool: %v, want ErrSealed", name, err)
	}
}

// TestSealedTensorCycles: a served tensor is sealed at register, so every
// swap-out after its first reuses the digest its first took. For raw and
// each codec, repeated cycles answer exactly the registered bytes — −0 and
// NaN payloads included — with every restore verified: straight after a
// swap, through a tier demotion and promotion each cycle, and after a drain
// migrated the tensor, whose arriving object is sealed again and digests
// afresh at its first swap-out on the new shard.
func TestSealedTensorCycles(t *testing.T) {
	const elems, cycles = 3<<14 + 5, 3
	data := crcPayload(elems)
	ctx := context.Background()
	verified := func(t *testing.T, s *Server, before, swapIns int) {
		t.Helper()
		if got := s.Executor().Stats().Verified; got != before+swapIns {
			t.Fatalf("%d restores verified, want %d", got-before, swapIns)
		}
	}

	t.Run("swap", func(t *testing.T) {
		s, url := newInternalServer(t)
		c := client.New(url)
		for _, cd := range crcCodecs {
			if err := c.Register(ctx, cd.name, data); err != nil {
				t.Fatal(err)
			}
			checkSealed(t, s, cd.name)
			before := s.Executor().Stats().Verified
			for i := 0; i < cycles; i++ {
				if err := c.SwapOut(ctx, cd.name, cd.opt); err != nil {
					t.Fatal(err)
				}
				checkSwapIn(t, s, url, cd.name, data)
			}
			verified(t, s, before, cycles)
		}
	})

	t.Run("tier", func(t *testing.T) {
		s, url := newInternalServer(t, WithTierDir(t.TempDir()))
		c := client.New(url)
		for _, cd := range crcCodecs {
			if err := c.Register(ctx, cd.name, data); err != nil {
				t.Fatal(err)
			}
			before, promoted := s.Executor().Stats().Verified, s.Executor().Stats().TierPromotions
			for i := 0; i < cycles; i++ {
				if err := c.SwapOut(ctx, cd.name, cd.opt); err != nil {
					t.Fatal(err)
				}
				if moved, err := sealedPool(t, s, cd.name).DemoteSwapped(); err != nil || moved == 0 {
					t.Fatalf("%s: demotion moved %d bytes: %v", cd.name, moved, err)
				}
				checkSwapIn(t, s, url, cd.name, data)
			}
			verified(t, s, before, cycles)
			if got := s.Executor().Stats().TierPromotions - promoted; got != cycles {
				t.Fatalf("%s: %d promotions in %d demoted cycles", cd.name, got, cycles)
			}
		}
	})

	t.Run("drain", func(t *testing.T) {
		cl, err := NewCluster(WithShards(2), WithDeviceCapacity(64<<20), WithHostCapacity(64<<20),
			WithVerify(true), WithRetryAfter(time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(cl.Handler())
		t.Cleanup(func() {
			hs.Close()
			_ = cl.Close()
		})
		c := client.New(hs.URL)
		m := cl.Map()
		ring := m.Ring()
		var names []string // one per codec, all on shard 1, each swapped out twice
		for i := 0; len(names) < len(crcCodecs); i++ {
			cd := crcCodecs[len(names)]
			name := fmt.Sprintf("%s/%d", cd.name, i)
			if o, _ := ring.Owner(placement.Key(DefaultTenant, name)); o != 1 {
				continue
			}
			if err := c.Register(ctx, name, data); err != nil {
				t.Fatal(err)
			}
			if err := c.SwapOut(ctx, name, cd.opt); err != nil {
				t.Fatal(err)
			}
			checkSwapIn(t, cl.Shard(1), hs.URL, name, data)
			if err := c.SwapOut(ctx, name, cd.opt); err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
		if n, _, err := cl.DrainShard(1); err != nil || n != len(names) {
			t.Fatalf("drain moved %d tensors, want %d: %v", n, len(names), err)
		}
		dst := cl.Shard(0)
		before := dst.Executor().Stats().Verified
		for i, name := range names {
			checkSealed(t, dst, name)
			checkSwapIn(t, dst, hs.URL, name, data) // restores what the drain's swap-out stored
			for j := 1; j < cycles; j++ {
				if err := c.SwapOut(ctx, name, crcCodecs[i].opt); err != nil {
					t.Fatal(err)
				}
				checkSwapIn(t, dst, hs.URL, name, data)
			}
		}
		verified(t, dst, before, cycles*len(names))
	})
}

// TestDrainedTensorStartsWithoutCleanCopy: a served tensor's clean copy
// stays with its pool. After a drain moves a resident tensor that holds one,
// the source shard's host pool is empty again and the arriving object holds
// none: its first swap-out on the new shard encodes, its restore keeps a
// clean copy, and the swap-out after commits it. Every restore is the
// registered bytes.
func TestDrainedTensorStartsWithoutCleanCopy(t *testing.T) {
	data := crcPayload(3<<14 + 5)
	ctx := context.Background()
	cl, err := NewCluster(WithShards(2), WithDeviceCapacity(64<<20), WithHostCapacity(64<<20),
		WithVerify(true), WithRetryAfter(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(cl.Handler())
	t.Cleanup(func() {
		hs.Close()
		_ = cl.Close()
	})
	c := client.New(hs.URL)
	m := cl.Map()
	name := ""
	for i := 0; name == ""; i++ {
		if o, _ := m.Ring().Owner(placement.Key(DefaultTenant, fmt.Sprintf("huf/%d", i))); o == 1 {
			name = fmt.Sprintf("huf/%d", i)
		}
	}
	if err := c.Register(ctx, name, data); err != nil {
		t.Fatal(err)
	}
	huf := client.WithCodec(client.HUF)
	src, dst := cl.Shard(1).Executor(), cl.Shard(0).Executor()
	cleanOuts := func(e *executor.Executor) float64 {
		return e.Registry().Counter("executor_clean_swapouts_total").Value()
	}
	for i := 0; i < 2; i++ {
		if err := c.SwapOut(ctx, name, huf); err != nil {
			t.Fatal(err)
		}
		checkSwapIn(t, cl.Shard(1), hs.URL, name, data)
	}
	if st := src.HostStats(); st.Used != 0 || st.Cached == 0 || cleanOuts(src) != 1 {
		t.Fatalf("old shard: host pool %+v after %v clean swap-outs, want a clean copy after one", st, cleanOuts(src))
	}
	if n, _, err := cl.DrainShard(1); err != nil || n != 1 {
		t.Fatalf("drain moved %d tensors: %v", n, err)
	}
	if st := src.HostStats(); st.Used != 0 || st.Cached != 0 {
		t.Fatalf("old shard's host pool %+v after the drain, want it empty", st)
	}
	for i := 0; i < 2; i++ {
		if st := dst.HostStats(); (st.Cached != 0) != (i > 0) {
			t.Fatalf("swap-out %d on the new shard: host pool %+v", i, st)
		}
		if err := c.SwapOut(ctx, name, huf); err != nil {
			t.Fatal(err)
		}
		if got := cleanOuts(dst); got != float64(i) {
			t.Fatalf("swap-out %d on the new shard: %v clean swap-outs, want %d", i, got, i)
		}
		checkSwapIn(t, cl.Shard(0), hs.URL, name, data)
	}
}

// TestSealedTensorCorruptTransferRefused: a sealed tensor's stored copy
// corrupted on the way to the host pool at its second swap-out — the first
// reused digest — fails the next swap-in, its retry included, and every one
// after: wrong data never comes back. The verify check holds with the
// digest taken at the first swap-out, for raw and a codec alike. The first
// swap-out uses the other of the two, so that the second stores afresh
// rather than committing the clean copy the first restore kept.
func TestSealedTensorCorruptTransferRefused(t *testing.T) {
	ctx := context.Background()
	pair := crcCodecs[:2]
	for i, cd := range pair {
		inj := faultinject.New(faultinject.Fault{Site: faultinject.SiteTransferOut, Mode: faultinject.Corrupt, After: 2})
		s, url := newInternalServer(t, WithFaults(inj))
		c := client.New(url)
		data := crcPayload(4096)
		if err := c.Register(ctx, "t", data); err != nil {
			t.Fatal(err)
		}
		if err := c.SwapOut(ctx, "t", pair[1-i].opt); err != nil {
			t.Fatal(err)
		}
		checkSwapIn(t, s, url, "t", data)
		if err := c.SwapOut(ctx, "t", cd.opt); err != nil {
			t.Fatal(err)
		}
		if n := inj.Stats().Corruptions; n != 1 {
			t.Fatalf("%s: %d corruptions fired, want 1", cd.name, n)
		}
		for try := 0; try < 2; try++ {
			if got, err := c.SwapIn(ctx, "t"); err == nil {
				t.Fatalf("%s: swap-in %d of a corrupted sealed tensor returned %d floats", cd.name, try, len(got))
			}
		}
		if got := s.Executor().Stats().DecodeRetries; got != 2 {
			t.Fatalf("%s: %d decode retries over two refused swap-ins, want 2", cd.name, got)
		}
	}
}

// TestSealedHistory replays seeded random histories over a three-shard
// cluster with a spill tier (sealHistory): the pattern of internal/tier's
// TestStoreModel one layer up. A failure names its seed and step, and the
// seed replays it.
func TestSealedHistory(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 60
	}
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { sealHistory(t, seed, steps) })
	}
}

// FuzzSealedHistory searches for seeds whose history breaks sealHistory's
// invariants.
func FuzzSealedHistory(f *testing.F) {
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { sealHistory(t, seed, 60) })
}

// historyFaults are the faults a history may arm, each at a random
// operation count: every data-path site, including the persistent
// corruption of a stored copy no retry can undo.
var historyFaults = []faultinject.Fault{
	{Site: faultinject.SiteEncode, Mode: faultinject.Fail},
	{Site: faultinject.SiteDecode, Mode: faultinject.Fail},
	{Site: faultinject.SiteHostAlloc, Mode: faultinject.Fail},
	{Site: faultinject.SiteDeviceAlloc, Mode: faultinject.Fail},
	{Site: faultinject.SiteTransferOut, Mode: faultinject.Corrupt},
	{Site: faultinject.SiteTransferIn, Mode: faultinject.Corrupt},
	{Site: faultinject.SiteTransferIn, Mode: faultinject.Truncate},
	{Site: faultinject.SiteTierCommit, Mode: faultinject.Fail},
}

// modelObject is what a history knows of one served object: the bytes a
// read must return, and whether its last swap-out is known to have stored
// them (false: resident or unknown after a refused operation).
type modelObject struct {
	name    string
	pool    bool // an unsealed one-block pool; else a sealed tensor
	want    []float32
	swapped bool
}

// sealHistory drives one seeded history of steps operations over sealed
// tensors and unsealed one-block pools — swap-out with raw or a random
// codec, swap-in, a batch-write (refused for tensors), a tier demotion and
// a shard drain — with up to two faults armed at random sites for half the
// seeds, and for a third of them a host pool of two raw objects per shard,
// so that swap-outs drop the clean copies restores kept. The invariants:
// every answered read is bit-exact to the model, −0 and NaN payloads
// included; a tensor write is refused; with no fault armed every operation
// succeeds; and once every object is freed, no shard's host pool holds a
// byte, used or cached.
func sealHistory(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	var faults []faultinject.Fault
	if seed%2 == 0 {
		for n := 1 + rng.Intn(2); len(faults) < n; {
			f := historyFaults[rng.Intn(len(historyFaults))]
			f.After = 8 + rng.Intn(40) // past the registrations' device allocations
			if rng.Intn(2) == 0 {
				f.Every = 5 + rng.Intn(25)
			}
			faults = append(faults, f)
		}
	}
	const shards, elems = 3, 3<<14 + 5
	host := int64(64 << 20)
	if seed%3 == 0 {
		host = 2 * 4 * elems
	}
	cl, err := NewCluster(WithShards(shards), WithDeviceCapacity(64<<20), WithHostCapacity(host),
		WithVerify(true), WithRetryAfter(time.Millisecond), WithTierDir(t.TempDir()),
		WithFaults(faultinject.New(faults...)))
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(cl.Handler())
	defer func() {
		hs.Close()
		_ = cl.Close()
	}()
	c, ctx := client.New(hs.URL), context.Background()
	payload := func() []float32 {
		data := tensor.NewGenerator(rng.Int63()).Uniform(elems, rng.Float64()).Data
		data[rng.Intn(elems)] = float32(math.Copysign(0, -1))
		data[rng.Intn(elems)] = math.Float32frombits(0x7fc00000 | uint32(rng.Intn(1<<22)))
		return data
	}
	// done counts what the history did, by operation and outcome.
	done := map[string]int{}
	var objs []*modelObject
	for i := 0; i < 5; i++ {
		o := &modelObject{name: fmt.Sprintf("obj%d", i), pool: i >= 3, want: payload()}
		if o.pool {
			err = c.RegisterPool(ctx, o.name, elems, 1)
			if err == nil {
				err = c.WriteBlocks(ctx, o.name, []int{0}, o.want)
			}
		} else {
			err = c.Register(ctx, o.name, o.want)
		}
		if err != nil {
			t.Fatalf("seed %d: register %s: %v", seed, o.name, err)
		}
		objs = append(objs, o)
	}
	// fail reports an operation's error: a failure of the invariants
	// unless a fault is armed, which may refuse any operation.
	fail := func(step int, op string, o *modelObject, err error) {
		t.Helper()
		if len(faults) == 0 {
			t.Fatalf("seed %d step %d: %s %s: %v (no fault armed)", seed, step, op, o.name, err)
		}
		done[op+" refused"]++
		o.swapped = false
	}
	read := func(step int, o *modelObject) {
		t.Helper()
		var got []float32
		if o.pool {
			var bd *client.BlockData
			if bd, err = c.SwapInBlocks(ctx, o.name, []int{0}); err == nil {
				got, _ = bd.Block(0)
			}
		} else if got, err = c.SwapIn(ctx, o.name); errors.Is(err, client.ErrState) && !o.swapped {
			return // resident: a tensor's swap-in refuses it
		}
		if err != nil {
			fail(step, "swap-in", o, err)
			return
		}
		o.swapped = false
		done["read"]++
		if len(got) != len(o.want) {
			t.Fatalf("seed %d step %d: %s read %d floats, want %d", seed, step, o.name, len(got), len(o.want))
		}
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(o.want[i]) {
				t.Fatalf("seed %d step %d: %s element %d reads %#x, want %#x", seed, step, o.name, i,
					math.Float32bits(got[i]), math.Float32bits(o.want[i]))
			}
		}
	}
	// holder is the shard serving name: its ring owner, or a draining shard
	// a failed migration left it on.
	holder := func(name string) (*Server, bool) {
		for i := 0; i < shards; i++ {
			if _, err := cl.Shard(i).session(DefaultTenant).lookup(name); err == nil {
				return cl.Shard(i), true
			}
		}
		return nil, false
	}

	for step := 0; step < steps; step++ {
		o := objs[rng.Intn(len(objs))]
		switch r := rng.Intn(20); {
		case r < 7:
			cd := crcCodecs[rng.Intn(len(crcCodecs))]
			var err error
			if o.pool {
				err = c.SwapOutBlocks(ctx, o.name, []int{0}, cd.opt)
			} else {
				err = c.SwapOut(ctx, o.name, cd.opt)
			}
			if err == nil {
				o.swapped = true
				done["swap-out"]++
			} else if !o.swapped || !errors.Is(err, client.ErrState) {
				fail(step, "swap-out "+cd.name, o, err)
			}
		case r < 14:
			read(step, o)
		case r < 16:
			data := payload()
			err := c.WriteBlocks(ctx, o.name, []int{0}, data)
			switch {
			case !o.pool && !errors.Is(err, client.ErrState):
				t.Fatalf("seed %d step %d: batch-write to tensor %s: %v, want a state refusal", seed, step, o.name, err)
			case o.pool && err == nil:
				o.want, o.swapped = data, false
				done["batch-write"]++
			case o.pool && (o.swapped || len(faults) > 0) && errors.Is(err, client.ErrState):
			case o.pool:
				fail(step, "batch-write", o, err)
			}
		case r < 19:
			s, ok := holder(o.name)
			if !ok {
				t.Fatalf("seed %d step %d: no shard holds %s", seed, step, o.name)
			}
			// The handler of the last request may still hold the entry for a
			// moment after its response was read.
			ent, err := acquireForMigration(s.session(DefaultTenant), o.name)
			if err != nil {
				t.Fatalf("seed %d step %d: acquire %s: %v", seed, step, o.name, err)
			}
			moved, err := ent.obj.p.DemoteSwapped()
			ent.mu.Unlock()
			if err != nil {
				fail(step, "demote", o, err)
			} else if moved > 0 {
				done["demote"]++
			}
		default:
			var live []int
			cl.mu.Lock()
			for i, st := range cl.states {
				if st != placement.StateDrained {
					live = append(live, i)
				}
			}
			cl.mu.Unlock()
			if len(live) < 2 {
				continue
			}
			_, _, err := cl.DrainShard(live[rng.Intn(len(live))])
			done["drain"]++
			if err != nil {
				if len(faults) == 0 {
					t.Fatalf("seed %d step %d: drain: %v (no fault armed)", seed, step, err)
				}
				for _, o := range objs {
					o.swapped = false
				}
			}
		}
	}
	for _, o := range objs {
		read(steps, o)
	}
	for _, o := range objs {
		if err := c.Free(ctx, o.name); err != nil {
			t.Fatalf("seed %d: free %s: %v", seed, o.name, err)
		}
	}
	for i := 0; i < shards; i++ {
		e := cl.Shard(i).Executor()
		if st := e.HostStats(); st.Used != 0 || st.Cached != 0 {
			t.Fatalf("seed %d: shard %d's host pool holds %d bytes used, %d cached after every object was freed", seed, i, st.Used, st.Cached)
		}
		done["clean swap-out"] += int(e.Registry().Counter("executor_clean_swapouts_total").Value())
		done["clean drop"] += int(e.Registry().Counter("executor_clean_drops_total").Value())
	}
	t.Logf("seed %d, host %d, faults %v: %v", seed, host, faults, done)
}
