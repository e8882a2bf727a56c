package executor

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"cswap/internal/compress"
	"cswap/internal/faultinject"
	"cswap/internal/metrics"
	"cswap/internal/tensor"
	"cswap/internal/tier"
)

// payloadOwner drives one stored payload through the executor, so the
// equivalence test can push the same script through a tensor Handle and
// through a single-run BlockPool.
type payloadOwner struct {
	swapOut  func(doCompress bool, alg compress.Algorithm) error
	swapIn   func() error
	prefetch func() error
	demote   func() error
	swapped  func() bool
	read     func() ([]float32, error)
	free     func() error
}

func handleOwner(t *testing.T, e *Executor, data []float32) payloadOwner {
	h, err := e.Register("x", tensor.FromSlice(append([]float32(nil), data...)))
	if err != nil {
		t.Fatal(err)
	}
	return payloadOwner{
		swapOut:  func(c bool, a compress.Algorithm) error { return e.SwapOut(h, c, a) },
		swapIn:   func() error { return e.SwapIn(h) },
		prefetch: func() error { return e.Prefetch(h).Wait() },
		demote:   func() error { return e.Demote(h) },
		swapped:  func() bool { return h.State() == Swapped },
		read:     h.Data,
		free:     func() error { return e.Free(h) },
	}
}

func poolOwner(t *testing.T, e *Executor, data []float32) payloadOwner {
	const blocks = 4
	p, err := e.RegisterBlockPool("x", len(data)/blocks, blocks)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{0, 1, 2, 3} // contiguous: one coalesced run, one payload
	if err := p.WriteBlocks(ids, data); err != nil {
		t.Fatal(err)
	}
	return payloadOwner{
		swapOut:  func(c bool, a compress.Algorithm) error { return p.SwapOutBlocks(ids, c, a) },
		swapIn:   func() error { return p.SwapInBlocks(ids) },
		prefetch: func() error { return p.PrefetchBlocks(ids).Wait() },
		demote: func() error {
			p.mu.Lock()
			pr := p.run[0]
			p.mu.Unlock()
			return p.demoteRun(pr)
		},
		swapped: func() bool { return p.BlockState(0) == Swapped },
		read:    func() ([]float32, error) { return p.ReadBlocks(ids) },
		free:    p.Free,
	}
}

// payloadReport is everything the two kinds must agree on for one script.
type payloadReport struct {
	steps  []string // per-step outcome and host/tier occupancy
	stats  Stats
	series string // per-codec deep series and buffer-recycling counters
}

// TestStoredPayloadEquivalence pushes the same elements and the same fault
// schedule through a tensor Handle and a single-run BlockPool and requires
// identical behaviour: there is one stored-payload path, so outcomes,
// Stats, host/tier occupancy and the per-codec series cannot differ by
// kind. The launch is one chunk, so every codec pass is exactly one
// injector operation and fault schedules land identically.
func TestStoredPayloadEquivalence(t *testing.T) {
	fail := func(site faultinject.Site, after int) faultinject.Fault {
		return faultinject.Fault{Site: site, Mode: faultinject.Fail, After: after}
	}
	corrupt := func(site faultinject.Site) faultinject.Fault {
		return faultinject.Fault{Site: site, Mode: faultinject.Corrupt}
	}
	type script func(o payloadOwner, step func(name string, err error))
	roundTrip := func(o payloadOwner, step func(string, error)) {
		step("swap-out", o.swapOut(true, compress.ZVC))
		step("swap-in", o.swapIn())
	}
	cases := []struct {
		name      string
		faults    []faultinject.Fault
		tiered    bool
		script    script
		wantStats func(Stats) bool
		restored  bool // the script ends with the payload resident
	}{
		{name: "clean", script: roundTrip, restored: true,
			wantStats: func(s Stats) bool { return s.CompressedTensors == 1 && s.Fallbacks() == 0 }},
		{name: "encode failure falls back to raw", script: roundTrip, restored: true,
			faults:    []faultinject.Fault{fail(faultinject.SiteEncode, 1)},
			wantStats: func(s Stats) bool { return s.EncodeFallbacks == 1 && s.CompressedTensors == 0 }},
		{name: "compressed host-alloc failure falls back to raw", script: roundTrip, restored: true,
			faults:    []faultinject.Fault{fail(faultinject.SiteHostAlloc, 1)},
			wantStats: func(s Stats) bool { return s.AllocFallbacks == 1 && s.CompressedTensors == 0 }},
		{name: "uncommitted store counts nothing",
			faults: []faultinject.Fault{fail(faultinject.SiteEncode, 1), fail(faultinject.SiteHostAlloc, 1)},
			script: func(o payloadOwner, step func(string, error)) {
				step("swap-out", o.swapOut(true, compress.ZVC)) // surfaces; stays resident
			},
			restored:  true,
			wantStats: func(s Stats) bool { return s == Stats{} }},
		{name: "transfer-out corruption never restores silently",
			faults: []faultinject.Fault{corrupt(faultinject.SiteTransferOut)},
			script: roundTrip,
			wantStats: func(s Stats) bool {
				return s.SwapOuts == 1 && s.SwapIns == 0 && s.DecodeRetries == 1 && s.DecodeRecoveries == 0
			}},
		{name: "transfer-in corruption recovers from the retained blob", script: roundTrip, restored: true,
			faults:    []faultinject.Fault{corrupt(faultinject.SiteTransferIn)},
			wantStats: func(s Stats) bool { return s.DecodeRetries == 1 && s.DecodeRecoveries == 1 }},
		{name: "decode fault once recovers", script: roundTrip, restored: true,
			faults:    []faultinject.Fault{fail(faultinject.SiteDecode, 1)},
			wantStats: func(s Stats) bool { return s.DecodeRetries == 1 && s.DecodeRecoveries == 1 }},
		{name: "decode fault twice surfaces and is retry-safe", restored: true,
			faults: []faultinject.Fault{fail(faultinject.SiteDecode, 1), fail(faultinject.SiteDecode, 2)},
			script: func(o payloadOwner, step func(string, error)) {
				roundTrip(o, step)
				step("swap-in again", o.swapIn())
			},
			wantStats: func(s Stats) bool { return s.SwapIns == 1 && s.DecodeRetries == 1 && s.DecodeRecoveries == 0 }},
		{name: "demote then promote", tiered: true, restored: true,
			script: func(o payloadOwner, step func(string, error)) {
				step("swap-out", o.swapOut(true, compress.ZVC))
				step("demote", o.demote())
				step("demote again", o.demote())
				step("swap-in", o.swapIn())
			},
			wantStats: func(s Stats) bool { return s.TierDemotions == 1 && s.TierPromotions == 1 }},
		{name: "prefetch stages from the tier", tiered: true, restored: true,
			script: func(o payloadOwner, step func(string, error)) {
				step("swap-out", o.swapOut(true, compress.ZVC))
				step("demote", o.demote())
				step("prefetch", o.prefetch())
			},
			wantStats: func(s Stats) bool { return s.TierDemotions == 1 && s.TierPromotions == 1 && s.SwapIns == 1 }},
	}
	data := tensor.NewGenerator(9).Uniform(8192, 0.6).Data
	kinds := []struct {
		name string
		own  func(*testing.T, *Executor, []float32) payloadOwner
	}{{"handle", handleOwner}, {"pool", poolOwner}}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var reports []payloadReport
			for _, kind := range kinds {
				cfg := Config{
					DeviceCapacity: 1 << 20,
					HostCapacity:   1 << 20,
					Launch:         compress.Launch{Grid: 1, Block: 64},
					Verify:         true,
					Faults:         faultinject.New(tc.faults...),
					Observer:       metrics.NewObserver(),
				}
				tierBlobs := func() int { return 0 }
				if tc.tiered {
					ts, err := tier.Open(t.TempDir(), 1<<20, nil)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Tier, tierBlobs = ts, ts.Len
				}
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				o := kind.own(t, e, data)
				var rep payloadReport
				tc.script(o, func(name string, err error) {
					rep.steps = append(rep.steps, fmt.Sprintf("%s: %s, swapped=%v host=%d tier=%d/%d blobs",
						name, errClass(err), o.swapped(), e.HostStats().Used, e.TierUsed(), tierBlobs()))
				})
				if tc.restored {
					got, err := o.read()
					if err != nil {
						t.Fatalf("%s: read: %v", kind.name, err)
					}
					for i := range data {
						if math.Float32bits(got[i]) != math.Float32bits(data[i]) {
							t.Fatalf("%s: restored[%d] = %v, want %v", kind.name, i, got[i], data[i])
						}
					}
				} else if !o.swapped() {
					t.Fatalf("%s: payload neither restored nor still swapped", kind.name)
				}
				if err := o.free(); err != nil {
					t.Fatalf("%s: free: %v", kind.name, err)
				}
				if e.Live() != 0 || e.DeviceStats().Used != 0 || e.HostStats().Used != 0 || e.TierUsed() != 0 || tierBlobs() != 0 {
					t.Fatalf("%s: free left live=%d device=%d host=%d tier=%d/%d blobs", kind.name,
						e.Live(), e.DeviceStats().Used, e.HostStats().Used, e.TierUsed(), tierBlobs())
				}
				rep.stats = e.Stats()
				rep.series = payloadSeries(t, e)
				if !tc.wantStats(rep.stats) {
					t.Errorf("%s: stats %+v", kind.name, rep.stats)
				}
				reports = append(reports, rep)
				_ = e.Close()
			}
			h, p := reports[0], reports[1]
			if strings.Join(h.steps, "\n") != strings.Join(p.steps, "\n") {
				t.Errorf("steps differ\nhandle:\n  %s\npool:\n  %s",
					strings.Join(h.steps, "\n  "), strings.Join(p.steps, "\n  "))
			}
			if h.stats != p.stats {
				t.Errorf("stats differ\nhandle: %+v\npool:   %+v", h.stats, p.stats)
			}
			if h.series != p.series {
				t.Errorf("series differ\nhandle:\n%s\npool:\n%s", h.series, p.series)
			}
		})
	}
}

// errClass names an outcome by the sentinels callers branch on.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, faultinject.ErrInjected):
		return "injected"
	case errors.Is(err, ErrVerification), errors.Is(err, compress.ErrCorrupt), errors.Is(err, compress.ErrTruncated):
		return "corrupt"
	}
	return err.Error()
}

// payloadSeries fingerprints the registry series a stored payload moves:
// every codec-labeled series (counter values, histogram counts — timing
// sums legitimately differ) and the arena's buffer accounting, which must
// also balance: every buffer drawn was returned once the payload is freed.
func payloadSeries(t *testing.T, e *Executor) string {
	t.Helper()
	snap := e.Registry().Snapshot()
	var lines []string
	for _, c := range snap.Counters {
		if codec, ok := c.Labels["codec"]; ok && c.Value != 0 {
			lines = append(lines, fmt.Sprintf("%s{%s} = %v", c.Name, codec, c.Value))
		}
		if strings.HasPrefix(c.Name, "executor_arena_") {
			lines = append(lines, fmt.Sprintf("%s %v = %v", c.Name, c.Labels, c.Value))
		}
	}
	for _, h := range snap.Histograms {
		if codec, ok := h.Labels["codec"]; ok && h.Count != 0 {
			lines = append(lines, fmt.Sprintf("%s{%s} count = %d", h.Name, codec, h.Count))
		}
	}
	sort.Strings(lines)
	gets := e.arena.hits.Value() + e.arena.misses.Value()
	if puts := e.arena.puts.Value(); puts < gets {
		t.Errorf("arena drew %v buffers but got %v back", gets, puts)
	}
	return strings.Join(lines, "\n")
}
