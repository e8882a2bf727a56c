package executor

import (
	"bytes"
	"context"
	"encoding/binary"
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
// equivalence test can push the same script through both public entry
// points: a tensor Handle (a one-block pool) and a four-block BlockPool
// swapped as one run.
type payloadOwner struct {
	swapOut  func(doCompress bool, alg compress.Algorithm) error
	swapIn   func() error
	prefetch func() error
	demote   func() error
	swapped  func() bool
	record   func() *stored // the payload's record; read only while swapped
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
		prefetch: func() error { return e.PrefetchCtx(context.Background(), h).Wait() },
		demote:   func() error { return e.Demote(h) },
		swapped:  func() bool { return h.State() == Swapped },
		record:   func() *stored { return storedOf(h) },
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
		swapOut: func(c bool, a compress.Algorithm) error { return p.SwapOutBlocks(ids, c, a) },
		swapIn:  func() error { return p.SwapInBlocks(ids) },
		prefetch: func() error {
			return p.Swap(context.Background(), "batch-prefetch", CoalesceBlockIDs(ids), len(ids), false, 0)
		},
		demote:  func() error { _, err := p.demoteRun(BlockRun{Start: 0, Count: blocks}); return err },
		swapped: func() bool { return p.BlockState(0) == Swapped },
		record: func() *stored {
			p.mu.Lock()
			defer p.mu.Unlock()
			return &p.run[0].stored
		},
		read: func() ([]float32, error) { return p.ReadBlocks(ids) },
		free: p.Free,
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
//
// The raw rows hold the raw path — a copy of the payload's byte view — to
// the element-by-element little-endian serialisation it replaced: whatever
// the payload (−0, NaN bit patterns, all zeros, dense, empty), the stored
// blob, in the host pool or in its tier file, is that image on a
// little-endian host, and the restore is bit-exact everywhere.
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
	type payloadCase struct {
		name      string
		faults    []faultinject.Fault
		tiered    bool
		script    script
		wantStats func(Stats) bool
		restored  bool      // the script ends with the payload resident
		raw       []float32 // a raw row's payload; nil rows store `data`
	}
	cases := []payloadCase{
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
	patterned := func(bits func(i int) uint32) []float32 {
		out := append([]float32(nil), data...)
		for i := 0; i < len(out); i += 7 {
			out[i] = math.Float32frombits(bits(i))
		}
		return out
	}
	for _, raw := range []struct {
		name string
		data []float32
	}{
		{"negative zeros", patterned(func(int) uint32 { return 0x80000000 })},
		{"NaN payloads", patterned(func(i int) uint32 { return 0x7FC00000 | uint32(i) | uint32(i%2)<<31 })},
		{"all-zero", make([]float32, len(data))},
		{"dense", tensor.NewGenerator(10).Uniform(len(data), 0).Data},
		// Handles only (a block pool cannot be empty), host pool only: what
		// an empty payload asks of the tier path — a zero-byte arena draw that
		// is not counted — TestArenaSizeClasses pins.
		{"empty", []float32{}},
	} {
		cases = append(cases, payloadCase{name: "raw " + raw.name, raw: raw.data, restored: true,
			script: func(o payloadOwner, step func(string, error)) {
				step("swap-out", o.swapOut(false, 0))
				step("swap-in", o.swapIn())
			},
			wantStats: func(s Stats) bool {
				return s.SwapIns == 1 && s.CompressedTensors == 0 && s.Fallbacks() == 0 && s.MovedBytes == s.RawBytes
			}})
		if len(raw.data) == 0 {
			continue
		}
		cases = append(cases,
			payloadCase{name: "raw " + raw.name + " through the tier", raw: raw.data, tiered: true, restored: true,
				script: func(o payloadOwner, step func(string, error)) {
					step("swap-out", o.swapOut(false, 0))
					step("demote", o.demote())
					step("swap-in", o.swapIn())
				},
				wantStats: func(s Stats) bool {
					return s.SwapIns == 1 && s.CompressedTensors == 0 && s.TierDemotions == 1 && s.TierPromotions == 1
				}})
	}
	// littleEndian is the raw blob every version of the raw path has stored
	// on a little-endian host.
	littleEndian := func(data []float32) []byte {
		img := make([]byte, 4*len(data))
		for i, v := range data {
			binary.LittleEndian.PutUint32(img[4*i:], math.Float32bits(v))
		}
		return img
	}
	hostIsLE := binary.NativeEndian.Uint16([]byte{1, 0}) == 1
	kinds := []struct {
		name string
		own  func(*testing.T, *Executor, []float32) payloadOwner
	}{{"handle", handleOwner}, {"pool", poolOwner}}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, kinds := data, kinds
			if tc.raw != nil {
				data = tc.raw
			}
			if len(data) == 0 {
				kinds = kinds[:1]
			}
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
					if tc.raw == nil || !hostIsLE || !o.swapped() {
						return
					}
					rec := o.record()
					blob := rec.blob
					if rec.tiered {
						if blob, err = e.tier.Get(rec.tierKey, nil); err != nil {
							t.Fatalf("%s: after %s: reading the tier file: %v", kind.name, name, err)
						}
					}
					if !bytes.Equal(blob, littleEndian(data)) {
						t.Errorf("%s: after %s: stored raw blob (tiered=%v) is not the payload's little-endian image",
							kind.name, name, rec.tiered)
					}
				})
				if tc.restored {
					got, err := o.read()
					if err != nil {
						t.Fatalf("%s: read: %v", kind.name, err)
					}
					if !sameBits(got, data) {
						t.Fatalf("%s: restored payload differs from the original", kind.name)
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
			if len(reports) == 1 {
				return
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
	}
	for _, h := range snap.Histograms {
		if codec, ok := h.Labels["codec"]; ok && h.Count != 0 {
			lines = append(lines, fmt.Sprintf("%s{%s} count = %d", h.Name, codec, h.Count))
		}
	}
	sort.Strings(lines)
	// Draws are counted whole: whether one hit or missed is sync.Pool's
	// per-P business, not the payload path's.
	gets, puts := e.arena.hits.Value()+e.arena.misses.Value(), e.arena.puts.Value()
	if puts < gets {
		t.Errorf("arena drew %v buffers but got %v back", gets, puts)
	}
	lines = append(lines, fmt.Sprintf("arena gets = %v, puts = %v", gets, puts))
	return strings.Join(lines, "\n")
}

// sameBits reports whether two payloads agree bit for bit — the only
// equality that tells −0 from +0 and one NaN from another.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSignedZeroAndNaNPayloadsSwapBack: a tensor is opaque data. −0 and NaN
// payload bits must survive every codec and the raw path with Verify on —
// the sparsity codecs once elided −0 as a zero, the restore came back +0,
// failed verification twice, and left the tensor stuck Swapped.
func TestSignedZeroAndNaNPayloadsSwapBack(t *testing.T) {
	data := tensor.NewGenerator(41).Uniform(4096, 0.6).Data
	for i := 0; i < len(data); i += 97 {
		data[i] = math.Float32frombits(0x80000000)
		data[i+1] = math.Float32frombits(0x7FC00000 | uint32(i))
		data[i+2] = math.Float32frombits(0xFF800001 + uint32(i))
	}
	type mode struct {
		name     string
		compress bool
		alg      compress.Algorithm
	}
	modes := []mode{{name: "raw"}}
	for _, a := range compress.ExtendedAlgorithms() {
		modes = append(modes, mode{a.String(), true, a})
	}
	for kind, owner := range map[string]func(*testing.T, *Executor, []float32) payloadOwner{
		"handle": handleOwner, "pool": poolOwner,
	} {
		for _, m := range modes {
			e := newTestExecutor(t, 1<<22, 1<<22)
			o := owner(t, e, data)
			if err := o.swapOut(m.compress, m.alg); err != nil {
				t.Fatalf("%s %s: swap-out: %v", kind, m.name, err)
			}
			if err := o.swapIn(); err != nil {
				t.Fatalf("%s %s: swap-in: %v", kind, m.name, err)
			}
			got, err := o.read()
			if err != nil || !sameBits(got, data) {
				t.Fatalf("%s %s: restored payload differs (err %v)", kind, m.name, err)
			}
			if st := e.Stats(); st.Verified != 1 || st.Fallbacks() != 0 {
				t.Fatalf("%s %s: stats %+v", kind, m.name, st)
			}
		}
	}
}

// TestDigestTakenAtSwapOut: Handle.Data hands out the live slice, so the
// owner may rewrite the tensor in place between Register and SwapOut. The
// digest a restore is verified against must be of what was stored, not of
// what was registered.
func TestDigestTakenAtSwapOut(t *testing.T) {
	for _, doCompress := range []bool{true, false} {
		e := newTestExecutor(t, 1<<22, 1<<22)
		h, err := e.Register("x", tensor.NewGenerator(43).Uniform(20000, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		if rec := storedOf(h); rec != nil && rec.checksum != 0 {
			t.Fatal("Register took a digest")
		}
		live, err := h.Data()
		if err != nil {
			t.Fatal(err)
		}
		for i := range live {
			live[i] = float32(i%7) - 3
		}
		want := append([]float32(nil), live...)
		if err := e.SwapOut(h, doCompress, compress.ZVC); err != nil {
			t.Fatal(err)
		}
		if err := e.SwapIn(h); err != nil {
			t.Fatalf("compress=%v: swap-in of a tensor updated in place: %v", doCompress, err)
		}
		if got, _ := h.Data(); !sameBits(got, want) {
			t.Fatalf("compress=%v: restored payload is not the updated one", doCompress)
		}
	}
}

// TestVerifyOffTakesNoDigest: with Verify off nothing on the swap path
// reads the payload a second time — no digest is taken at Register or at
// swap-out, for a tensor or a block run, and no restore counts as verified.
func TestVerifyOffTakesNoDigest(t *testing.T) {
	data := tensor.NewGenerator(47).Uniform(4096, 0.5).Data
	for _, verify := range []bool{false, true} {
		e, err := New(Config{DeviceCapacity: 1 << 22, HostCapacity: 1 << 22, Verify: verify})
		if err != nil {
			t.Fatal(err)
		}
		h, err := e.Register("x", tensor.FromSlice(append([]float32(nil), data...)))
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.RegisterBlockPool("kv", len(data), 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.WriteBlocks([]int{0}, data); err != nil {
			t.Fatal(err)
		}
		if err := e.SwapOut(h, true, compress.ZVC); err != nil {
			t.Fatal(err)
		}
		if err := p.SwapOutBlocks([]int{0}, true, compress.ZVC); err != nil {
			t.Fatal(err)
		}
		p.mu.Lock()
		runDigest := p.run[0].checksum
		p.mu.Unlock()
		handleDigest := storedOf(h).checksum
		if took := handleDigest != 0 || runDigest != 0; took != verify {
			t.Fatalf("Verify=%v: digests taken: handle %#x, run %#x", verify, handleDigest, runDigest)
		}
		if verify && handleDigest != runDigest {
			t.Fatalf("one payload, two digests: handle %#x, run %#x", handleDigest, runDigest)
		}
		if err := e.SwapIn(h); err != nil {
			t.Fatal(err)
		}
		if err := p.SwapInBlocks([]int{0}); err != nil {
			t.Fatal(err)
		}
		if got, want := e.Stats().Verified, map[bool]int{false: 0, true: 2}[verify]; got != want {
			t.Fatalf("Verify=%v: %d restores counted verified, want %d", verify, got, want)
		}
	}
}
