package server_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"cswap/client"
	"cswap/internal/metrics"
	"cswap/internal/server"
	"cswap/internal/tensor"
)

// tunerTestTuner is tuned for test latency, not serving, and every knob
// matters for determinism:
//
//   - The modeled link is glacial (16 KiB/s) so the transfer saving of a
//     good ratio dwarfs probe kernel times, which are wall-clock and
//     inflated ~10x by the race detector. HUF shrinks the dense probe by
//     only ~10 %, which on a 64 KiB tensor saves ~0.8 s of modeled
//     transfer out and back: the HUF verdict holds until one probe's
//     encode+decode takes that long (~14 ms unloaded under -race; at
//     128 KiB/s one ~100 ms scheduler stall was enough to turn it raw).
//   - The probe matches the swapped tensors' size (scale factor 1), so
//     kernel-time extrapolation adds no noise.
//
// The launch is the one the server boots with: at 64 KiB these tensors and
// the probe are one chunk at every grid (compress.ChunkCount).
func tunerTestTuner() server.TunerConfig {
	return server.TunerConfig{
		Enabled:         true,
		Interval:        20 * time.Millisecond,
		MinSwaps:        2,
		DriftThreshold:  0.15,
		LinkBytesPerSec: 16 << 10,
		ProbeElems:      16384,
	}
}

// TestTunerSwitchesCodecOnDrift is the tuning loop end to end: a tenant
// swapping dense tensors through the Auto selector gets a Huffman verdict
// (the codec the selection bug excluded), and when the same tenant's
// workload turns sparse the tuner notices the drift and switches its
// codec — all of it visible in the registry behind /metrics.
func TestTunerSwitchesCodecOnDrift(t *testing.T) {
	s, url := newTestServer(t, server.WithTuner(tunerTestTuner()))
	c := client.New(url)
	ctx := context.Background()

	gen := tensor.NewGenerator(7)
	dense := gen.Uniform(16384, 0).Data
	if err := c.Register(ctx, "dense0", dense); err != nil {
		t.Fatal(err)
	}

	// cycle swaps one tensor out through Auto and back in, feeding the
	// tenant profile one observation per call.
	cycle := func(name string) {
		t.Helper()
		if err := c.SwapOut(ctx, name); err != nil {
			t.Fatalf("swap-out %s: %v", name, err)
		}
		if _, err := c.SwapIn(ctx, name); err != nil {
			t.Fatalf("swap-in %s: %v", name, err)
		}
	}

	// driveUntil keeps swapping until the counter reaches min or the
	// deadline passes (the tuner ticks on its own clock, so the workload
	// must stay live while we wait).
	driveUntil := func(name, counter string, min float64, labels ...metrics.Label) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			cycle(name)
			if counterValue(t, s, counter, labels...) >= min {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		snap := s.Registry().Snapshot()
		for _, c := range snap.Counters {
			if strings.HasPrefix(c.Name, "server_tuner") || strings.HasPrefix(c.Name, "server_auto") ||
				strings.HasPrefix(c.Name, "costmodel") {
				t.Logf("%s %v = %v", c.Name, c.Labels, c.Value)
			}
		}
		t.Fatalf("%s%v never reached %v", counter, labels, min)
	}

	// Phase 1: dense workload → the tuner's verdict must be Huffman, the
	// codec BestRatioAlgorithm's off-by-one exclusion could never pick.
	driveUntil("dense0", "server_tuner_verdicts_total", 1,
		metrics.L("tenant", "default"), metrics.L("codec", "HUF"))

	// The verdict steers real traffic: subsequent Auto swap-outs move
	// Huffman-compressed bytes through the executor.
	driveUntil("dense0", "server_auto_codec_total", 1,
		metrics.L("tenant", "default"), metrics.L("codec", "HUF"))
	if v, _ := s.Registry().Snapshot().Counter("executor_moved_bytes_by_codec_total",
		metrics.L("codec", "HUF")); v <= 0 {
		t.Errorf("executor_moved_bytes_by_codec_total{codec=HUF} = %v, want > 0", v)
	}

	// Phase 2: the workload turns sparse. The EWMA profile drifts past the
	// threshold within a few swaps and the tuner must switch the codec.
	if err := c.Free(ctx, "dense0"); err != nil {
		t.Fatal(err)
	}
	sparse := gen.Uniform(16384, 0.95).Data
	if err := c.Register(ctx, "sparse0", sparse); err != nil {
		t.Fatal(err)
	}
	// The EWMA converges toward 0.95 over a few swaps; once it does, ZVC's
	// measured ratio beats every other codec, so requiring a ZVC verdict
	// (not merely "the verdict changed") proves a genuine codec switch.
	driveUntil("sparse0", "server_tuner_verdicts_total", 1,
		metrics.L("tenant", "default"), metrics.L("codec", "ZVC"))
	if v := counterValue(t, s, "server_tuner_codec_switches_total",
		metrics.L("tenant", "default")); v < 1 {
		t.Errorf("server_tuner_codec_switches_total = %v, want >= 1", v)
	}

	// The whole loop is observable where an operator looks: /metrics.
	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"server_tuner_verdicts_total",
		"server_tuner_codec_switches_total",
		"server_tuner_sparsity",
		"server_auto_codec_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
}

// TestTunerSeesBlockPoolTraffic pins the evidence the tuner's realized-cost
// guard reads for a KV-only tenant: block-pool runs ride the same stored-
// payload path as tensors, so once the tuner has picked a codec for a
// tenant that only ever moves block batches, that codec's executor series
// — encode time and moved bytes — have advanced.
func TestTunerSeesBlockPoolTraffic(t *testing.T) {
	s, url := newTestServer(t, server.WithTuner(tunerTestTuner()))
	c := client.New(url)
	ctx := context.Background()

	const elems, blocks = 1024, 16
	ids := make([]int, blocks)
	for i := range ids {
		ids[i] = i
	}
	if err := c.RegisterPool(ctx, "kv", elems, blocks); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBlocks(ctx, "kv", ids, tensor.NewGenerator(5).Uniform(elems*blocks, 0).Data); err != nil {
		t.Fatal(err)
	}
	huf := []metrics.Label{metrics.L("tenant", "default"), metrics.L("codec", "HUF")}
	deadline := time.Now().Add(15 * time.Second)
	for counterValue(t, s, "server_tuner_verdicts_total", huf...) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the tuner never issued a verdict for the KV-only tenant")
		}
		if err := c.SwapOutBlocks(ctx, "kv", ids); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SwapInBlocks(ctx, "kv", ids); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := s.Registry().Snapshot()
	if v, _ := snap.Counter("executor_moved_bytes_by_codec_total", metrics.L("codec", "HUF")); v <= 0 {
		t.Errorf("executor_moved_bytes_by_codec_total{codec=HUF} = %v, want > 0", v)
	}
	encodes := int64(0)
	for _, h := range snap.Histograms {
		if h.Name == "executor_encode_seconds" && h.Labels["codec"] == "HUF" {
			encodes = h.Count
		}
	}
	if encodes == 0 {
		t.Error("executor_encode_seconds{codec=HUF} recorded no block-run encode")
	}
}

// TestAutoWithoutTunerFallsBack proves Auto is safe with tuning off: the
// service resolves it per tensor from the analytic ratio model, so a dense
// tensor compresses with Huffman and round-trips bit-exactly.
func TestAutoWithoutTunerFallsBack(t *testing.T) {
	s, url := newTestServer(t)
	c := client.New(url)
	ctx := context.Background()

	data := tensor.NewGenerator(3).Uniform(4096, 0).Data
	want := append([]float32(nil), data...)
	if err := c.Register(ctx, "t0", data); err != nil {
		t.Fatal(err)
	}
	if err := c.SwapOut(ctx, "t0"); err != nil {
		t.Fatal(err)
	}
	got, err := c.SwapIn(ctx, "t0")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if v := counterValue(t, s, "server_auto_codec_total",
		metrics.L("tenant", "default"), metrics.L("codec", "HUF")); v != 1 {
		t.Errorf("server_auto_codec_total{codec=HUF} = %v, want 1 (dense fallback is Huffman)", v)
	}
}
