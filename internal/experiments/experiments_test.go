package experiments

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cswap/internal/dnn"
)

func TestFig1ShapeMatchesPaper(t *testing.T) {
	r, err := Fig1(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	// Sizes span 1568 MB down to the FC tensors; the conv-block range the
	// paper quotes is 1568 → 49 MB.
	if r.SizesMB[0] < 1500 || r.SizesMB[0] > 1600 {
		t.Errorf("first layer size %v MB, want ≈1568", r.SizesMB[0])
	}
	found49 := false
	for _, s := range r.SizesMB {
		if s > 48 && s < 50 {
			found49 = true
		}
	}
	if !found49 {
		t.Error("no ≈49 MB tensor found")
	}
	// All window means within the 20–80 % band (±wobble).
	for i, layer := range r.Layers {
		for _, mu := range r.WindowMeans[i] {
			if mu < 0.18 || mu > 0.84 {
				t.Errorf("%s window mean %v outside band", layer, mu)
			}
		}
	}
	if !strings.Contains(r.String(), "Figure 1") {
		t.Error("render missing caption")
	}
}

func TestFig2TimelineRenders(t *testing.T) {
	out, err := Fig2Timeline(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Figure 2(a)", "Figure 2(b)", "compute", "d2h", "h2d"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q", want)
		}
	}
	// The SC flow must show compression marks.
	if !strings.Contains(out, "C") {
		t.Error("no compression spans in SC timeline")
	}
}

func TestFig3StaticCompressionSometimesWorse(t *testing.T) {
	r, err := Fig3(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: compression ≈30 % of swapping latency under SC. Our kernel
	// calibration (Figure 5 anchors against the measured link bandwidths)
	// lands somewhat above that; require the same order of magnitude.
	if share := r.CodecShare(); share < 0.15 || share > 0.55 {
		t.Errorf("codec share %v, paper reports ≈0.30", share)
	}
	// Some layers must be worse with static compression, but not all.
	worse := r.WorseThanRaw()
	if len(worse) == 0 {
		t.Error("static compression should hurt some layers (MAX/ReLU small-dense)")
	}
	if len(worse) == len(r.Rows) {
		t.Error("static compression should help some layers too")
	}
}

func TestFig5SurfaceShape(t *testing.T) {
	r, err := Fig5(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	// Paper anchors for block 64 (±ripple & sampling slack).
	if v := r.At(10, 64); v < 135 || v > 160 {
		t.Errorf("t(10,64) = %v ms, paper ≈146", v)
	}
	if v := r.At(197, 64); v < 40 || v > 49 {
		t.Errorf("t(197,64) = %v ms, paper ≈44", v)
	}
	if v := r.At(1024, 64); v < 138 || v > 162 {
		t.Errorf("t(1024,64) = %v ms, paper ≈150", v)
	}
	// U-shape: ends higher than the best.
	best := r.Best(64)
	if !(r.At(1, 64) > best.TotalMS && r.At(4096, 64) > best.TotalMS) {
		t.Error("surface not U-shaped")
	}
	if best.Grid < 40 || best.Grid > 400 {
		t.Errorf("block-64 optimum at grid %d, expect mid-range", best.Grid)
	}
}

func TestFig6FrameworkOrdering(t *testing.T) {
	r, err := Fig6(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Platforms) != 4 {
		t.Fatalf("platforms = %d, want 4", len(r.Platforms))
	}
	for _, p := range r.Platforms {
		for _, m := range p.Models() {
			cswap := p.NormalizedThroughput(m, "CSWAP")
			vdnnpp := p.NormalizedThroughput(m, "vDNN++")
			orac := p.NormalizedThroughput(m, "Orac")
			if cswap < 0.97 {
				t.Errorf("%s/%s %s: CSWAP %v below vDNN", p.GPU, p.Dataset, m, cswap)
			}
			if vdnnpp >= 0.85 {
				t.Errorf("%s/%s %s: vDNN++ %v should be well below vDNN", p.GPU, p.Dataset, m, vdnnpp)
			}
			if orac < cswap-1e-9 {
				t.Errorf("%s/%s %s: Orac %v below CSWAP %v", p.GPU, p.Dataset, m, orac, cswap)
			}
		}
	}
	// Plain20 OOM on 2080Ti/ImageNet (Figure 6d).
	d := r.Platform("2080Ti", "ImageNet")
	if d == nil {
		t.Fatal("missing 2080Ti/ImageNet platform")
	}
	oom := false
	for _, m := range d.OOM {
		if m == "Plain20" {
			oom = true
		}
	}
	if !oom {
		t.Error("Plain20 should be OOM on 2080Ti/ImageNet")
	}
	// CSWAP over vDNN is material on V100/CIFAR10 (paper: 25 % average).
	v := r.Platform("V100", "CIFAR10")
	var sum float64
	for _, m := range v.Models() {
		sum += v.NormalizedThroughput(m, "CSWAP")
	}
	if avg := sum / float64(len(v.Models())); avg < 1.05 {
		t.Errorf("V100/CIFAR10 mean CSWAP speedup %v, want ≥ 1.05", avg)
	}
}

func TestFig7SelectiveVersusStatic(t *testing.T) {
	r, err := Fig7(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	// CSWAP ≥ SC on average per GPU (paper: +5.5 % / +5.1 %); Plain20 is
	// the tie/crossover case.
	if m := r.MeanImprovement("2080Ti"); m < 0.0 {
		t.Errorf("2080Ti mean improvement %v, want ≥ 0", m)
	}
	if m := r.MeanImprovement("V100"); m < -0.02 {
		t.Errorf("V100 mean improvement %v, want ≈ 0 or better", m)
	}
	// Plain20 ≈ SC: |improvement| small (paper: equal).
	imp := r.Improvement("V100", "CIFAR10", "Plain20")
	if imp > 0.05 || imp < -0.08 {
		t.Errorf("Plain20 improvement %v, paper reports parity with SC", imp)
	}
}

func TestFig8CompressedLayersGrow(t *testing.T) {
	r, err := Fig8(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"AlexNet", "VGG16"} {
		counts := r.Models[model]
		if counts[len(counts)-1] <= counts[0] {
			t.Errorf("%s compressed layers did not grow: %d → %d",
				model, counts[0], counts[len(counts)-1])
		}
	}
	// MobileNet stays roughly stable (its sparsity is flat).
	mob := r.Models["MobileNet"]
	lo, hi := mob[0], mob[0]
	for _, c := range mob {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi-lo > 6 {
		t.Errorf("MobileNet count varies %d..%d, expected near-flat", lo, hi)
	}
}

func TestFig9MatrixProperties(t *testing.T) {
	r, err := Fig9(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.CountAt(r.Epochs-1) <= r.CountAt(0) {
		t.Errorf("compressed layers %d → %d, expected growth (paper: 5 → 9)",
			r.CountAt(0), r.CountAt(r.Epochs-1))
	}
	// Some layers are never compressed (paper: MAX4, ReLU7, ReLU8).
	never := r.NeverCompressed()
	if len(never) == 0 {
		t.Error("expected some never-compressed layers")
	}
	// MAX4 (low sparsity) must be among them.
	foundMax4 := false
	for _, n := range never {
		if n == "MAX4" {
			foundMax4 = true
		}
	}
	if !foundMax4 {
		t.Errorf("MAX4 should never be compressed; never-set = %v", never)
	}
	if !strings.Contains(r.String(), "#") {
		t.Error("rendered matrix has no compressed cells")
	}
}

func TestFig10LRWins(t *testing.T) {
	r, err := Fig10(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	lr := r.RAE("LR")
	if lr > 0.06 {
		t.Errorf("LR RAE %v, paper ≈3%%", lr)
	}
	for _, other := range []string{"BR", "SVM", "DT"} {
		if lr >= r.RAE(other) {
			t.Errorf("LR (%v) should beat %s (%v)", lr, other, r.RAE(other))
		}
	}
}

func TestFig11AccuracyNearPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running: 6 models × 50 epochs of flip simulations")
	}
	r, err := Fig11(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Models) != len(dnn.ModelNames()) {
		t.Fatalf("models = %d", len(r.Models))
	}
	if m := r.Mean(); m < 0.85 || m > 0.99 {
		t.Errorf("mean accuracy %v, paper reports 94.2%%", m)
	}
}

func TestFig12StrategyOrdering(t *testing.T) {
	r, err := Fig12(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	rd, ep, bo, gs := r.Row("RD"), r.Row("EP"), r.Row("BO"), r.Row("GS")
	if !(gs.CodecMS <= bo.CodecMS*1.02 && bo.CodecMS < ep.CodecMS) {
		t.Errorf("codec times GS=%v BO=%v EP=%v RD=%v violate ordering",
			gs.CodecMS, bo.CodecMS, ep.CodecMS, rd.CodecMS)
	}
	if ratio := r.SearchCostRatio(); ratio < 200 || ratio > 260 {
		t.Errorf("search cost ratio %v, paper ≈224×", ratio)
	}
	if gs.SearchEvaluations != 8192 {
		t.Errorf("GS evaluations = %d", gs.SearchEvaluations)
	}
}

func TestOverheadsSmall(t *testing.T) {
	r, err := Overheads(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.SparsityProbeMS <= 0 || r.SparsityProbeMS > 60 {
		t.Errorf("sparsity probe %v ms", r.SparsityProbeMS)
	}
	if r.PredictionLatency <= 0 || r.PredictionLatency.Milliseconds() > 1 {
		t.Errorf("prediction latency %v, paper ≤ 1 ms", r.PredictionLatency)
	}
	if r.BOEvaluations != 35 {
		t.Errorf("BO evaluations = %d", r.BOEvaluations)
	}
	if r.BOModeledSeconds <= 0 || r.BOModeledSeconds > 120 {
		t.Errorf("BO modeled seconds %v (paper ≈50 s)", r.BOModeledSeconds)
	}
}

func TestHeadlineMetrics(t *testing.T) {
	r, err := Headline(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	// Paper: swap latency down up to 50.9 % (V100) / 47.6 % (2080Ti);
	// training time down on average. Require the right direction and a
	// material magnitude.
	if r.SwapLatencyReduction["V100"] < 0.15 {
		t.Errorf("V100 max swap-latency reduction %v, want material", r.SwapLatencyReduction["V100"])
	}
	if r.SwapLatencyReduction["2080Ti"] < 0.10 {
		t.Errorf("2080Ti max swap-latency reduction %v", r.SwapLatencyReduction["2080Ti"])
	}
	if r.TrainingTimeReductionMean < 0.02 {
		t.Errorf("mean training-time reduction %v", r.TrainingTimeReductionMean)
	}
	if r.TrainingTimeReductionMax < 0.10 {
		t.Errorf("max training-time reduction %v", r.TrainingTimeReductionMax)
	}
}

func TestFastConfigDefaults(t *testing.T) {
	c := Fast(7).withDefaults()
	if c.SamplesPerAlg >= 3000 || c.Epochs != 50 {
		t.Errorf("fast config unexpected: %+v", c)
	}
	grid := c.epochGrid()
	if len(grid) == 0 || grid[0] != 0 {
		t.Errorf("epoch grid %v", grid)
	}
}

func TestLinkSweepCompressionCrossover(t *testing.T) {
	r, err := LinkSweep(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Slower links mean more exposed transfer, more compression, bigger
	// CSWAP wins; by NVLink speeds the advisor stops compressing and the
	// speedup decays to ~1 — the Section II-C argument quantified.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].SpeedupOverVDNN > r.Points[i-1].SpeedupOverVDNN+0.02 {
			t.Fatalf("speedup not decaying with bandwidth: %+v", r.Points)
		}
		if r.Points[i].CompressedTensors > r.Points[i-1].CompressedTensors {
			t.Fatalf("compression count not decaying: %+v", r.Points)
		}
		if r.Points[i].StallShare >= r.Points[i-1].StallShare {
			t.Fatalf("stall share not decaying: %+v", r.Points)
		}
	}
	slow, fast := r.Points[0], r.Points[len(r.Points)-1]
	if slow.SpeedupOverVDNN < 1.2 {
		t.Fatalf("half-bandwidth speedup %v, want substantial", slow.SpeedupOverVDNN)
	}
	if fast.SpeedupOverVDNN > 1.02 || fast.SpeedupOverVDNN < 0.98 {
		t.Fatalf("NVLink speedup %v, want ≈1 (advisor stops compressing)", fast.SpeedupOverVDNN)
	}
	if fast.CompressedTensors != 0 {
		t.Fatalf("NVLink compressed %d tensors, want 0", fast.CompressedTensors)
	}
}

func TestAdvisorFavorsZVC(t *testing.T) {
	// Section IV-E: "Because PCIe bandwidth is limited, we observe that
	// CSWAP favors the most efficient algorithm (i.e., ZVC)."
	cfg := Fast(1)
	zvc, other := 0, 0
	for _, model := range dnn.ModelNames() {
		fw, _, err := cfg.newFramework(model, "V100", dnn.ImageNet)
		if err != nil {
			t.Fatal(err)
		}
		for epoch := 0; epoch < 50; epoch += 10 {
			decs, algs, _, err := fw.DecisionsAt(epoch)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range decs {
				if !d.Compress {
					continue
				}
				if algs[i].String() == "ZVC" {
					zvc++
				} else {
					other++
				}
			}
		}
	}
	if zvc == 0 {
		t.Fatal("no compression decisions at all")
	}
	if share := float64(zvc) / float64(zvc+other); share < 0.9 {
		t.Fatalf("ZVC share of compression decisions = %v, paper says ZVC dominates", share)
	}
}

func TestSectionKeysAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Sections {
		if s.Key == "" || seen[s.Key] {
			t.Errorf("section %q: key %q is empty or repeated", s.Title, s.Key)
		}
		seen[s.Key] = true
	}
}

func TestWriteAllCSV(t *testing.T) {
	dir := t.TempDir()
	if err := WriteAllCSV(Fast(1), dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig1.csv", "fig5.csv", "fig6.csv", "fig8.csv", "fig9.csv", "fig12.csv"} {
		path := filepath.Join(dir, name)
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("%s missing: %v", name, err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s unreadable: %v", name, err)
		}
		if len(rows) < 3 {
			t.Fatalf("%s has only %d rows", name, len(rows))
		}
		width := len(rows[0])
		for i, r := range rows {
			if len(r) != width {
				t.Fatalf("%s row %d ragged", name, i)
			}
		}
	}
}

func TestHeadlineStatsStableAcrossSeeds(t *testing.T) {
	r, err := HeadlineStats(Fast(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Seeds) != 3 {
		t.Fatalf("seeds = %d", len(r.Seeds))
	}
	mean, std := r.Summary(r.TrainReductionMean)
	if mean <= 0.02 {
		t.Fatalf("mean training reduction %v", mean)
	}
	// The jitter is 1 %; the metric must not swing wildly across seeds.
	if std > mean/2 {
		t.Fatalf("training reduction unstable: %v ± %v", mean, std)
	}
	if !strings.Contains(r.String(), "±") {
		t.Fatal("render missing ± summary")
	}
}

func TestExperimentRendersContainKeyFacts(t *testing.T) {
	cfg := Fast(1)
	f6, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := f6.String()
	for _, want := range []string{"Figure 6(a)", "Figure 6(d)", "CSWAP", "Orac", "OOM"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig6 render missing %q", want)
		}
	}
	f7 := &Fig7Result{Platforms: f6.Platforms}
	if !strings.Contains(f7.String(), "Figure 7") {
		t.Error("Fig7 render missing caption")
	}
	f12, err := Fig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out12 := f12.String()
	for _, want := range []string{"RD", "EP", "BO", "GS", "search evals"} {
		if !strings.Contains(out12, want) {
			t.Errorf("Fig12 render missing %q", want)
		}
	}
	ov, err := Overheads(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ov.String(), "sparsity probe") {
		t.Error("overheads render missing probe line")
	}
	h, err := Headline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(h.String(), "swap-latency reduction") {
		t.Error("headline render missing metric")
	}
	ls, err := LinkSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ls.String(), "NVLink2") {
		t.Error("link sweep render missing NVLink row")
	}
}

func TestSparsitySweepCrossover(t *testing.T) {
	r, err := SparsitySweep(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 9 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// Compressed count and speedup are non-decreasing in sparsity.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].CompressedTensors < r.Points[i-1].CompressedTensors {
			t.Fatalf("compressed count fell at sparsity %v", r.Points[i].Sparsity)
		}
		if r.Points[i].SpeedupOverVDNN < r.Points[i-1].SpeedupOverVDNN-0.02 {
			t.Fatalf("speedup fell at sparsity %v", r.Points[i].Sparsity)
		}
	}
	// At 10 % sparsity compression cannot pay; at 90 % it clearly does.
	if r.Points[0].CompressedTensors != 0 {
		t.Fatalf("compressed %d tensors at 10%% sparsity", r.Points[0].CompressedTensors)
	}
	last := r.Points[len(r.Points)-1]
	if last.CompressedTensors < 4 || last.SpeedupOverVDNN < 1.1 {
		t.Fatalf("at 90%%: compressed=%d speedup=%v", last.CompressedTensors, last.SpeedupOverVDNN)
	}
	// The crossover falls inside the paper's 20–80 % operating band.
	if c := r.Crossover(); c < 0.2 || c > 0.8 {
		t.Fatalf("crossover at %v, expected inside the 20–80%% band", c)
	}
	if !strings.Contains(r.String(), "crossover") {
		t.Fatal("render missing crossover")
	}
}

func TestAblationsConsolidated(t *testing.T) {
	r, err := Ablations(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	// The gate: CSWAP no slower than vDNN; SC present.
	vdnn := r.Metric("selective-gate", "vDNN")
	cswapMS := r.Metric("selective-gate", "CSWAP")
	if vdnn < 0 || cswapMS < 0 || cswapMS > vdnn*1.001 {
		t.Fatalf("gate ablation: vDNN=%v CSWAP=%v", vdnn, cswapMS)
	}
	// Tuning: BO beats expert.
	if r.Metric("launch-tuning", "BO-tuned") >= r.Metric("launch-tuning", "expert") {
		t.Fatal("BO-tuned not better than expert")
	}
	// Codec: ZVC-only is the best single-codec restriction.
	zvc := r.Metric("codec-choice", "ZVC-only")
	for _, other := range []string{"RLE-only", "CSR-only", "LZ4-only"} {
		if zvc > r.Metric("codec-choice", other)+1e-9 {
			t.Fatalf("ZVC-only (%v) slower than %s (%v)", zvc, other, r.Metric("codec-choice", other))
		}
	}
	// Pipelining helps the always-compress plan.
	if r.Metric("codec-stream", "pipelined") > r.Metric("codec-stream", "serial") {
		t.Fatal("pipelined codec slower than serial")
	}
	// Eager prefetch never hurts.
	if r.Metric("prefetch-policy", "eager") > r.Metric("prefetch-policy", "one-ahead")+1e-9 {
		t.Fatal("eager prefetch slower")
	}
	// Memory budget: more headroom, faster.
	if r.Metric("memory-budget", "budget=2x") > r.Metric("memory-budget", "swap-everything") {
		t.Fatal("memory budget did not help")
	}
	// Time model: bucketed at least as accurate as the global fit.
	if r.Metric("time-model", "bucketed-LR") > r.Metric("time-model", "global-LR") {
		t.Fatal("bucketed LR worse than global")
	}
	if r.Metric("nope", "x") != -1 {
		t.Fatal("missing metric should be -1")
	}
}

func TestIntroClaims(t *testing.T) {
	r, err := IntroClaims(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	if r.BERTFootprintGB < 70 || r.BERTFootprintGB > 110 {
		t.Fatalf("BERT footprint %.0f GB, paper claims > 70 GB", r.BERTFootprintGB)
	}
	if r.BERTSwapTensors != 0 {
		t.Fatalf("BERT swap tensors = %d, GELU should yield none", r.BERTSwapTensors)
	}
	if r.VGG16FeatureToWeight < 40 || r.VGG16FeatureToWeight > 60 {
		t.Fatalf("feature/weight ratio %.0f, paper says ~50", r.VGG16FeatureToWeight)
	}
	if r.VGG16Batch256FootprintGB <= r.V100MemoryGB {
		t.Fatal("VGG16@256 should exceed V100 memory")
	}
	if !strings.Contains(r.String(), "BERT") {
		t.Fatal("render missing BERT line")
	}
}

func TestRemainingRenders(t *testing.T) {
	cfg := Fast(1)
	f3, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f3.String(), "Figure 3") || !strings.Contains(f3.String(), "codec share") {
		t.Error("Fig3 render")
	}
	f5, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f5.String(), "Figure 5") || !strings.Contains(f5.String(), "best") {
		t.Error("Fig5 render")
	}
	f8, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f8.String(), "Figure 8") || !strings.Contains(f8.String(), "SqueezeNet") {
		t.Error("Fig8 render")
	}
	f10, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(f10.String(), "Figure 10") || !strings.Contains(f10.String(), "SVM") {
		t.Error("Fig10 render")
	}
	ab, err := Ablations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ab.String(), "selective-gate") {
		t.Error("ablations render")
	}
	f11 := &Fig11Result{Models: []string{"VGG16"}, Accuracy: []float64{0.94}}
	if !strings.Contains(f11.String(), "94.0%") {
		t.Error("Fig11 render")
	}
	// Fig5 At() for an unsampled point.
	if f5.At(12345, 64) != -1 {
		t.Error("Fig5 At missing point should be -1")
	}
	// Config defaults at paper scale.
	def := Config{}.withDefaults()
	if def.SamplesPerAlg != 3000 || def.Epochs != 50 || def.EpochStride != 5 {
		t.Errorf("defaults %+v", def)
	}
}

func TestWriteCSVErrorPath(t *testing.T) {
	// Writing into a path that is a file must fail cleanly.
	dir := t.TempDir()
	blocked := filepath.Join(dir, "blocked")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	f5, err := Fig5(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f5.WriteCSV(filepath.Join(blocked, "sub")); err == nil {
		t.Fatal("writing under a file should fail")
	}
}

func TestGenerationSweepGapPersists(t *testing.T) {
	r, err := GenerationSweep(Fast(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	v100 := r.Points[0]
	// Section II-C: compute outpaces the bus, so the exposed-transfer
	// share grows across generations and compression keeps paying.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].StallShare <= v100.StallShare {
			t.Fatalf("%s stall share %v not above V100's %v",
				r.Points[i].Label, r.Points[i].StallShare, v100.StallShare)
		}
		if r.Points[i].SpeedupOverVDNN < v100.SpeedupOverVDNN {
			t.Fatalf("%s speedup %v below V100's %v — compression stopped paying",
				r.Points[i].Label, r.Points[i].SpeedupOverVDNN, v100.SpeedupOverVDNN)
		}
		if r.Points[i].CompressedTensors < v100.CompressedTensors {
			t.Fatalf("%s compresses fewer tensors than the V100", r.Points[i].Label)
		}
	}
	if !strings.Contains(r.String(), "H100") {
		t.Fatal("render missing generations")
	}
}

func TestFig6OrderingRobustToSeed(t *testing.T) {
	// The framework ordering must not be an artifact of one seed.
	r, err := Fig6(Fast(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Platforms {
		for _, m := range p.Models() {
			if p.NormalizedThroughput(m, "CSWAP") < 0.97 {
				t.Errorf("seed 7: %s/%s %s CSWAP below vDNN", p.GPU, p.Dataset, m)
			}
			if p.NormalizedThroughput(m, "Orac") < p.NormalizedThroughput(m, "CSWAP")-1e-9 {
				t.Errorf("seed 7: %s/%s %s Orac below CSWAP", p.GPU, p.Dataset, m)
			}
			if p.NormalizedThroughput(m, "vDNN++") >= 0.85 {
				t.Errorf("seed 7: %s/%s %s vDNN++ too fast", p.GPU, p.Dataset, m)
			}
		}
	}
}
