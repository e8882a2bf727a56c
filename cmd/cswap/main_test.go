package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cswap"
	"cswap/internal/experiments"
)

// TestObservedRunExportsConsistentMetrics is the end-to-end acceptance
// check: one `cswap sim -metrics -trace` run must produce a JSON-lines
// snapshot whose per-stream busy totals equal the run's SimResult, and a
// Chrome trace Perfetto can load (a JSON array of complete events).
func TestObservedRunExportsConsistentMetrics(t *testing.T) {
	dir := t.TempDir()
	metricsPath := filepath.Join(dir, "out.jsonl")
	tracePath := filepath.Join(dir, "out.json")

	var out bytes.Buffer
	err := run([]string{
		"sim", "-metrics", metricsPath, "-trace", tracePath,
		"-model", "AlexNet", "-gpu", "V100", "-dataset", "ImageNet",
		"-epoch", "5", "-seed", "7", "-samples", "300",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}

	// Recompute the same deterministic run through the public API; the
	// exported counters must match its SimResult exactly.
	d, err := cswap.DeviceByName("V100")
	if err != nil {
		t.Fatal(err)
	}
	batch, err := cswap.BatchSize("AlexNet", d.Name, cswap.ImageNet)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cswap.BuildModel("AlexNet", cswap.ImageNet, batch)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := cswap.NewFramework(cswap.Config{Model: m, Device: d, Seed: 7, SamplesPerAlg: 300})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fw.SimulateIteration(5, cswap.NewSimOptions(cswap.WithSeed(7)))
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snap, err := cswap.ParseMetricsJSONLines(f)
	if err != nil {
		t.Fatalf("exported JSONL does not parse: %v", err)
	}

	for _, tc := range []struct {
		stream string
		want   float64
	}{
		{"compute", want.ComputeBusy},
		{"kernel", want.KernelBusy},
		{"d2h", want.D2HBusy},
		{"h2d", want.H2DBusy},
	} {
		v, ok := snap.Counter("sim_stream_busy_seconds_total", cswap.MetricLabel("stream", tc.stream))
		if !ok {
			t.Fatalf("no sim_stream_busy_seconds_total{stream=%q} in export", tc.stream)
		}
		if math.Abs(v-tc.want) > 1e-9*math.Max(1, tc.want) {
			t.Fatalf("busy[%s] = %v, SimResult says %v", tc.stream, v, tc.want)
		}
	}
	if v, ok := snap.Counter("sim_iterations_total"); !ok || v != 1 {
		t.Fatalf("sim_iterations_total = %v, %v (want exactly one observed run)", v, ok)
	}
	if v, ok := snap.Counter("core_iterations_total"); !ok || v != 1 {
		t.Fatalf("core_iterations_total = %v, %v", v, ok)
	}

	// The trace must be a non-empty JSON array of Chrome complete events
	// with the fields Perfetto needs.
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace has no events")
	}
	spans := 0
	for i, ev := range events {
		switch ev["ph"] {
		case "X": // complete event — one simulated job
			spans++
			for _, k := range []string{"name", "ts", "dur", "pid", "tid"} {
				if _, ok := ev[k]; !ok {
					t.Fatalf("event %d missing %q: %v", i, k, ev)
				}
			}
		case "M": // metadata (stream names)
		default:
			t.Fatalf("event %d: unexpected phase %v", i, ev["ph"])
		}
	}
	if spans == 0 {
		t.Fatal("trace has no complete events")
	}

	// The human-readable output should state the same busy totals it
	// exported (smoke check: the compute figure appears in the text).
	if !bytes.Contains(out.Bytes(), []byte("busy: compute "+trimFloat(want.ComputeBusy))) {
		t.Fatalf("printed output does not carry the busy totals:\n%s", out.String())
	}
}

func trimFloat(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

// datasetCommands is every subcommand that takes -dataset, with the flags
// that make it quick.
func datasetCommands(t *testing.T) [][]string {
	return [][]string{
		{"sim", "-fast", "-metrics", filepath.Join(t.TempDir(), "m.jsonl"), "-model", "AlexNet"},
		{"train", "-epochs", "1", "-model", "AlexNet"},
		{"inspect", "-model", "AlexNet"},
	}
}

func TestRunRejectsUnknownDataset(t *testing.T) {
	for _, args := range datasetCommands(t) {
		err := run(append(args, "-dataset", "MNIST"), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "MNIST") {
			t.Fatalf("%s -dataset MNIST: err = %v, want it to name the dataset", args[0], err)
		}
	}
}

func TestDatasetSpellings(t *testing.T) {
	for _, args := range datasetCommands(t) {
		for _, name := range []string{"CIFAR-10", "CIFAR10", "cifar10"} {
			var out bytes.Buffer
			if err := run(append(args, "-dataset", name), &out); err != nil {
				t.Fatalf("%s -dataset %s: %v", args[0], name, err)
			}
			if head, _, _ := strings.Cut(out.String(), "\n"); !strings.Contains(head, "CIFAR10") {
				t.Fatalf("%s -dataset %s ran %q", args[0], name, head)
			}
		}
	}
}

// TestEverySubcommandRuns drives each subcommand through run at its
// quickest flag set.
func TestEverySubcommandRuns(t *testing.T) {
	dir := t.TempDir()
	flags := map[string][]string{
		"ablate":  {"-fast"},
		"inspect": {"-model", "AlexNet"},
		"model":   {"-fast"},
		"profile": {"-fast", "-metrics", filepath.Join(dir, "p.jsonl"), "-trace", filepath.Join(dir, "p.json")},
		"report":  {"-fast", "-skip-fig11", "-o", filepath.Join(dir, "REPORT.md"), "-csv", filepath.Join(dir, "data")},
		"sim":     {"-fast"},
		"train":   {"-model", "AlexNet", "-epochs", "2"},
		"tune":    {"-fast"},
	}
	for sub := range commands {
		args, ok := flags[sub]
		if !ok {
			t.Fatalf("subcommand %s has no flag set in this test", sub)
		}
		var out bytes.Buffer
		if err := run(append([]string{sub}, args...), &out); err != nil {
			t.Fatalf("cswap %s: %v", sub, err)
		}
		if out.Len() == 0 {
			t.Fatalf("cswap %s printed nothing", sub)
		}
	}

	// report wrote every section but the skipped one, and a CSV for each
	// section that is a series.
	md, err := os.ReadFile(filepath.Join(dir, "REPORT.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range experiments.Sections {
		if got, want := bytes.Contains(md, []byte("## "+s.Title+"\n")), s.Key != "fig11"; got != want {
			t.Fatalf("section %q in report = %v, want %v", s.Title, got, want)
		}
	}
	for _, name := range []string{"fig1.csv", "fig5.csv", "fig6.csv", "fig8.csv", "fig9.csv", "fig12.csv"} {
		if st, err := os.Stat(filepath.Join(dir, "data", name)); err != nil || st.Size() == 0 {
			t.Fatalf("report -csv: %s: %v", name, err)
		}
	}
	for _, name := range []string{"p.jsonl", "p.json"} {
		if st, err := os.Stat(filepath.Join(dir, name)); err != nil || st.Size() == 0 {
			t.Fatalf("profile export %s: %v", name, err)
		}
	}
}

func TestUnknownSubcommand(t *testing.T) {
	for _, args := range [][]string{nil, {"cswap-sim"}} {
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("run(%q) accepted", args)
		}
	}
}

// TestSectionsNameSubcommands: a section owned by a subcommand that does
// not exist would be printed by report and by nothing else.
func TestSectionsNameSubcommands(t *testing.T) {
	for _, s := range experiments.Sections {
		if _, ok := commands[s.Sub]; !ok && s.Sub != "" {
			t.Errorf("section %s names subcommand %q", s.Key, s.Sub)
		}
	}
}
