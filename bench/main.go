// Command bench is the repository's benchmark: four seeded, closed-loop swap
// workloads driven through the public APIs, nine end-to-end metrics per
// workload, and a traced pass that replays each workload's inputs against
// every layer to charge time, bytes and allocations to it. README.md in this
// directory defines every workload and metric; BENCHMARK.json at the repo
// root is the machine-readable contract.
//
//	go run ./bench                                  # every workload, untraced
//	go run ./bench -workload kv-decode -seconds 5   # one workload
//	go run ./bench -trace 1 -trace-out spans.json   # per-layer ladder
//	go run ./bench -repeat 3                        # run-to-run spread vs bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable outcome of one workload run: the last line
// of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is the parsed command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	repeat   int
	workDir  string
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "all", "workload to run: all, or one of "+workloadNames())
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the input generators (tensors, KV traces); the program under test never sees it")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and the per-layer ladder instead of the end-to-end window")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "Chrome-trace JSON file for the traced pass's spans (default <work>/trace-<workload>.json)")
	flag.IntVar(&cfg.repeat, "repeat", 1, "run the untraced suite N times and print each metric's run-to-run spread against its bound")
	flag.StringVar(&cfg.workDir, "work", filepath.Join(".bench_build", "work"), "scratch directory for tier files and trace output")
	flag.Parse()
	cfg.trace = traceFlag != 0
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

func run(cfg config) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if cfg.seconds <= 0 || cfg.repeat < 1 {
		return errors.New("-seconds must be positive and -repeat at least 1")
	}
	specs := workloads
	if cfg.workload != "all" {
		s, err := findWorkload(cfg.workload)
		if err != nil {
			return err
		}
		specs = []*spec{s}
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return err
	}
	printEnv(cfg)
	if cfg.repeat > 1 {
		return repeatSuite(cfg, specs)
	}
	ok := true
	for _, s := range specs {
		res, err := guarded(cfg, s)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		ok = ok && res.Correct && res.Failed == 0
	}
	if !ok {
		return errors.New("run was not correct: failed ops, a wrong restore, or a broken invariant (see above)")
	}
	return nil
}

// printEnv records what a reader needs to compare two outputs: the seed, the
// parallelism the run had, and the toolchain and commit that produced it.
func printEnv(cfg config) {
	// run.sh builds without VCS stamping (it must work outside a git
	// repository) and passes the commit, when there is one, by environment.
	commit := os.Getenv("CSWAP_BENCH_COMMIT")
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("# cswap bench: seed=%d seconds=%g trace=%v GOMAXPROCS=%d nproc=%d go=%s commit=%s\n",
		cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit)
}

// guarded runs one workload under a watchdog: a run that wedges (the shared
// worker pool can, see README.md) becomes an error and a non-zero exit, never
// a hang. Every op already carries its own deadline; the watchdog covers the
// calls that take no context.
func guarded(cfg config, s *spec) (*result, error) {
	limit := time.Duration((2*cfg.seconds + 120) * float64(time.Second))
	type outcome struct {
		res *result
		err error
	}
	done := make(chan outcome, 1) // buffered: the send must not block after a watchdog exit
	go func() {
		var o outcome
		if cfg.trace {
			o.res, o.err = runTraced(cfg, s)
		} else {
			o.res, o.err = runEndToEnd(cfg, s)
		}
		done <- o
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(limit):
		return nil, fmt.Errorf("watchdog: no result after %s; the workload is wedged", limit)
	}
}

// endToEnd names the end-to-end metrics in reporting order. BENCHMARK.json
// carries the same list with each metric's direction and regression bound.
var endToEnd = []struct{ name, unit string }{
	{"goodput_mbps", "MB/s"},
	{"swapout_p50_ms", "ms"},
	{"swapout_tail_ms", "ms"},
	{"swapin_p50_ms", "ms"},
	{"swapin_tail_ms", "ms"},
	{"stored_ratio", "ratio"},
	{"alloc_per_byte", "B/B"},
	{"setup_s", "s"},
}

// runEndToEnd is one untraced run of a workload: generate the inputs, set the
// system up setupRepeats times (the median is setup_s, the last copy is
// measured), run the window, check the invariants, tear down.
func runEndToEnd(cfg config, s *spec) (*result, error) {
	in := genInputs(s, cfg.seed)
	var x *instance
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if x != nil {
			if err := x.teardown(); err != nil {
				return nil, fmt.Errorf("teardown between set-ups: %w", err)
			}
		}
		var secs float64
		var err error
		if x, secs, err = warm(s, in, s.entryKind(), cfg.workDir, setupOpts{verify: true}, warmups); err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	runtime.GC()
	w, runErr := x.measure(time.Duration(cfg.seconds*float64(time.Second)), nil, "")
	if err := x.teardown(); runErr == nil && err != nil {
		runErr = fmt.Errorf("teardown: %w", err)
	}

	res := &result{Attempted: w.rec.attempted, Failed: w.rec.failed, Metrics: map[string]metric{}}
	res.Correct = runErr == nil && w.rec.failed == 0
	outTail := tailPercentile(len(w.rec.outMs), s.tailPct)
	inTail := tailPercentile(len(w.rec.inMs), s.tailPct)
	var restored int64
	for _, b := range w.passBytes {
		restored += b
	}
	// Time-based metrics are reported at reference speed (calibrate.go);
	// setup_s was calibrated set-up by set-up in warm.
	f := speedFactor(w.cal)
	measured := map[string]float64{
		"goodput_mbps":    passMedian(w.passBytes, w.passSeconds),
		"swapout_p50_ms":  median(w.rec.outMs),
		"swapout_tail_ms": percentile(w.rec.outMs, outTail),
		"swapin_p50_ms":   median(w.rec.inMs),
		"swapin_tail_ms":  percentile(w.rec.inMs, inTail),
	}
	values := map[string]float64{
		"goodput_mbps":   measured["goodput_mbps"] / f,
		"stored_ratio":   ratio(float64(w.movedOut), float64(w.rawOut)),
		"alloc_per_byte": ratio(float64(w.allocBytes), float64(restored)),
		"setup_s":        median(setups),
	}
	for _, name := range []string{"swapout_p50_ms", "swapout_tail_ms", "swapin_p50_ms", "swapin_tail_ms"} {
		values[name] = measured[name] * f
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}

	fmt.Printf("## %s  callers=%d  passes=%d  window=%.2fs  ops=%d failed=%d (failed_share=%.4g)\n",
		s.name, len(x.targets), len(w.passBytes), w.wall.Seconds(), w.rec.attempted, w.rec.failed,
		ratio(float64(w.rec.failed), float64(w.rec.attempted)))
	fmt.Printf("   speed factor %.4f: the reference kernel took %.3f ms (median of %d), %.1f ms at reference speed\n",
		f, median(w.cal), len(w.cal), calNominalMs)
	fmt.Printf("   %-16s %12.4f MB/s   (measured %.4f)  median of %d passes\n", "goodput_mbps", values["goodput_mbps"], measured["goodput_mbps"], len(w.passBytes))
	fmt.Printf("   %-16s %12.4f ms     (measured %.4f)  p50 of %d\n", "swapout_p50_ms", values["swapout_p50_ms"], measured["swapout_p50_ms"], len(w.rec.outMs))
	fmt.Printf("   %-16s %12.4f ms     (measured %.4f)  p%g of %d\n", "swapout_tail_ms", values["swapout_tail_ms"], measured["swapout_tail_ms"], outTail, len(w.rec.outMs))
	fmt.Printf("   %-16s %12.4f ms     (measured %.4f)  p50 of %d\n", "swapin_p50_ms", values["swapin_p50_ms"], measured["swapin_p50_ms"], len(w.rec.inMs))
	fmt.Printf("   %-16s %12.4f ms     (measured %.4f)  p%g of %d\n", "swapin_tail_ms", values["swapin_tail_ms"], measured["swapin_tail_ms"], inTail, len(w.rec.inMs))
	fmt.Printf("   %-16s %12.6f        %d stored / %d raw bytes swapped out\n", "stored_ratio", values["stored_ratio"], w.movedOut, w.rawOut)
	fmt.Printf("   %-16s %12.4f B/B    %d allocated / %d restored bytes\n", "alloc_per_byte", values["alloc_per_byte"], w.allocBytes, restored)
	fmt.Printf("   %-16s %12.4f s      median of %d set-ups at reference speed %.3f\n", "setup_s", values["setup_s"], len(setups), setups)
	if outTail < s.tailPct || inTail < s.tailPct {
		fmt.Printf("   note: too few samples for p%g with %d beyond it; the tails above are lower percentiles\n", s.tailPct, minBeyond)
	}
	if w.rec.firstErr != nil {
		fmt.Printf("   first failure: %v\n", w.rec.firstErr)
	}
	if runErr != nil {
		fmt.Printf("   invariant broken: %v\n", runErr)
	}
	return res, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// repeatSuite runs the untraced suite cfg.repeat times in this process and
// prints, per workload and end-to-end metric, every run's value and the
// run-to-run spread against the metric's bound in BENCHMARK.json — the tool
// for "two sets of runs agree" and for before/after comparisons.
func repeatSuite(cfg config, specs []*spec) error {
	bounds, err := loadBounds()
	if err != nil {
		fmt.Printf("# no bounds: %v\n", err)
	}
	values := map[string]map[string][]float64{}
	ok := true
	for i := 0; i < cfg.repeat; i++ {
		for _, s := range specs {
			res, err := guarded(cfg, s)
			if err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			ok = ok && res.Correct && res.Failed == 0
			if values[s.name] == nil {
				values[s.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				values[s.name][name] = append(values[s.name][name], m.Value)
			}
		}
	}
	fmt.Printf("\n# %d runs per workload; spread = (Q3-Q1)/median, as statistics.quantiles(n=4)\n", cfg.repeat)
	for _, s := range specs {
		fmt.Printf("## %s\n", s.name)
		for _, m := range endToEnd {
			vs := values[s.name][m.name]
			sp := spread(vs)
			verdict := ""
			if b, found := bounds[m.name]; found {
				verdict = fmt.Sprintf("bound %.3f", b)
				if m.name != "setup_s" && sp > b {
					verdict += "  SPREAD EXCEEDS BOUND"
				}
			}
			fmt.Printf("   %-16s spread %.4f  %-28s %s %.6g\n", m.name, sp, verdict, m.unit, vs)
		}
	}
	if !ok {
		return errors.New("at least one run was not correct")
	}
	return nil
}

// loadBounds reads each end-to-end metric's regression bound from
// BENCHMARK.json in the working directory.
func loadBounds() (map[string]float64, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range doc.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
