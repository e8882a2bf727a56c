// Command cswap reproduces the paper's evaluation. The figure subcommands
// print their rows of experiments.Sections; report prints all of them into
// one Markdown file.
//
//	cswap profile [-seed N] [-fast] [-metrics out.jsonl] [-trace out.json]
//	    Figures 1, 8, 9: sparsity profile, compressed layers per epoch, the
//	    VGG16 layer × epoch matrix. -metrics/-trace export what an Observer
//	    attached to every deployment saw (advisor verdicts, BO probes,
//	    setup-phase spans).
//	cswap model [-seed N] [-fast] [-skip-fig11]
//	    Figures 2, 3, 10, 11: execution timelines, static compression,
//	    time-model RAE, decision accuracy.
//	cswap tune [-seed N] [-fast]
//	    Figures 5, 12, the Section V-E overheads and the link / sparsity /
//	    GPU-generation sweeps.
//	cswap sim [-seed N] [-fast] [-samples N] [-stride N]
//	    Figures 6, 7 and the headline reductions.
//	cswap sim -metrics out.jsonl -trace out.json [-model VGG16] [-gpu V100]
//	          [-dataset ImageNet] [-epoch 10] [-seed N]
//	    One observed training iteration of a single workload: a JSON-lines
//	    metrics snapshot and a Chrome trace loadable in Perfetto.
//	cswap ablate [-seed N] [-fast]
//	    The design-choice ablations of DESIGN.md §5.
//	cswap report [-o REPORT.md] [-seed N] [-fast] [-skip-fig11] [-csv dir]
//	    Every section, as Markdown; -csv also writes the series as CSV.
//	cswap train [-model VGG16] [-gpu V100] [-dataset ImageNet] [-epochs 10]
//	            [-scale 4096] [-seed 1]
//	    The functional executor through a training run: real activations
//	    swapped out through the real codecs per the advisor's plan, swapped
//	    back in and verified bit-exactly.
//	cswap inspect [-model VGG16] [-gpu V100] [-dataset ImageNet] [-batch 0]
//	    The workload a deployment would see: layer table, swappable tensors
//	    with their hiding windows, memory accounting.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"cswap/internal/experiments"
	"cswap/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

var commands = map[string]func(fs *flag.FlagSet, args []string, out io.Writer) error{
	"ablate":  figures,
	"inspect": inspect,
	"model":   model,
	"profile": profile,
	"report":  report,
	"sim":     sim,
	"train":   train,
	"tune":    figures,
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		if cmd, ok := commands[args[0]]; ok {
			return cmd(flag.NewFlagSet(args[0], flag.ContinueOnError), args[1:], out)
		}
	}
	names := make([]string, 0, len(commands))
	for name := range commands {
		names = append(names, name)
	}
	sort.Strings(names)
	return fmt.Errorf("usage: cswap <%s> [flags], got %q", strings.Join(names, "|"), args)
}

// scale is the -seed/-fast pair every figure subcommand takes.
type scale struct {
	seed *int64
	fast *bool
}

func scaleFlags(fs *flag.FlagSet) scale {
	return scale{
		seed: fs.Int64("seed", 1, "experiment seed"),
		fast: fs.Bool("fast", false, "reduced sample counts and epoch grid"),
	}
}

func (s scale) config() experiments.Config {
	if *s.fast {
		return experiments.Fast(*s.seed)
	}
	return experiments.Config{Seed: *s.seed}
}

func skipFig11Flag(fs *flag.FlagSet) *bool {
	return fs.Bool("skip-fig11", false, "skip the slow decision-accuracy sweep")
}

// export is the Observer's way out: -metrics writes its registry as JSON
// lines, -trace its timeline as Chrome trace events.
type export struct{ metrics, trace *string }

func exportFlags(fs *flag.FlagSet) export {
	return export{
		metrics: fs.String("metrics", "", "write a JSON-lines metrics snapshot here"),
		trace:   fs.String("trace", "", "write a Chrome trace-event JSON file here"),
	}
}

func (e export) on() bool { return *e.metrics != "" || *e.trace != "" }

func (e export) write(out io.Writer, obs *metrics.Observer) error {
	if *e.metrics != "" {
		f, err := os.Create(*e.metrics)
		if err != nil {
			return err
		}
		werr := metrics.JSONLines{W: f}.Write(obs.Metrics.Snapshot())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("write metrics: %w", werr)
		}
		fmt.Fprintf(out, "metrics: %s\n", *e.metrics)
	}
	if *e.trace != "" {
		b, err := obs.ChromeTrace()
		if err != nil {
			return fmt.Errorf("export trace: %w", err)
		}
		if err := os.WriteFile(*e.trace, b, 0o644); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(out, "trace: %s\n", *e.trace)
	}
	return nil
}

// printSections prints the sections sub owns.
func printSections(out io.Writer, sub string, cfg experiments.Config, skipFig11 bool) error {
	for _, s := range experiments.Sections {
		if s.Sub != sub || skipFig11 && s.Key == "fig11" {
			continue
		}
		r, err := s.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Title, err)
		}
		fmt.Fprintln(out, r)
	}
	return nil
}

// figures is ablate and tune: -seed, -fast, the subcommand's sections.
func figures(fs *flag.FlagSet, args []string, out io.Writer) error {
	sc := scaleFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return printSections(out, fs.Name(), sc.config(), false)
}

func model(fs *flag.FlagSet, args []string, out io.Writer) error {
	sc := scaleFlags(fs)
	skipFig11 := skipFig11Flag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return printSections(out, "model", sc.config(), *skipFig11)
}

func profile(fs *flag.FlagSet, args []string, out io.Writer) error {
	sc := scaleFlags(fs)
	ex := exportFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := sc.config()
	if ex.on() {
		cfg.Observer = metrics.NewObserver()
	}
	if err := printSections(out, "profile", cfg, false); err != nil {
		return err
	}
	return ex.write(out, cfg.Observer)
}

func report(fs *flag.FlagSet, args []string, out io.Writer) error {
	path := fs.String("o", "REPORT.md", "output file")
	sc := scaleFlags(fs)
	skipFig11 := skipFig11Flag(fs)
	csvDir := fs.String("csv", "", "also export series data as CSV into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := sc.config()

	var b strings.Builder
	fmt.Fprintf(&b, "# CSWAP — regenerated evaluation\n\n")
	fmt.Fprintf(&b, "Generated by `cswap report` (seed %d, fast=%v) on %s.\n\n",
		*sc.seed, *sc.fast, time.Now().Format(time.RFC3339))
	fmt.Fprintf(&b, "Every section below is produced by the corresponding driver in\n")
	fmt.Fprintf(&b, "`internal/experiments`; see EXPERIMENTS.md for the paper-vs-measured\nanalysis.\n\n")

	for _, s := range experiments.Sections {
		if *skipFig11 && s.Key == "fig11" {
			continue
		}
		start := time.Now()
		r, err := s.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Title, err)
		}
		took := time.Since(start).Round(time.Millisecond)
		body := r.String()
		if !strings.HasSuffix(body, "\n") {
			body += "\n"
		}
		fmt.Fprintf(&b, "## %s\n\n```\n%s```\n\n_(generated in %v)_\n\n", s.Title, body, took)
		fmt.Fprintf(os.Stderr, "%-28s done in %v\n", s.Title, took)
		if w, ok := r.(interface{ WriteCSV(dir string) error }); ok && *csvDir != "" {
			if err := w.WriteCSV(*csvDir); err != nil {
				return fmt.Errorf("csv export: %w", err)
			}
		}
	}
	if *csvDir != "" {
		fmt.Fprintf(os.Stderr, "CSV series written to %s\n", *csvDir)
	}

	if err := os.WriteFile(*path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%d bytes)\n", *path, b.Len())
	return nil
}
