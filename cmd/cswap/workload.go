package main

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"cswap/internal/core"
	"cswap/internal/dnn"
	"cswap/internal/gpu"
	"cswap/internal/metrics"
	"cswap/internal/profiler"
	"cswap/internal/sparsity"
	"cswap/internal/swap"
)

// workload is the -model/-gpu/-dataset group of the single-workload
// subcommands (sim's observed run, train, inspect).
type workload struct{ model, gpu, dataset *string }

func workloadFlags(fs *flag.FlagSet) workload {
	return workload{
		model:   fs.String("model", "VGG16", "DNN model"),
		gpu:     fs.String("gpu", "V100", "GPU (V100 or 2080Ti)"),
		dataset: fs.String("dataset", "ImageNet", "dataset (ImageNet or CIFAR-10)"),
	}
}

// target resolves the device and the dataset; the dataset is matched
// without case or hyphen, so CIFAR-10, CIFAR10 and cifar10 are one.
func (w workload) target() (*gpu.Device, dnn.Dataset, error) {
	var ds dnn.Dataset
	switch strings.ToUpper(strings.ReplaceAll(*w.dataset, "-", "")) {
	case "IMAGENET":
		ds = dnn.ImageNet
	case "CIFAR10":
		ds = dnn.CIFAR10
	default:
		return nil, ds, fmt.Errorf("unknown dataset %q (want ImageNet or CIFAR-10)", *w.dataset)
	}
	d, err := gpu.ByName(*w.gpu)
	return d, ds, err
}

// build compiles the model at batch, or at its Table III batch size for
// this GPU and dataset when batch is 0.
func (w workload) build(batch int) (*dnn.Model, *gpu.Device, error) {
	d, ds, err := w.target()
	if err != nil {
		return nil, nil, err
	}
	if batch == 0 {
		if batch, err = dnn.BatchSize(*w.model, d.Name, ds); err != nil {
			return nil, nil, err
		}
	}
	m, err := dnn.Build(*w.model, ds, batch)
	return m, d, err
}

// sim prints its sections, or with -metrics/-trace performs exactly one
// simulated training iteration with an Observer attached, so the exported
// per-stream busy counters equal the printed SimResult totals.
func sim(fs *flag.FlagSet, args []string, out io.Writer) error {
	sc := scaleFlags(fs)
	samples := fs.Int("samples", 0, "override regression samples per algorithm")
	stride := fs.Int("stride", 0, "override epoch stride")
	ex := exportFlags(fs)
	w := workloadFlags(fs)
	epoch := fs.Int("epoch", 10, "epoch of the observed run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := sc.config()
	if *samples > 0 {
		cfg.SamplesPerAlg = *samples
	}
	if *stride > 0 {
		cfg.EpochStride = *stride
	}
	if !ex.on() {
		return printSections(out, "sim", cfg, false)
	}

	m, d, err := w.build(0)
	if err != nil {
		return err
	}
	obs := metrics.NewObserver()
	fw, err := core.New(core.Config{
		Model: m, Device: d, Seed: *sc.seed, SamplesPerAlg: cfg.SamplesPerAlg, Observer: obs,
	})
	if err != nil {
		return err
	}
	res, err := fw.SimulateIteration(*epoch, swap.NewOptions(swap.WithSeed(*sc.seed)))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s %s/%s epoch %d (batch %d, launch grid=%d block=%d)\n",
		*w.model, d.Name, m.Dataset.Name, *epoch, m.Batch, fw.Launch.Grid, fw.Launch.Block)
	fmt.Fprintf(out, "iteration %.6fs  throughput %.1f samples/s  exposed %.6fs\n",
		res.IterationTime, res.Throughput, res.SwapExposed)
	fmt.Fprintf(out, "busy: compute %.6fs  kernel %.6fs  d2h %.6fs  h2d %.6fs\n",
		res.ComputeBusy, res.KernelBusy, res.D2HBusy, res.H2DBusy)
	return ex.write(out, obs)
}

func train(fs *flag.FlagSet, args []string, out io.Writer) error {
	w := workloadFlags(fs)
	epochs := fs.Int("epochs", 10, "epochs to run (sampled from the 50-epoch profile)")
	scaleDiv := fs.Int("scale", 4096, "tensor size divisor (keeps memory bounded)")
	seed := fs.Int64("seed", 1, "seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, d, err := w.build(0)
	if err != nil {
		return err
	}
	fw, err := core.New(core.Config{Model: m, Device: d, Seed: *seed, SamplesPerAlg: 1000})
	if err != nil {
		return err
	}
	exec, err := fw.NewExecutor(*scaleDiv, nil)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%s / %s / %s — functional swap training at 1/%d scale, launch %v\n\n",
		*w.model, d.Name, m.Dataset.Name, *scaleDiv, fw.Launch)
	fmt.Fprintln(out, "epoch  compressed  raw(MB)  moved(MB)  ratio  peak-dev(MB)  sparsity")

	step := 50 / *epochs
	if step < 1 {
		step = 1
	}
	for epoch := 0; epoch < 50; epoch += step {
		plan, err := fw.PlanEpoch(epoch)
		if err != nil {
			return err
		}
		rep, err := core.RunIteration(exec, m, plan, fw.Sparsity, epoch, *scaleDiv, *seed+int64(epoch))
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%5d  %4d/%-5d  %7.2f  %9.2f  %5.3f  %12.3f  %7.1f%%\n",
			epoch, rep.Compressed, rep.Tensors,
			float64(rep.RawBytes)/(1<<20), float64(rep.MovedBytes)/(1<<20),
			rep.Ratio(), float64(rep.PeakDeviceBytes)/(1<<20), rep.MeanSparsity*100)
	}

	st := exec.Stats()
	fmt.Fprintf(out, "\ntotals: %d swap-outs, %d swap-ins, all %d verified bit-exact\n",
		st.SwapOuts, st.SwapIns, st.Verified)
	fmt.Fprintf(out, "data volume: %.1f MB raw -> %.1f MB moved (ratio %.3f)\n",
		float64(st.RawBytes)/(1<<20), float64(st.MovedBytes)/(1<<20), st.Ratio())
	gets := func(outcome string) float64 {
		return exec.Registry().Counter("executor_arena_gets_total", metrics.L("outcome", outcome)).Value()
	}
	fmt.Fprintf(out, "buffer cache: %.0f hits / %.0f misses (pool-reuse optimisation)\n", gets("hit"), gets("miss"))
	return nil
}

func inspect(fs *flag.FlagSet, args []string, out io.Writer) error {
	w := workloadFlags(fs)
	batch := fs.Int("batch", 0, "batch size (0 = Table III default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var m *dnn.Model
	var d *gpu.Device
	var err error
	switch *w.model {
	case "BERT-base", "BERT-large":
		// BERT brings its own dataset; only the device comes from flags.
		if d, _, err = w.target(); err != nil {
			return err
		}
		bert := dnn.BERTBase
		if *w.model == "BERT-large" {
			bert = dnn.BERTLarge
		}
		if *batch == 0 {
			*batch = 64
		}
		m, err = dnn.BuildBERT(bert, *batch)
	default:
		m, d, err = w.build(*batch)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%s / %s / %s, batch %d\n", m.Name, d.Name, m.Dataset.Name, m.Batch)
	fmt.Fprintf(out, "  parameters:          %8.1f M (%.0f MB)\n",
		float64(m.WeightElems())/1e6, float64(m.WeightBytes())/(1<<20))
	fmt.Fprintf(out, "  forward activations: %8.1f GB (%.0fx the weights)\n",
		float64(m.TotalActivationBytes())/(1<<30), m.FeatureToWeightRatio())
	fmt.Fprintf(out, "  compute/iteration:   %8.1f ms\n", m.IterationComputeTime(d)*1e3)
	fp := m.TrainingFootprint()
	fmt.Fprintf(out, "  training footprint:  %8.1f GB of %d GB device memory (needs swapping: %v)\n\n",
		float64(fp.Total())/(1<<30), d.MemBytes>>30, m.NeedsSwapping(d))

	fmt.Fprintf(out, "%-16s %-8s %14s %10s %10s %10s\n",
		"layer", "op", "shape", "out(MB)", "fwd(ms)", "GFLOPs")
	for i := range m.Layers {
		l := &m.Layers[i]
		fmt.Fprintf(out, "%-16s %-8s %4dx%4dx%4d %10.1f %10.3f %10.2f\n",
			l.Name, l.Op, l.OutH, l.OutW, l.OutCh,
			float64(m.OutputBytes(i))/(1<<20),
			m.ForwardTime(d, i)*1e3,
			m.FLOPs(i)/1e9)
	}

	sp := sparsity.ForModel(m, 50, 1)
	np := profiler.Collect(m, d, sp, 0)
	if err := swap.MeasureHiddenWindows(m, d, np); err != nil {
		return err
	}
	fmt.Fprintf(out, "\nswappable tensors (epoch-0 sparsity, measured hiding windows):\n")
	fmt.Fprintf(out, "%-10s %10s %10s %12s %12s %14s\n",
		"tensor", "size(MB)", "sparsity", "hiddenF(ms)", "hiddenB(ms)", "raw d2h(ms)")
	for _, t := range np.Tensors {
		fmt.Fprintf(out, "%-10s %10.1f %9.0f%% %12.2f %12.2f %14.2f\n",
			t.Name, float64(t.Bytes)/(1<<20), t.Sparsity*100,
			t.HiddenF*1e3, t.HiddenB*1e3,
			float64(t.Bytes)/np.BWd2h*1e3)
	}
	fmt.Fprintf(out, "\nmeasured effective bandwidth: d2h %.1f GB/s, h2d %.1f GB/s\n",
		np.BWd2h/1e9, np.BWh2d/1e9)
	return nil
}
