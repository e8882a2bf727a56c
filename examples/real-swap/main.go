// Real-swap: the functional data path through the public API. A real
// sparse tensor is registered into a capacity-limited "device" pool,
// swapped out through each codec into a pinned-host pool, swapped back in,
// and verified — then a scaled VGG16 iteration runs end to end, showing the
// memory relief swapping buys and the byte volume compression saves.
// Finally the async pipeline overlaps a whole layer's swap-outs and
// prefetches them back, with the in-flight window visible in the metrics.
package main

import (
	"context"
	"fmt"
	"log"

	"cswap"
)

func main() {
	// Part 1: one tensor through every codec.
	exec, err := cswap.NewExecutor(cswap.ExecutorConfig{
		DeviceCapacity: 8 << 20,
		HostCapacity:   16 << 20,
		Launch:         cswap.Launch{Grid: 16, Block: 64},
		Verify:         true,
	})
	if err != nil {
		log.Fatal(err)
	}
	gen := cswap.NewTensorGenerator(1)
	fmt.Println("One 4 MB tensor at 65% sparsity through each codec:")
	for _, alg := range cswap.Algorithms() {
		tn := gen.SizedUniform(4<<20, 0.65)
		h, err := exec.Register(alg.String(), tn)
		if err != nil {
			log.Fatal(err)
		}
		if err := exec.SwapOut(h, true, alg); err != nil {
			log.Fatal(err)
		}
		hostUsed := exec.HostStats().Used
		if err := exec.SwapIn(h); err != nil {
			log.Fatal(err) // Verify=true: a corrupt restore fails here
		}
		fmt.Printf("  %-4s swapped 4.00 MB as %.2f MB, restored bit-exact\n",
			alg, float64(hostUsed)/(1<<20))
		if err := exec.Free(h); err != nil {
			log.Fatal(err)
		}
	}

	// Part 2: a scaled VGG16 iteration under the CSWAP advisor's plan.
	model, err := cswap.BuildModel("VGG16", cswap.ImageNet, 128)
	if err != nil {
		log.Fatal(err)
	}
	fw, err := cswap.NewFramework(cswap.Config{
		Model: model, Device: cswap.V100(), Seed: 1, SamplesPerAlg: 500,
	})
	if err != nil {
		log.Fatal(err)
	}
	const scale = 4096
	iterExec, err := cswap.NewExecutor(cswap.ExecutorConfig{
		DeviceCapacity: cswap.MinDeviceCapacity(model, scale),
		HostCapacity:   cswap.HostCapacityFor(model, scale),
		Verify:         true,
	})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := fw.PlanEpoch(45)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := cswap.RunFunctionalIteration(iterExec, model, plan, fw.Sparsity, 45, scale, 1)
	if err != nil {
		log.Fatal(err)
	}

	var totalScaled float64
	for _, st := range model.SwapTensors() {
		totalScaled += float64(st.Bytes) / scale
	}
	fmt.Printf("\nVGG16 iteration at 1/%d scale, epoch 45 plan (%d of %d tensors compressed):\n",
		scale, rep.Compressed, rep.Tensors)
	fmt.Printf("  activations produced:  %.2f MB\n", totalScaled/(1<<20))
	fmt.Printf("  peak device usage:     %.2f MB  (memory relief from swapping)\n",
		float64(rep.PeakDeviceBytes)/(1<<20))
	fmt.Printf("  bytes over the link:   %.2f MB of %.2f MB raw (ratio %.3f)\n",
		float64(rep.MovedBytes)/(1<<20), float64(rep.RawBytes)/(1<<20), rep.Ratio())
	fmt.Printf("  every tensor restored bit-exact: %d verified\n", iterExec.Stats().Verified)

	// Part 3: the async pipeline. Eight activations stream out through
	// SwapOutAsyncCtx — each call takes one slot of the MaxInFlight window
	// and runs as one job on the executor's worker pool, so up to four swaps
	// overlap while the caller moves on — then PrefetchCtx brings them back
	// ahead of use. The observer's gauges show the overlap.
	obs := cswap.NewObserver()
	asyncExec, err := cswap.NewExecutor(cswap.ExecutorConfig{
		DeviceCapacity: 64 << 20,
		HostCapacity:   64 << 20,
		Verify:         true,
		MaxInFlight:    4,
		Observer:       obs,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer asyncExec.Close()

	const streams = 8
	handles := make([]*cswap.TensorHandle, streams)
	for i := range handles {
		h, err := asyncExec.Register(fmt.Sprintf("act-%d", i), gen.SizedUniform(2<<20, 0.65))
		if err != nil {
			log.Fatal(err)
		}
		handles[i] = h
	}
	tickets := make([]*cswap.SwapTicket, streams)
	for i, h := range handles {
		tickets[i] = asyncExec.SwapOutAsyncCtx(context.Background(), h, true, cswap.ZVC)
	}
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			log.Fatal(err)
		}
	}
	for i, h := range handles {
		tickets[i] = asyncExec.PrefetchCtx(context.Background(), h)
	}
	asyncExec.Drain()
	for _, tk := range tickets {
		if err := tk.Err(); err != nil {
			log.Fatal(err)
		}
	}

	snap := asyncExec.Registry().Snapshot()
	peak, _ := snap.Gauge("executor_async_inflight_peak")
	submitted, _ := snap.Counter("executor_async_submitted_total", cswap.MetricLabel("op", "swap-out"))
	prefetched, _ := snap.Counter("executor_async_submitted_total", cswap.MetricLabel("op", "prefetch"))
	fmt.Printf("\nAsync pipeline, %d tensors of 2 MB, window %d:\n", streams, cswap.DefaultMaxInFlight)
	fmt.Printf("  swap-outs submitted:   %.0f   prefetches: %.0f\n", submitted, prefetched)
	fmt.Printf("  in-flight peak:        %.0f  (swaps genuinely overlapped)\n", peak)
	fmt.Printf("  restores verified:     %d, all bit-exact\n", asyncExec.Stats().Verified)
}
