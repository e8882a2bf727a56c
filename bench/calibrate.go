package main

import (
	"math"
	"time"
)

// Speed calibration.
//
// The sandbox this benchmark runs in changes speed under it: the same
// single-threaded compute loop takes anywhere from 12.3 to 18.2 ms depending
// on what the host's other tenants are doing, in regimes that last from
// seconds to tens of minutes. Every time-based metric of every workload
// follows that loop (r = 0.93..0.99 over 43 runs), so two runs of the same
// code differ by up to 30 % for reasons that have nothing to do with the code.
//
// The harness therefore times a fixed reference kernel — code of its own,
// independent of the program under test — once after every pass and after
// every set-up, and reports time-based end-to-end metrics at reference speed:
//
//	reported = measured × (calNominalMs ÷ the run's median kernel time)
//
// (goodput is divided instead of multiplied). The human output prints the
// measured value beside the calibrated one and the factor between them.
// Counts and ratios (stored_ratio, alloc_per_byte) and all per-layer metrics
// are reported as measured.

// calNominalMs is the reference kernel's time on a quiet machine of the class
// the baseline was taken on. It only fixes the scale: calibrated values read
// as "what this run would have measured on a quiet machine".
const calNominalMs = 12.5

// calElems sizes the kernel's input (8 MiB of float32).
const calElems = 2 << 20

var (
	calSrc  = calInput()
	calSink uint64 // keeps the kernel's result live
)

func calInput() []float32 {
	s := make([]float32, calElems)
	for i := range s {
		if i%3 != 0 {
			s[i] = float32(i%977) + 0.5
		}
	}
	return s
}

// calibrate runs the reference kernel once and returns its time in ms: a
// byte-wise FNV-1a over the input, a serial multiply chain that is bound by
// core speed, which is what the sandbox varies.
func calibrate() float64 {
	t0 := time.Now()
	var h uint64 = 1469598103934665603
	for _, v := range calSrc {
		bits := uint64(math.Float32bits(v))
		for i := 0; i < 4; i++ {
			h ^= (bits >> (8 * uint(i))) & 0xFF
			h *= 1099511628211
		}
	}
	calSink += h
	return time.Since(t0).Seconds() * 1e3
}

// speedFactor turns the kernel times sampled during a run into the factor
// that scales measured times to reference speed.
func speedFactor(samples []float64) float64 {
	m := median(samples)
	if m <= 0 {
		return 1
	}
	return calNominalMs / m
}
