package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples: the smallest sample with at least p% of the samples at or below
// it. Exactly len(samples)-rank samples lie beyond the returned one, which
// is what the ten-beyond rule counts. An empty input returns 0.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile of n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// tailCandidates are the percentiles a tail metric may report, highest first.
var tailCandidates = []float64{99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported tail percentile
// for it to be more than one or two outliers.
const minBeyond = 10

// tailPercentile picks the percentile a tail metric reports from n samples:
// the highest candidate not above nominal that still has minBeyond samples
// beyond it. With too few samples for any candidate it falls back to the
// median, which is always defined.
func tailPercentile(n int, nominal float64) float64 {
	for _, p := range tailCandidates {
		if p <= nominal && n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// passMedian is the median over passes of per-pass goodput in MB/s
// (1 MB = 1e6 bytes), given each pass's restored bytes and wall seconds.
func passMedian(bytes []int64, seconds []float64) float64 {
	per := make([]float64, 0, len(bytes))
	for i, b := range bytes {
		if seconds[i] > 0 {
			per = append(per, float64(b)/1e6/seconds[i])
		}
	}
	return median(per)
}

// selfTime charges a rung its own time: the rung's median minus the medians
// of the rungs it calls, each weighted by how many of those calls one call of
// this rung makes. The result is a difference of independent replays and may
// come out slightly negative when a layer's own cost is below the noise.
func selfTime(rung float64, callees ...weighted) float64 {
	for _, c := range callees {
		rung -= c.weight * c.value
	}
	return rung
}

// weighted is one callee's median and its calls per caller call.
type weighted struct{ value, weight float64 }

func once(v float64) weighted { return weighted{v, 1} }

// spread is the distance between the first and third quartile of values as a
// share of their median — Python's statistics.quantiles(values, n=4), the
// exclusive method, which is what the benchmark's acceptance rule uses.
func spread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return math.Abs(q(3)-q(1)) / math.Abs(med)
}

// histQuantile estimates the q-quantile (0..1) of a bucketed histogram given
// each bucket's upper bound and non-cumulative count, interpolating linearly
// inside the bucket that holds it. Observations in the first bucket sit
// between 0 and its bound; the overflow bucket reports its lower bound.
func histQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	lower := 0.0
	for i, c := range counts {
		if c > 0 && cum+float64(c) >= target {
			if math.IsInf(bounds[i], 1) {
				return lower
			}
			return lower + (bounds[i]-lower)*(target-cum)/float64(c)
		}
		cum += float64(c)
		lower = bounds[i]
	}
	return lower
}
