package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a tail
// percentile before the benchmark reports it: a p99 over 200 samples
// rests on two values and says nothing stable about the tail.
const minBeyond = 10

// samples is a set of latency observations in one unit.
type samples []float64

// durs converts durations to the given unit (time.Millisecond, ...).
func durs(ds []time.Duration, unit time.Duration) samples {
	out := make(samples, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// scaled returns s with every value multiplied by f.
func (s samples) scaled(f float64) samples {
	out := make(samples, len(s))
	for i, v := range s {
		out[i] = v * f
	}
	return out
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of s, or
// NaN when s is empty. The input is not modified.
func percentile(s samples, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	return sorted[rank(len(sorted), p)]
}

// rank is the 0-based nearest-rank index of the p-quantile of n values.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// beyond counts the samples strictly after the p-quantile's rank.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - 1 - rank(n, p)
}

// tailOK reports whether n samples put at least minBeyond of them
// beyond the p-quantile.
func tailOK(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// median is percentile(s, 0.5).
func median(s samples) float64 { return percentile(s, 0.5) }

// tailBlocks is how many consecutive blocks blockPercentile splits a
// run's samples into.
const tailBlocks = 5

// blockPercentile splits s, in the order it was recorded, into
// tailBlocks consecutive blocks of near-equal size and returns the
// median of the blocks' p-quantiles. A burst of interference from the
// host that slows one or two blocks moves the whole-run quantile but
// not this one. With fewer samples than blocks it is percentile(s, p).
func blockPercentile(s samples, p float64) float64 {
	k := tailBlocks
	if len(s) < k {
		return percentile(s, p)
	}
	per := make(samples, k)
	for b := 0; b < k; b++ {
		per[b] = percentile(s[b*len(s)/k:(b+1)*len(s)/k], p)
	}
	return median(per)
}
