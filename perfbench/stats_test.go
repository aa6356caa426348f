package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := samples{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.1, 1}, {0.5, 5}, {0.9, 9}, {0.95, 10}, {1, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if s[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.9, true}, // ranks 91..100 lie beyond p90
		{99, 0.9, false},
		{1000, 0.99, true},
		{999, 0.99, false},
		{10000, 0.999, true},
		{9999, 0.999, false},
		{0, 0.5, false},
	} {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v (beyond = %d)", c.n, c.p, got, c.want, beyond(c.n, c.p))
		}
	}
}

func TestBlockPercentileIgnoresOneSlowBlock(t *testing.T) {
	// Five blocks of 1..10; one block is slowed tenfold. The whole-run
	// p90 lands in the slow block, the median block p90 does not.
	var s samples
	for b := 0; b < tailBlocks; b++ {
		for v := 1; v <= 10; v++ {
			if b == 2 {
				s = append(s, float64(10*v))
			} else {
				s = append(s, float64(v))
			}
		}
	}
	if got := percentile(s, 0.9); got != 50 {
		t.Errorf("whole-run p90 = %v, want 50", got)
	}
	if got := blockPercentile(s, 0.9); got != 9 {
		t.Errorf("blockPercentile p90 = %v, want 9", got)
	}
	if got := blockPercentile(samples{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("blockPercentile of fewer samples than blocks = %v, want 2", got)
	}
}
