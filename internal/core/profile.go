package core

// Numeric-phase profiling: per-stage and per-supernode accounting of
// where the elimination spends its time. Understanding the DiagUpdate /
// PanelUpdate / OuterUpdate split and the schedule's load balance is how
// the paper's Fig 8 discussion reasons about etree parallelism ("small
// graphs perform very little per-iteration work").
//
// Attribution is per-supernode: every elimination records its start
// offset and duration relative to the start of the numeric phase. Level
// summaries are derived from the supernode spans. When cousins run
// concurrently, spans of adjacent levels overlap, and the difference
// between the sum of level spans and the phase wall time is the barrier
// wait a level-synchronous schedule would have spent. A sequential run
// walks supernodes in postorder, which interleaves levels without any
// concurrency, so there the overlap means nothing and is not reported.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/semiring"
)

// Profile accumulates stage timings during a profiled solve. A stage
// time is the sum over supernodes of that phase's wall time inside the
// elimination step, so with T cousins running at once the stages can
// add up to T× the wall time.
type Profile struct {
	Diag  atomic.Int64 // ns in diagonal FW closures
	Panel atomic.Int64 // ns in panel updates
	Outer atomic.Int64 // ns in outer-product updates
	// Supernodes records one span per eliminated supernode, ordered by
	// start offset.
	Supernodes []SupernodeProfile
	// Levels summarizes the supernode spans per etree level.
	Levels []LevelProfile
	// Kernel is the GEMM-engine counter delta spanning the profiled
	// numeric phase (see Result.Kernel for the concurrency caveat).
	Kernel semiring.KernelCounters

	mu         sync.Mutex // guards Supernodes during the solve
	concurrent bool       // cousins could run at the same time
}

// SupernodeProfile is the elimination span of one supernode, relative to
// the start of the numeric phase.
type SupernodeProfile struct {
	Supernode int
	Level     int
	Vertices  int
	Workers   int           // intra-supernode parallelism budget it ran with
	Start     time.Duration // offset from numeric-phase start
	Wall      time.Duration
}

// LevelProfile is the wall-clock footprint of one etree level: the span
// from its first supernode start to its last supernode end. Spans of
// different levels overlap, both under concurrent cousins and under the
// sequential postorder walk.
type LevelProfile struct {
	Level      int
	Supernodes int
	Vertices   int
	Wall       time.Duration
}

// record appends one supernode span (thread-safe).
func (pr *Profile) record(sp SupernodeProfile) {
	pr.mu.Lock()
	pr.Supernodes = append(pr.Supernodes, sp)
	pr.mu.Unlock()
}

// finish sorts the supernode spans and derives the level summaries.
// concurrent records whether the run was etree-parallel.
func (pr *Profile) finish(numLevels int, concurrent bool) {
	pr.concurrent = concurrent
	sort.Slice(pr.Supernodes, func(i, j int) bool {
		a, b := pr.Supernodes[i], pr.Supernodes[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Supernode < b.Supernode
	})
	pr.Levels = make([]LevelProfile, numLevels)
	first := make([]time.Duration, numLevels)
	last := make([]time.Duration, numLevels)
	for i := range pr.Levels {
		pr.Levels[i].Level = i
		first[i] = 1<<63 - 1
	}
	for _, sp := range pr.Supernodes {
		l := &pr.Levels[sp.Level]
		l.Supernodes++
		l.Vertices += sp.Vertices
		if sp.Start < first[sp.Level] {
			first[sp.Level] = sp.Start
		}
		if end := sp.Start + sp.Wall; end > last[sp.Level] {
			last[sp.Level] = end
		}
	}
	for i := range pr.Levels {
		if pr.Levels[i].Supernodes > 0 {
			pr.Levels[i].Wall = last[i] - first[i]
		}
	}
}

// String renders the profile as a compact report.
func (pr *Profile) String() string {
	var b strings.Builder
	total := pr.Diag.Load() + pr.Panel.Load() + pr.Outer.Load()
	if total == 0 {
		total = 1
	}
	fmt.Fprintf(&b, "stage time (summed across workers): diag %v (%.0f%%), panel %v (%.0f%%), outer %v (%.0f%%)\n",
		time.Duration(pr.Diag.Load()).Round(time.Microsecond), 100*float64(pr.Diag.Load())/float64(total),
		time.Duration(pr.Panel.Load()).Round(time.Microsecond), 100*float64(pr.Panel.Load())/float64(total),
		time.Duration(pr.Outer.Load()).Round(time.Microsecond), 100*float64(pr.Outer.Load())/float64(total))
	if len(pr.Levels) > 0 {
		var sum time.Duration
		b.WriteString("etree levels (leaves first, span = first start → last end):\n")
		for _, l := range pr.Levels {
			sum += l.Wall
			fmt.Fprintf(&b, "  level %2d: %4d supernodes, %6d vertices, %10v\n",
				l.Level, l.Supernodes, l.Vertices, l.Wall.Round(time.Microsecond))
		}
		if end := pr.phaseEnd(); pr.concurrent && end > 0 && sum > end {
			// Overlapping level spans: supernodes of different levels ran
			// concurrently instead of idling at barriers.
			fmt.Fprintf(&b, "  level spans sum to %v over a %v phase: %v of would-be barrier wait overlapped\n",
				sum.Round(time.Microsecond), end.Round(time.Microsecond), (sum - end).Round(time.Microsecond))
		}
	}
	if sp, ok := pr.slowestSupernode(); ok {
		fmt.Fprintf(&b, "slowest supernode: #%d (level %d, %d vertices, %d workers) %v\n",
			sp.Supernode, sp.Level, sp.Vertices, sp.Workers, sp.Wall.Round(time.Microsecond))
	}
	if k := pr.Kernel; k.Calls > 0 {
		fmt.Fprintf(&b, "gemm kernels: %d calls (%.0f%% dense, %d shards), %d fused ops, %s packed\n",
			k.Calls, 100*k.DenseRatio(), k.ParallelShards, k.FusedOps, fmtBytes(k.PackedBytes))
	}
	if k := pr.Kernel; k.Elims > 0 {
		fmt.Fprintf(&b, "fused pipeline: %d eliminations, %s pack reuse; phase footprint diag %v, panel %v, outer %v",
			k.Elims, fmtBytes(k.PackedReuseBytes),
			time.Duration(k.DiagNS).Round(time.Microsecond),
			time.Duration(k.PanelNS).Round(time.Microsecond),
			time.Duration(k.OuterNS).Round(time.Microsecond))
	}
	return strings.TrimRight(b.String(), "\n")
}

// fmtBytes renders a byte count with a binary-prefix unit.
func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// phaseEnd returns the latest supernode end offset.
func (pr *Profile) phaseEnd() time.Duration {
	var end time.Duration
	for _, sp := range pr.Supernodes {
		if e := sp.Start + sp.Wall; e > end {
			end = e
		}
	}
	return end
}

// slowestSupernode returns the span with the largest wall time.
func (pr *Profile) slowestSupernode() (SupernodeProfile, bool) {
	if len(pr.Supernodes) == 0 {
		return SupernodeProfile{}, false
	}
	best := pr.Supernodes[0]
	for _, sp := range pr.Supernodes[1:] {
		if sp.Wall > best.Wall {
			best = sp
		}
	}
	return best, true
}

// SolveProfiled is SolveWith plus stage/supernode accounting. The
// accounting adds two clock reads per update task; for realistic
// supernode sizes the overhead is well under 1%. Options.Context is
// honored as the cancellation context.
func (p *Plan) SolveProfiled(threads int, etreeParallel bool) (*Result, *Profile, error) {
	K := p.Opts.Semiring
	prof := &Profile{}
	res, err := p.finish(p.Opts.context(), p.PG.ToDenseWith(K.Zero, K.One), threads, etreeParallel, prof)
	if res == nil {
		return nil, nil, err
	}
	return res, prof, err
}
