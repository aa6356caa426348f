package core

import (
	"time"

	"repro/internal/graph"
	"repro/internal/semiring"
)

// AutotuneMaxBlock picks the supernode block cap empirically: it builds
// a plan per candidate size and times a numeric solve on the graph
// itself (when the graph is small) or on a sampled subgraph, returning
// the fastest candidate. The block cap is the main machine-dependent
// knob of the supernodal data structure — it trades kernel efficiency
// (bigger dense blocks) against schedule granularity and padding, and
// the best value depends on cache sizes the library cannot know.
//
// Candidates defaults to {32, 64, 128, 256} when nil.
func AutotuneMaxBlock(g *graph.Graph, opts Options, candidates []int) (best int, err error) {
	if candidates == nil {
		candidates = []int{32, 64, 128, 256}
	}
	sample := autotuneSample(g)
	bestTime := time.Duration(1<<62 - 1)
	for _, mb := range candidates {
		o := opts
		o.MaxBlock = mb
		plan, perr := NewPlan(sample, o)
		if perr != nil {
			return 0, perr
		}
		res, serr := plan.Solve()
		if serr != nil {
			return 0, serr
		}
		if res.NumericTime < bestTime {
			bestTime = res.NumericTime
			best = mb
		}
	}
	return best, nil
}

// AutotuneGemm picks the GEMM-engine tuning empirically, mirroring
// AutotuneMaxBlock: it installs each candidate tuning, times a numeric
// solve on the graph (or a sampled subgraph) and keeps the fastest,
// leaving the winner installed process-wide via semiring.SetGemmTuning.
// The knobs it sweeps — pack-tile shape, the small-GEMM cutoff and the
// dense-dispatch density threshold — are exactly the machine- and
// workload-dependent parameters of the adaptive kernel engine.
//
// Candidates defaults to semiring.GemmTuningCandidates() when nil. On
// error the previously installed tuning is restored.
func AutotuneGemm(g *graph.Graph, opts Options, candidates []semiring.GemmTuning) (semiring.GemmTuning, error) {
	if candidates == nil {
		candidates = semiring.GemmTuningCandidates()
	}
	sample := autotuneSample(g)
	prev := semiring.CurrentGemmTuning()
	best, bestTime := prev, time.Duration(1<<62-1)
	for _, cand := range candidates {
		semiring.SetGemmTuning(cand)
		plan, perr := NewPlan(sample, opts)
		if perr != nil {
			semiring.SetGemmTuning(prev)
			return prev, perr
		}
		res, serr := plan.Solve()
		if serr != nil {
			semiring.SetGemmTuning(prev)
			return prev, serr
		}
		if res.NumericTime < bestTime {
			bestTime = res.NumericTime
			best = cand
		}
	}
	semiring.SetGemmTuning(best)
	return best, nil
}

// autotuneSample returns g itself when small, or a BFS ball around a
// pseudo-peripheral vertex: it preserves local structure (degree,
// weights) at a size where a few trial solves are cheap.
func autotuneSample(g *graph.Graph) *graph.Graph {
	const sampleCap = 3000
	if g.N <= sampleCap {
		return g
	}
	root := g.PseudoPeripheral(0)
	order := g.BFSOrder(root)
	if len(order) > sampleCap {
		order = order[:sampleCap]
	}
	return g.InducedSubgraph(order)
}
