package superfw

// One testing.B benchmark family per table/figure of the paper's
// evaluation. These run at reduced ("quick") sizes so `go test -bench=.`
// finishes on a laptop; `cmd/apspbench` regenerates the full-scale
// experiment reports.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/apsp"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/semiring"
)

// BenchmarkSemiringGemm measures the min-plus GEMM kernel (§5.1.2): the
// throughput that bounds every FW-family algorithm.
func BenchmarkSemiringGemm(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			A := gen.ErdosRenyi(n, float64(n)/4, gen.WeightUniform, 1).ToDense()
			B := gen.ErdosRenyi(n, float64(n)/4, gen.WeightUniform, 2).ToDense()
			C := semiring.NewInfMat(n, n)
			b.SetBytes(int64(3 * n * n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				semiring.MinPlusMulAdd(C, A, B)
			}
			b.ReportMetric(2*float64(n)*float64(n)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
		})
	}
}

// BenchmarkDiagKernel measures the dense FW kernel used by DiagUpdate.
func BenchmarkDiagKernel(b *testing.B) {
	for _, n := range []int{64, 128} {
		b.Run(fmt.Sprintf("fw/n=%d", n), func(b *testing.B) {
			src := gen.ErdosRenyi(n, 8, gen.WeightUniform, 3).ToDense()
			work := semiring.NewMat(n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.Copy(src)
				semiring.FloydWarshall(work)
			}
		})
		b.Run(fmt.Sprintf("blocked/n=%d", n), func(b *testing.B) {
			src := gen.ErdosRenyi(n, 8, gen.WeightUniform, 3).ToDense()
			work := semiring.NewMat(n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				work.Copy(src)
				semiring.BlockedFloydWarshall(work, 32)
			}
		})
	}
}

// benchGraph builds a catalog entry at quick scale.
func benchGraph(b *testing.B, name string) *Graph {
	b.Helper()
	e, ok := bench.Find(name)
	if !ok {
		b.Fatalf("unknown catalog graph %q", name)
	}
	return e.Build(true)
}

// BenchmarkTable2WorkScaling measures the symbolic phase that produces
// Table 2's W(n) counts: nested dissection + supernode extraction on
// grids of growing size (the numeric counts themselves are exact and
// printed by cmd/apspbench -exp table2).
func BenchmarkTable2WorkScaling(b *testing.B) {
	for _, s := range []int{16, 24, 32} {
		b.Run(fmt.Sprintf("grid=%dx%d", s, s), func(b *testing.B) {
			g := gen.Grid2D(s, s, gen.WeightUniform, 4)
			ord := order.GridND(s, s, 32)
			b.ResetTimer()
			var ops int64
			for i := 0; i < b.N; i++ {
				plan, err := core.NewPlan(g, core.Options{Ordering: core.OrderCustom, Custom: &ord})
				if err != nil {
					b.Fatal(err)
				}
				ops = plan.PlannedOps()
			}
			b.ReportMetric(float64(ops), "fused-ops")
		})
	}
}

// BenchmarkFig6aSmallGraphs: the small-graph algorithm comparison.
func BenchmarkFig6aSmallGraphs(b *testing.B) {
	graphs := []string{"geoknn_s", "hypercube", "ba_sparse"}
	algos := []apsp.Algorithm{apsp.AlgoBlockedFW, apsp.AlgoSuperBFS, apsp.AlgoSuperFW, apsp.AlgoDijkstra}
	for _, gn := range graphs {
		g := benchGraph(b, gn)
		for _, a := range algos {
			b.Run(fmt.Sprintf("%s/%s", gn, a), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := apsp.Run(a, g, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig6bLargeGraphs: the large-graph comparison (O(n³)
// algorithms excluded, as in the paper).
func BenchmarkFig6bLargeGraphs(b *testing.B) {
	graphs := []string{"road_l", "finance_l", "community_l"}
	algos := []apsp.Algorithm{apsp.AlgoDijkstra, apsp.AlgoSuperFW, apsp.AlgoBoostDijkstra, apsp.AlgoDeltaStep}
	for _, gn := range graphs {
		g := benchGraph(b, gn)
		for _, a := range algos {
			b.Run(fmt.Sprintf("%s/%s", gn, a), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := apsp.Run(a, g, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig7Scaling: strong scaling across thread counts.
func BenchmarkFig7Scaling(b *testing.B) {
	g := benchGraph(b, "finance_l")
	plan, err := core.NewPlan(g, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, threads := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("superfw/t=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.SolveWith(threads, true); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("dijkstra/t=%d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := apsp.Dijkstra(g, threads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8EtreeParallelism: SuperFw with and without etree-level
// scheduling.
func BenchmarkFig8EtreeParallelism(b *testing.B) {
	for _, gn := range []string{"powergrid_s", "finance_l"} {
		g := benchGraph(b, gn)
		plan, err := core.NewPlan(g, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, etree := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/etree=%v", gn, etree), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := plan.SolveWith(4, etree); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable3Symbolic measures the pre-processing pipeline (§5.1.4):
// ordering plus symbolic analysis per catalog graph.
func BenchmarkTable3Symbolic(b *testing.B) {
	for _, gn := range []string{"geoknn_s", "road_m", "mesh3d_s"} {
		g := benchGraph(b, gn)
		b.Run(gn, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewPlan(g, core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOrderingAblation compares numeric time across orderings on a
// mesh — the DESIGN.md ablation of the fill-reducing ordering choice.
func BenchmarkOrderingAblation(b *testing.B) {
	g := benchGraph(b, "geoknn_s")
	for _, ok := range []core.OrderingKind{core.OrderND, core.OrderMinDegree, core.OrderBFS, core.OrderRCM, core.OrderNatural} {
		plan, err := core.NewPlan(g, core.Options{Ordering: ok, EtreeParallel: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(ok.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.SolveWith(0, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(plan.PlannedOps()), "fused-ops")
		})
	}
}

// BenchmarkFactor measures the O(fill) supernodal factor extension:
// factorization, SSSP sweeps, and 2-hop-label point queries, against the
// per-query Dijkstra alternative.
func BenchmarkFactor(b *testing.B) {
	g := benchGraph(b, "road_m")
	plan, err := core.NewPlan(g, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("factorize", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewFactor(plan, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	f, err := core.NewFactor(plan, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sssp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = f.SSSP(i % g.N)
		}
	})
	b.Run("dijkstra-sssp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := apsp.DijkstraSSSP(g, i%g.N); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("label-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = f.Dist(i%g.N, (i*7919)%g.N)
		}
	})
}

// BenchmarkPathTracking measures the overhead of next-hop maintenance.
func BenchmarkPathTracking(b *testing.B) {
	g := benchGraph(b, "geoknn_s")
	for _, track := range []bool{false, true} {
		opts := core.DefaultOptions()
		opts.TrackPaths = track
		plan, err := core.NewPlan(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("track=%v", track), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.SolveWith(0, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWidestPath measures the max-min semiring on the same engine.
func BenchmarkWidestPath(b *testing.B) {
	g := benchGraph(b, "geoknn_s")
	for _, K := range []*semiring.Kernels{semiring.MinPlusKernels, semiring.MaxMinKernels} {
		opts := core.DefaultOptions()
		opts.Semiring = K
		plan, err := core.NewPlan(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(K.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.SolveWith(0, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecreaseEdge measures the incremental O(n²) edge update
// against a full re-solve.
func BenchmarkDecreaseEdge(b *testing.B) {
	g := benchGraph(b, "geoknn_s")
	plan, err := core.NewPlan(g, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	res, err := plan.Solve()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u := i % g.N
			v := (u + g.N/2) % g.N
			if err := res.DecreaseEdge(u, v, 0.001/float64(i+1), 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("resolve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.SolveWith(0, true); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// imbalancedCliqueChains builds the deliberately imbalanced
// path-of-cliques workload: `chains` independent paths of `length`
// cliques each, meeting at a small root clique. Every clique has `small`
// vertices except one per chain — at a different (staggered) depth in
// each chain — which has `big`. The resulting supernodal etree has width
// `chains` at every level and exactly one expensive supernode per level,
// so a level-synchronous schedule pays ≈ length × T(big) in barriers
// while the per-chain critical path is only ≈ length × T(small) + T(big)
// — the gap dependency-driven scheduling recovers.
func imbalancedCliqueChains(chains, length, small, big int) (*Graph, order.Ordering) {
	type clique struct{ lo, hi int }
	var (
		edges []Edge
		nodes []order.Node
		next  int
	)
	addClique := func(size int) clique {
		c := clique{next, next + size}
		for u := c.lo; u < c.hi; u++ {
			for v := u + 1; v < c.hi; v++ {
				edges = append(edges, Edge{U: u, V: v, W: 1 + float64((u*31+v)%97)/97})
			}
		}
		next = c.hi
		return c
	}
	for c := 0; c < chains; c++ {
		chainLo := next
		var prev clique
		for d := 0; d < length; d++ {
			size := small
			if d == c*length/chains {
				size = big
			}
			cur := addClique(size)
			nodes = append(nodes, order.Node{
				Parent: len(nodes) + 1, // chain tops re-wired to the root below
				Lo:     cur.lo,
				Hi:     cur.hi,
				SubLo:  chainLo,
				IsLeaf: d == 0,
			})
			if d > 0 {
				edges = append(edges, Edge{U: prev.hi - 1, V: cur.lo, W: 1})
			}
			prev = cur
		}
	}
	root := addClique(small)
	rootIdx := len(nodes)
	for c := 0; c < chains; c++ {
		top := &nodes[(c+1)*length-1]
		top.Parent = rootIdx
		edges = append(edges, Edge{U: top.Hi - 1, V: root.lo, W: 1})
	}
	nodes = append(nodes, order.Node{Parent: -1, Lo: root.lo, Hi: root.hi, SubLo: 0})
	perm := make([]int, next)
	for i := range perm {
		perm[i] = i
	}
	return graph.MustFromEdges(next, edges), order.Ordering{Perm: perm, Tree: nodes}
}

// TestImbalancedCliqueChains pins the bench workload's structure (one
// supernode per clique, width = chains at every chain level) and checks
// the DAG schedule produces the Floyd-Warshall reference on it.
func TestImbalancedCliqueChains(t *testing.T) {
	const chains, length, small, big = 3, 4, 6, 14
	g, ord := imbalancedCliqueChains(chains, length, small, big)
	plan, err := core.NewPlan(g, core.Options{
		Ordering: core.OrderCustom, Custom: &ord,
		MaxBlock: big, EtreeParallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.NumSupernodes(), chains*length+1; got != want {
		t.Fatalf("workload built %d supernodes, want %d (one per clique)", got, want)
	}
	res, err := plan.SolveWith(4, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dense().EqualTol(core.Closure(g.ToDense()), 1e-9) {
		t.Fatal("DAG schedule diverged from Floyd-Warshall on the clique-chain workload")
	}
}

// BenchmarkScheduleImbalanced runs the dependency-driven schedule on the
// imbalanced etree. Besides ns/op, each run reports "overlap-ms" — how
// much work crossed etree level boundaries concurrently (the would-be
// barrier wait of a level-synchronous schedule, from the profiled level
// spans). The number is the structural win and is hardware-independent,
// which matters because on a single-core host wall-clock times say
// nothing about barriers (they only waste time when cores sit idle).
func BenchmarkScheduleImbalanced(b *testing.B) {
	g, ord := imbalancedCliqueChains(4, 8, 24, 160)
	plan, err := core.NewPlan(g, core.Options{
		Ordering: core.OrderCustom, Custom: &ord,
		MaxBlock: 512, EtreeParallel: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sched=dag", func(b *testing.B) {
		var overlap time.Duration
		for i := 0; i < b.N; i++ {
			_, prof, err := plan.SolveProfiled(4, true)
			if err != nil {
				b.Fatal(err)
			}
			var spans, end time.Duration
			for _, l := range prof.Levels {
				spans += l.Wall
			}
			for _, sp := range prof.Supernodes {
				if e := sp.Start + sp.Wall; e > end {
					end = e
				}
			}
			if spans > end {
				overlap += spans - end
			}
		}
		b.ReportMetric(float64(overlap.Milliseconds())/float64(b.N), "overlap-ms")
	})
}

// BenchmarkLeafSizeAblation sweeps the nested-dissection leaf size: tiny
// leaves deepen the tree (more scheduling, less dense-block work); huge
// leaves waste dense FW work on internally sparse blocks.
func BenchmarkLeafSizeAblation(b *testing.B) {
	g := benchGraph(b, "road_m")
	for _, leaf := range []int{8, 32, 64, 128} {
		plan, err := core.NewPlan(g, core.Options{Ordering: core.OrderND, LeafSize: leaf, EtreeParallel: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("leaf=%d", leaf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.SolveWith(0, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(plan.PlannedOps()), "fused-ops")
		})
	}
}

// BenchmarkExactReachAblation compares Algorithm 3's D∪A reach with the
// ancestor-exact struct(k) refinement on an ordering with skinny etrees.
func BenchmarkExactReachAblation(b *testing.B) {
	// Natural ordering on a road-like graph: the etree is skinny and
	// A(k) wildly over-approximates the true block structure.
	g := benchGraph(b, "road_m")
	for _, exact := range []bool{false, true} {
		plan, err := core.NewPlan(g, core.Options{Ordering: core.OrderNatural, ExactReach: exact, EtreeParallel: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("natural/exact=%v", exact), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.SolveWith(0, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(plan.PlannedOps()), "fused-ops")
		})
	}
}

// BenchmarkBlockSizeAblation sweeps the supernode block cap — the
// locality knob of the supernodal data structure.
func BenchmarkBlockSizeAblation(b *testing.B) {
	g := benchGraph(b, "geoknn_s")
	for _, mb := range []int{16, 64, 128, 256} {
		plan, err := core.NewPlan(g, core.Options{Ordering: core.OrderND, MaxBlock: mb, EtreeParallel: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("maxblock=%d", mb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := plan.SolveWith(0, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
