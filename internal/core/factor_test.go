package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/semiring"
)

func factorGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"grid":         gen.Grid2D(9, 8, gen.WeightUniform, 81),
		"geo":          gen.GeometricKNN(150, 2, 3, gen.WeightEuclidean, 82),
		"road":         gen.RoadNetwork(12, 12, 0.3, 83),
		"ba":           gen.BarabasiAlbert(80, 3, gen.WeightUniform, 84),
		"path":         gen.Grid2D(40, 1, gen.WeightUniform, 85),
		"disconnected": disconnectedPair(),
	}
}

func TestFactorSSSPMatchesDense(t *testing.T) {
	for name, g := range factorGraphs() {
		want := Closure(g.ToDense())
		for _, ok := range []OrderingKind{OrderND, OrderBFS} {
			for _, threads := range []int{1, 4} {
				plan, err := NewPlan(g, Options{Ordering: ok, MaxBlock: 16, LeafSize: 12})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				f, err := NewFactor(plan, threads)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for src := 0; src < g.N; src += 7 {
					d := f.SSSP(src)
					for v := 0; v < g.N; v++ {
						x, y := d[v], want.At(src, v)
						if math.IsInf(x, 1) != math.IsInf(y, 1) || (!math.IsInf(x, 1) && math.Abs(x-y) > 1e-9) {
							t.Fatalf("%s ord=%v t=%d: SSSP(%d)[%d] = %g, want %g", name, ok, threads, src, v, x, y)
						}
					}
				}
			}
		}
	}
}

func TestFactorDistLabels(t *testing.T) {
	for name, g := range factorGraphs() {
		want := Closure(g.ToDense())
		plan, err := NewPlan(g, Options{Ordering: OrderND, MaxBlock: 16, LeafSize: 12})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		f, err := NewFactor(plan, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		step := g.N/25 + 1
		for u := 0; u < g.N; u += step {
			for v := 0; v < g.N; v += step {
				got := f.Dist(u, v)
				exp := want.At(u, v)
				if math.IsInf(got, 1) != math.IsInf(exp, 1) || (!math.IsInf(got, 1) && math.Abs(got-exp) > 1e-9) {
					t.Fatalf("%s: Dist(%d,%d) = %g, want %g", name, u, v, got, exp)
				}
			}
		}
	}
}

func TestFactorMemorySmallerThanDense(t *testing.T) {
	// On a planar-like graph the factor is asymptotically smaller than
	// the dense matrix; at n=1600 it should already be far below 8n².
	g := gen.GeometricKNN(1600, 2, 3, gen.WeightUniform, 86)
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactor(plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	dense := int64(8) * int64(g.N) * int64(g.N)
	if f.Memory() >= dense/4 {
		t.Errorf("factor memory %d should be well below dense %d", f.Memory(), dense)
	}
}

func TestFactorNegativeCycleDetected(t *testing.T) {
	// Build a graph whose closure has a negative cycle via a negative
	// symmetric edge (a negative 2-cycle). NewPlan/Factor should report.
	g := graph.MustFromEdges(4, []graph.Edge{
		{U: 0, V: 1, W: -1}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1},
	})
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFactor(plan, 1); err == nil {
		t.Fatal("negative 2-cycle must be detected by factorization")
	}
}

func TestFactorWidest(t *testing.T) {
	g := gen.GeometricKNN(120, 2, 3, gen.WeightUniform, 87)
	plan, err := NewPlan(g, Options{Semiring: semiring.MaxMinKernels, MaxBlock: 16, LeafSize: 12})
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactor(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := widestClosure(g)
	for src := 0; src < g.N; src += 11 {
		d := f.SSSP(src)
		for v := 0; v < g.N; v++ {
			if math.Abs(d[v]-want.At(src, v)) > 1e-12 && d[v] != want.At(src, v) {
				t.Fatalf("widest SSSP(%d)[%d] = %g, want %g", src, v, d[v], want.At(src, v))
			}
		}
	}
	if got, exp := f.Dist(3, 97), want.At(3, 97); got != exp {
		t.Fatalf("widest Dist = %g, want %g", got, exp)
	}
}

func TestFactorRejectsTrackPaths(t *testing.T) {
	g := gen.Grid2D(4, 4, gen.WeightUnit, 88)
	plan, _ := NewPlan(g, Options{TrackPaths: true})
	if _, err := NewFactor(plan, 1); err == nil {
		t.Fatal("factor must reject path tracking")
	}
}

func TestSnodeOf(t *testing.T) {
	g := gen.Grid2D(10, 10, gen.WeightUniform, 89)
	plan, err := NewPlan(g, Options{MaxBlock: 8, LeafSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N; v++ {
		k := plan.snodeOf(v)
		r := plan.Sn.Ranges[k]
		if v < r.Lo || v >= r.Hi {
			t.Fatalf("snodeOf(%d) = %d covering [%d,%d)", v, k, r.Lo, r.Hi)
		}
	}
}

func TestFactorMultiSSSP(t *testing.T) {
	g := gen.GeometricKNN(120, 2, 3, gen.WeightUniform, 96)
	plan, err := NewPlan(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFactor(plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	sources := []int{0, 7, 42, 119}
	rows := f.MultiSSSP(sources, 3)
	for i, src := range sources {
		single := f.SSSP(src)
		for v := range single {
			if rows[i][v] != single[v] && !(math.IsInf(rows[i][v], 1) && math.IsInf(single[v], 1)) {
				t.Fatalf("MultiSSSP row %d differs from SSSP at %d", i, v)
			}
		}
	}
}

// wideFactorGraph orders naturally into an etree with two leaf chains
// under one root chain: C = [0,40) and A = [40,232) are paths with
// chords, B = [232,492) is a path with chords, and both leaf chains hang
// off vertex 232 with a few more edges into B. Under MaxBlock 192 the
// chain A∪B splits into supernodes [40,232), [232,424), [424,492): A is
// a diagParallelCutoff-sized supernode whose ancestor span (260) is
// wider than tileSize, and C is its cousin, scattering into the same
// ancestor blocks.
func wideFactorGraph(t *testing.T) (*graph.Graph, Options) {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	var edges []graph.Edge
	add := func(u, v int) { edges = append(edges, graph.Edge{U: u, V: v, W: 1 + 9*rng.Float64()}) }
	chain := func(lo, hi, chords int) {
		for v := lo; v+1 < hi; v++ {
			add(v, v+1)
		}
		for i := 0; i < chords; i++ {
			add(lo+rng.Intn(hi-lo), lo+rng.Intn(hi-lo))
		}
	}
	chain(0, 40, 30)
	chain(40, 232, 300)
	chain(232, 492, 200)
	add(39, 232)
	add(231, 232)
	for i := 0; i < 20; i++ {
		add(rng.Intn(40), 232+rng.Intn(260))
		add(40+rng.Intn(192), 232+rng.Intn(260))
	}
	g, err := graph.NewFromEdges(492, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, Options{Ordering: OrderNatural, MaxBlock: diagParallelCutoff, EtreeParallel: true}
}

// TestFactorWideSupernode drives the factor through the branches only
// large supernodes reach — the parallel blocked diagonal and outer
// sections spanning more than one dense tile — for both semirings at
// one and four threads, then checks the Outer-only replay of a live
// increase on the same plan against a fresh factor of the updated graph.
func TestFactorWideSupernode(t *testing.T) {
	g, opts := wideFactorGraph(t)
	sn := mustPlan(t, g, opts).Sn
	wide := false
	for k, r := range sn.Ranges {
		span := 0
		for _, a := range sn.Ancestors(k) {
			span += sn.Ranges[a].Size()
		}
		wide = wide || (r.Size() >= diagParallelCutoff && span > tileSize)
	}
	if !wide {
		t.Fatal("fixture has no supernode of diagParallelCutoff vertices with an ancestor span over tileSize")
	}
	for _, K := range []*semiring.Kernels{semiring.MinPlusKernels, semiring.MaxMinKernels} {
		want := Closure(g.ToDense())
		if K == semiring.MaxMinKernels {
			want = widestClosure(g)
		}
		o := opts
		o.Semiring = K
		plan := mustPlan(t, g, o)
		for _, threads := range []int{1, 4} {
			f, err := NewFactor(plan, threads)
			if err != nil {
				t.Fatal(err)
			}
			for u := 0; u < g.N; u += 7 {
				row := f.SSSP(u)
				for v := range row {
					if w := want.At(u, v); math.Abs(row[v]-w) > 1e-9 && row[v] != w {
						t.Fatalf("%s threads=%d: dist(%d,%d) = %g, want %g", K.Name, threads, u, v, row[v], w)
					}
				}
			}
		}
	}

	// Increase edges inside B: only B's supernodes are dirty, so the
	// patch resets them and replays the cousins' outer products into them.
	f, err := NewFactor(mustPlan(t, g, opts), 4)
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewFactorUpdater(g, f, UpdaterOptions{DirtyThreshold: 1, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	b := NewUpdateBatch()
	for _, e := range g.Edges() {
		if e.U >= 300 && e.V >= 300 && (e.U+e.V)%5 == 0 {
			if err := b.Set(e.U, e.V, 3*e.W); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, err := u.Apply(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stats.Increases == 0 || p.Stats.FullRebuild || p.Stats.DirtySupernodes == p.Stats.TotalSupernodes {
		t.Fatalf("expected a partial increase patch, got %+v", p.Stats)
	}
	fresh, err := NewFactor(mustPlan(t, applyGraph(g, b), opts), 1)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < g.N; src += 5 {
		got, want := p.Factor.SSSP(src), fresh.SSSP(src)
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("patched dist(%d,%d) = %g, fresh factor %g", src, v, got[v], want[v])
			}
		}
	}
}

func mustPlan(t *testing.T, g *graph.Graph, opts Options) *Plan {
	t.Helper()
	p, err := NewPlan(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
