package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/semiring"
)

// graphInfo identifies a generated input graph.
func graphInfo(g *graph.Graph) map[string]any {
	return map[string]any{"n": g.N, "m": g.M(), "digest": fmt.Sprintf("%016x", core.GraphDigest(g))}
}

// oracleSources picks k source vertices for the oracle checks.
func oracleSources(n int, seed int64, k int) []int {
	rng := rand.New(rand.NewSource(subSeed(seed, "oracle")))
	out := make([]int, k)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

// numericCalls collects semiring counter deltas around numeric calls.
// The counters are process-global, so traced runs make these calls one
// at a time.
type numericCalls struct {
	k    []semiring.KernelCounters
	wall []time.Duration
}

func (nc *numericCalls) add(k semiring.KernelCounters, wall time.Duration) {
	nc.k = append(nc.k, k)
	nc.wall = append(nc.wall, wall)
}

// report sets the semiring.* and par.busy_frac metrics as medians over
// the calls. busy_frac is approximate: the phase timers are wall
// footprints of concurrently running supernodes, not CPU time.
func (nc *numericCalls) report(r *result, threads int) {
	if len(nc.k) == 0 {
		return
	}
	field := func(f func(semiring.KernelCounters) float64) float64 {
		s := make(samples, len(nc.k))
		for i, k := range nc.k {
			s[i] = f(k)
		}
		return median(s)
	}
	phaseNS := func(k semiring.KernelCounters) float64 { return float64(k.DiagNS + k.PanelNS + k.OuterNS) }
	r.layer("semiring.diag_ms", field(func(k semiring.KernelCounters) float64 { return float64(k.DiagNS) / 1e6 }), "ms")
	r.layer("semiring.panel_ms", field(func(k semiring.KernelCounters) float64 { return float64(k.PanelNS) / 1e6 }), "ms")
	r.layer("semiring.outer_ms", field(func(k semiring.KernelCounters) float64 { return float64(k.OuterNS) / 1e6 }), "ms")
	r.layer("semiring.fused_ops", field(func(k semiring.KernelCounters) float64 { return float64(k.FusedOps) }), "count")
	r.layer("semiring.packed_mb", field(func(k semiring.KernelCounters) float64 { return float64(k.PackedBytes) / 1e6 }), "MB")
	r.layer("semiring.reuse_mb", field(func(k semiring.KernelCounters) float64 { return float64(k.PackedReuseBytes) / 1e6 }), "MB")
	r.layer("semiring.dense_calls", field(func(k semiring.KernelCounters) float64 { return float64(k.DenseCalls) }), "count")
	r.layer("semiring.stream_calls", field(func(k semiring.KernelCounters) float64 { return float64(k.StreamCalls) }), "count")
	r.layer("semiring.gops", field(func(k semiring.KernelCounters) float64 { return 2 * float64(k.FusedOps) / phaseNS(k) }), "Gop/s")
	busy := make(samples, len(nc.k))
	for i, k := range nc.k {
		busy[i] = phaseNS(k) / (float64(nc.wall[i]) * float64(threads))
	}
	r.layer("par.busy_frac", median(busy), "ratio")
}

// planTraced builds the plan core.NewPlan(g, core.DefaultOptions())
// builds, as two traced layer calls: order.NestedDissection, then
// core.NewPlan with that ordering (symbolic analysis).
func planTraced(tr *tracer, op uint64, parent int, g *graph.Graph) (*core.Plan, error) {
	s := tr.begin(op, parent, "order.nd")
	ord := order.NestedDissection(g, order.NDOptions{})
	tr.end(s)
	opts := core.DefaultOptions()
	opts.Ordering = core.OrderCustom
	opts.Custom = &ord
	s = tr.begin(op, parent, "symbolic.plan")
	p, err := core.NewPlan(g, opts)
	tr.end(s)
	return p, err
}

// factorTraced runs core.NewFactor as a traced layer call and records its
// kernel counter delta.
func factorTraced(tr *tracer, op uint64, parent int, p *core.Plan, threads int, nc *numericCalls) (*core.Factor, error) {
	k0 := semiring.ReadKernelCounters()
	t0 := time.Now()
	s := tr.begin(op, parent, "core.factor")
	f, err := core.NewFactor(p, threads)
	tr.end(s)
	nc.add(semiring.ReadKernelCounters().Sub(k0), time.Since(t0))
	return f, err
}

// planLayers reports the exact ordering-quality counts, as medians over
// the plans of the workload's graphs.
func planLayers(r *result, plans ...*core.Plan) {
	count := func(f func(*core.Plan) int64) float64 {
		s := make(samples, len(plans))
		for i, p := range plans {
			s[i] = float64(f(p))
		}
		return median(s)
	}
	r.layer("order.top_sep", count(func(p *core.Plan) int64 { return int64(p.TopSep) }), "count")
	r.layer("symbolic.supernodes", count(func(p *core.Plan) int64 { return int64(p.NumSupernodes()) }), "count")
	r.layer("symbolic.planned_ops", count((*core.Plan).PlannedOps), "count")
	r.layer("symbolic.critical_ops", count((*core.Plan).CriticalPathOps), "count")
}

// spanLayers reports the median duration of the spans named by each
// key under the metric it maps to, in unit ("ms" or "us").
func spanLayers(r *result, spans []span, unit string, names map[string]string) {
	scale := map[string]time.Duration{"ms": time.Millisecond, "us": time.Microsecond}[unit]
	by := durationsByName(spans)
	for span, metric := range names {
		if ds := by[span]; len(ds) > 0 {
			r.layer(metric, median(durs(ds, scale)), unit)
		}
	}
}

// minCoverage is the share of an offline operation's root span that its
// child layer spans must account for; a traced run below it reports the
// gap in its configuration record.
const minCoverage = 0.98

// coverageLayer reports bench.span_coverage for the root spans named
// root and records whether it meets minCoverage.
func coverageLayer(r *result, spans []span, root string) {
	cov := median(coverageOf(spans, root))
	r.layer("bench.span_coverage", cov, "ratio")
	r.info["span_coverage_ok"] = cov >= minCoverage
}

// overhead compares the latencies of traced and untraced operations of
// one traced run.
func overhead(traced, untraced samples) float64 { return median(traced)/median(untraced) - 1 }

// checkFactor compares sampled factor answers with the oracle: label
// meets for a few pairs, and every eighth check a whole SSSP sweep.
func checkFactor(f *core.Factor, or *oracle, srcs []int, i int) bool {
	src := srcs[i%len(srcs)]
	want := or.row(src)
	for j := 0; j < 8; j++ {
		v := (i*7919 + j*104729) % f.N()
		if !agree(f.Dist(src, v), want[v]) {
			return false
		}
	}
	if i%8 == 0 {
		for v, d := range f.SSSP(src) {
			if !agree(d, want[v]) {
				return false
			}
		}
	}
	return true
}

// runBuildRoad times the offline factor build of road_l-class graphs:
// each operation is core.NewPlan(g, DefaultOptions()) then
// core.NewFactor on the next of roadBuilds graphs, one caller in a
// closed loop.
func runBuildRoad(cfg config) (*result, error) {
	graphs := roadGraphs(cfg.seed, roadBuilds)
	r := newResult()
	infos := make([]map[string]any, len(graphs))
	oracles := make([]*oracle, len(graphs))
	srcs := oracleSources(graphs[0].N, cfg.seed, 2)
	for i, g := range graphs {
		infos[i] = graphInfo(g)
		oracles[i] = newOracle(g)
		for _, s := range srcs {
			oracles[i].row(s)
		}
	}
	r.info["graphs"] = infos
	r.info["loop"] = fmt.Sprintf("closed, 1 caller: core.NewPlan(g, DefaultOptions()) + core.NewFactor, cycling over %d graphs", len(graphs))

	var nc numericCalls
	plans := make([]*core.Plan, len(graphs))
	build := func(tr *tracer, gi int) (*core.Factor, error) {
		g := graphs[gi]
		if tr == nil {
			p, err := core.NewPlan(g, core.DefaultOptions())
			if err != nil {
				return nil, err
			}
			return core.NewFactor(p, cfg.threads)
		}
		op := tr.newOp()
		root := tr.begin(op, -1, "op.build")
		defer tr.end(root)
		p, err := planTraced(tr, op, root, g)
		if err != nil {
			return nil, err
		}
		plans[gi] = p
		return factorTraced(tr, op, root, p, cfg.threads, &nc)
	}

	// Set-up is warm-up builds: nothing else stands between the graphs in
	// memory and the first timed build.
	var setups []time.Duration
	for i := 0; i < setupRepeats; i++ {
		gi := i % len(graphs)
		t0 := time.Now()
		f, err := build(nil, gi)
		setups = append(setups, time.Since(t0))
		if err != nil {
			return nil, err
		}
		if !checkFactor(f, oracles[gi], srcs, i) {
			r.failed++
		}
	}
	r.e2e["setup_s"] = metric{medianSeconds(setups), "s"}

	var all, traced, untraced, factorMB samples
	var checking time.Duration // oracle time, excluded from throughput
	start := time.Now()
	for i := 0; time.Since(start)-checking < cfg.duration(); i++ {
		gi := i % len(graphs)
		var tr *tracer
		if (i/len(graphs))%2 == 1 {
			tr = cfg.tr // traced runs trace every other round over the graphs
		}
		t0 := time.Now()
		f, err := build(tr, gi)
		ms := float64(time.Since(t0)) / 1e6
		r.attempted++
		if err != nil {
			r.failed++
			continue
		}
		all = append(all, ms)
		if tr != nil {
			traced = append(traced, ms)
		} else {
			untraced = append(untraced, ms)
		}
		factorMB = append(factorMB, float64(f.Memory())/1e6)
		c0 := time.Now()
		if !checkFactor(f, oracles[gi], srcs, i/len(graphs)) {
			r.failed++
		}
		checking += time.Since(c0)
	}
	elapsed := time.Since(start) - checking
	r.primary(all)
	r.e2e["ops_per_s"] = metric{float64(len(all)) / elapsed.Seconds(), "1/s"}
	r.latency("build", all, "ms")

	if cfg.tr != nil {
		spans := cfg.tr.snapshot()
		spanLayers(r, spans, "ms", map[string]string{"order.nd": "order.nd_ms", "symbolic.plan": "symbolic.plan_ms", "core.factor": "core.factor_ms"})
		r.layer("core.factor_mb", median(factorMB), "MB")
		var built []*core.Plan
		for _, p := range plans {
			if p != nil {
				built = append(built, p)
			}
		}
		planLayers(r, built...)
		nc.report(r, cfg.threads)
		coverageLayer(r, spans, "op.build")
		r.layer("bench.trace_overhead_frac", overhead(traced, untraced), "ratio")
	}
	return r, nil
}

// runSolveMesh3D times repeated dense SuperFw solves of a mesh3d_s-class
// graph from one plan built in set-up: Plan.SolveWith(threads, true).
func runSolveMesh3D(cfg config) (*result, error) {
	g := meshGraph(cfg.seed)
	r := newResult()
	r.info["graph"] = graphInfo(g)
	r.info["loop"] = "closed, 1 caller: Plan.SolveWith(threads, true) on a plan built in set-up"
	or := newOracle(g)
	srcs := oracleSources(g.N, cfg.seed, 4)
	for _, s := range srcs {
		or.row(s)
	}
	check := func(res *core.Result, i int) bool {
		src := srcs[i%len(srcs)]
		for v, want := range or.row(src) {
			if !agree(res.At(src, v), want) {
				return false
			}
		}
		return true
	}

	// Set-up: the plan (ordering + symbolic analysis) and one warm-up
	// solve. The traced run splits the plan into its two layer calls.
	var setups []time.Duration
	var plan *core.Plan
	var nc numericCalls
	tr := cfg.tr
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		op := tr.newOp()
		root := tr.begin(op, -1, "setup")
		var err error
		if tr == nil {
			plan, err = core.NewPlan(g, core.DefaultOptions())
		} else {
			plan, err = planTraced(tr, op, root, g)
		}
		if err != nil {
			return nil, err
		}
		res, err := plan.SolveWith(cfg.threads, true)
		tr.end(root)
		setups = append(setups, time.Since(t0))
		if err != nil {
			return nil, err
		}
		if !check(res, i) {
			r.failed++
		}
	}
	r.e2e["setup_s"] = metric{medianSeconds(setups), "s"}

	var all, traced, untraced samples
	var checking time.Duration // oracle time, excluded from throughput
	start := time.Now()
	for i := 0; time.Since(start)-checking < cfg.duration(); i++ {
		var otr *tracer
		if i%2 == 1 {
			otr = tr
		}
		op := otr.newOp()
		k0 := semiring.ReadKernelCounters()
		t0 := time.Now()
		root := otr.begin(op, -1, "op.solve")
		s := otr.begin(op, root, "core.solve")
		res, err := plan.SolveWith(cfg.threads, true)
		otr.end(s)
		otr.end(root)
		wall := time.Since(t0)
		r.attempted++
		if err != nil {
			r.failed++
			continue
		}
		ms := float64(wall) / 1e6
		all = append(all, ms)
		if otr != nil {
			traced = append(traced, ms)
			nc.add(semiring.ReadKernelCounters().Sub(k0), wall)
		} else {
			untraced = append(untraced, ms)
		}
		c0 := time.Now()
		if !check(res, i) {
			r.failed++
		}
		checking += time.Since(c0)
	}
	elapsed := time.Since(start) - checking
	r.primary(all)
	r.e2e["ops_per_s"] = metric{float64(len(all)) / elapsed.Seconds(), "1/s"}
	r.latency("solve", all, "ms")

	if tr != nil {
		// The O(fill) factor of the same graph, built once after the
		// timed phase: the dense and factor elimination paths side by
		// side on one input.
		op := tr.newOp()
		var side numericCalls
		f, err := factorTraced(tr, op, -1, plan, cfg.threads, &side)
		if err != nil {
			return nil, err
		}
		if !checkFactor(f, or, srcs, 0) {
			r.failed++
		}
		spans := tr.snapshot()
		spanLayers(r, spans, "ms", map[string]string{"order.nd": "order.nd_ms", "symbolic.plan": "symbolic.plan_ms",
			"core.factor": "core.factor_ms", "core.solve": "core.solve_ms"})
		r.layer("core.factor_mb", float64(f.Memory())/1e6, "MB")
		planLayers(r, plan)
		nc.report(r, cfg.threads)
		coverageLayer(r, spans, "op.solve")
		r.layer("bench.trace_overhead_frac", overhead(traced, untraced), "ratio")
	}
	return r, nil
}
