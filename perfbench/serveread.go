package main

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
)

const readClients = 2

// readServer is the serve_read deployment: one factor plus a
// path-tracked dense result behind serve.New(...).Handler() on loopback.
type readServer struct {
	srv    *serve.Server
	http   *httpService
	factor *core.Factor
	plan   *core.Plan
}

func (s *readServer) stop() { s.http.stop() }

// startReadServer builds what cmd/apspserve -routes builds for a graph —
// the factor from core.NewPlan(g, DefaultOptions()), and a dense
// path-tracked solve from a second plan with TrackPaths — and serves it
// until the first /health answers.
func startReadServer(cfg config, g *graph.Graph, nc *numericCalls) (*readServer, error) {
	tr := cfg.tr
	op := tr.newOp()
	root := tr.begin(op, -1, "setup")
	defer tr.end(root)
	var plan *core.Plan
	var factor *core.Factor
	var err error
	if tr == nil {
		if plan, err = core.NewPlan(g, core.DefaultOptions()); err == nil {
			factor, err = core.NewFactor(plan, cfg.threads)
		}
	} else if plan, err = planTraced(tr, op, root, g); err == nil {
		factor, err = factorTraced(tr, op, root, plan, cfg.threads, nc)
	}
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	opts.TrackPaths = true
	s := tr.begin(op, root, "symbolic.route_plan")
	rplan, err := core.NewPlan(g, opts)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin(op, root, "core.solve")
	routes, err := rplan.SolveWith(cfg.threads, true)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	srv := serve.New(factor, routes, g.N, serve.Options{Logger: quiet})
	hs, err := startHTTP(traceHandler(tr, "serve", false, srv.Handler()))
	if err != nil {
		return nil, err
	}
	if err := waitOK(newHTTPClient(1), hs.url+"/health", 30*time.Second); err != nil {
		hs.stop()
		return nil, err
	}
	return &readServer{srv: srv, http: hs, factor: factor, plan: plan}, nil
}

// runServeRead drives the road_l factor and dense route result over
// loopback HTTP with two closed-loop clients sending Zipf(1.2) traffic:
// about 90% /dist, 8% /dist/batch of 32 pairs, 1% /sssp, 1% /route.
func runServeRead(cfg config) (*result, error) {
	g := roadGraph(cfg.seed)
	r := newResult()
	r.info["graph"] = graphInfo(g)
	digests := make([]string, readClients)
	for c := range digests {
		digests[c] = fmt.Sprintf("%016x", streamDigest(g.N, cfg.seed, c, true))
	}
	r.info["request_streams"] = digests
	r.info["loop"] = fmt.Sprintf("closed, %d clients over loopback HTTP, Zipf(%.1f): 90%% /dist, 8%% /dist/batch(%d), 1%% /sssp, 1%% /route",
		readClients, zipfS, batchPairs)

	var nc numericCalls
	var setups []time.Duration
	var rs *readServer
	for i := 0; i < setupRepeats; i++ {
		if rs != nil {
			rs.stop()
			rs = nil
			releaseMemory()
		}
		t0 := time.Now()
		var err error
		if rs, err = startReadServer(cfg, g, &nc); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer rs.stop()
	r.e2e["setup_s"] = metric{medianSeconds(setups), "s"}

	hc := newHTTPClient(readClients)
	stats := make([]*loadStats, readClients)
	deadline := time.Now().Add(cfg.duration())
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < readClients; c++ {
		stats[c] = &loadStats{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lc := &loadClient{hc: hc, base: rs.http.url}
			readLoop(lc, newRequestStream(g.N, cfg.seed, c, true), deadline, cfg.tr, stats[c])
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := mergeStats(stats)
	r.attempted, r.failed = st.attempted, st.failed
	if st.errors != nil {
		r.info["read_errors"] = st.errors
	}

	done := readMetrics(r, st)
	qps := float64(done) / elapsed.Seconds()
	r.name("read_qps", qps, "1/s")
	r.e2e["ops_per_s"] = metric{qps, "1/s"}
	r.primary(st.lat[reqDist].scaled(1e-3))

	or := newOracle(g)
	wrong := 0
	for _, a := range st.answers {
		if !checkAnswer(a, or, g) {
			wrong++
		}
	}
	r.failed += wrong
	r.info["oracle"] = map[string]int{"checked": len(st.answers), "wrong": wrong}

	m := rs.srv.Metrics()
	r.layer("core.cache_hit_rate", m.CacheHitRate, "ratio")
	if cfg.tr != nil {
		serveLayers(r, m)
		spans := cfg.tr.snapshot()
		spanLayers(r, spans, "ms", map[string]string{"order.nd": "order.nd_ms", "symbolic.plan": "symbolic.plan_ms",
			"core.factor": "core.factor_ms", "core.solve": "core.solve_ms", "symbolic.route_plan": "symbolic.route_plan_ms"})
		spanLayers(r, spans, "us", map[string]string{"serve.dist": "serve.dist_us", "serve.batch": "serve.batch_us",
			"serve.sssp": "serve.sssp_us", "serve.route": "serve.route_us"})
		r.layer("serve.http_us", httpOverhead(spans, "client.dist"), "us")
		r.layer("core.factor_mb", float64(rs.factor.Memory())/1e6, "MB")
		planLayers(r, rs.plan)
		nc.report(r, cfg.threads)
		r.layer("bench.span_coverage", median(coverageOf(spans, "client.dist")), "ratio")
		r.layer("bench.trace_overhead_frac", overhead(st.traced, st.untraced), "ratio")
		sent := make([]int, readClients)
		for c, s := range stats {
			sent[c] = s.sent
		}
		replayCore(r, rs.factor, g.N, cfg.seed, sent, true)
	}
	return r, nil
}

// serveLayers reports the serving layer's own counters, summed over
// the servers.
func serveLayers(r *result, snaps ...serve.MetricsSnapshot) {
	var errs, rejected uint64
	for _, m := range snaps {
		for _, e := range m.Endpoints {
			errs += e.Errors
		}
		rejected += m.InflightRejected
	}
	r.layer("serve.errors", float64(errs), "count")
	r.layer("serve.inflight_rejected", float64(rejected), "count")
}

// meetSink keeps the timed meets from being optimized away.
var meetSink float64

// replayMax bounds how many requests per client the in-process replay
// re-issues.
const replayMax = 20000

// replayCore re-issues the clients' recorded request streams in process
// against the served factor, timing the core query calls the handlers
// make: ComputeLabel, MeetLabels, SSSPInto, and LabelCache.Dist.
func replayCore(r *result, f *core.Factor, n int, seed int64, sent []int, routes bool) {
	cache := core.NewLabelCache(f, 0)
	var cacheNS, labelUS, meetNS, ssspUS samples
	var lu, lv []*core.Label
	seen := map[int]bool{}
	row := make([]float64, n)
	label := func(u int) {
		if seen[u] || len(labelUS) >= 2000 {
			return
		}
		seen[u] = true
		t0 := time.Now()
		f.ComputeLabel(u)
		labelUS = append(labelUS, float64(time.Since(t0))/1e3)
	}
	pair := func(u, v int) {
		t0 := time.Now()
		cache.Dist(u, v)
		cacheNS = append(cacheNS, float64(time.Since(t0)))
		label(u)
		label(v)
		if len(lu) < 4096 {
			lu = append(lu, cache.Label(u))
			lv = append(lv, cache.Label(v))
		}
	}
	for c, count := range sent {
		stream := newRequestStream(n, seed, c, routes)
		for i := 0; i < count && i < replayMax; i++ {
			req := stream.next()
			switch req.kind {
			case reqDist, reqRoute:
				pair(req.u, req.v)
			case reqBatch:
				for _, p := range req.pairs {
					pair(p[0], p[1])
				}
			case reqSSSP:
				if len(ssspUS) < 200 {
					t0 := time.Now()
					f.SSSPInto(req.u, row)
					ssspUS = append(ssspUS, float64(time.Since(t0))/1e3)
				}
			}
		}
	}
	// A meet takes tens of nanoseconds, so meets are timed in chunks.
	const chunk = 64
	for i := 0; i+chunk <= len(lu); i += chunk {
		t0 := time.Now()
		for j := i; j < i+chunk; j++ {
			meetSink += f.MeetLabels(lu[j], lv[j])
		}
		meetNS = append(meetNS, float64(time.Since(t0))/chunk)
	}
	r.layer("core.cache_dist_ns", median(cacheNS), "ns")
	r.layer("core.label_us", median(labelUS), "us")
	r.layer("core.meet_ns", median(meetNS), "ns")
	r.layer("core.sssp_us", median(ssspUS), "us")
}
