package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/wal"
)

// The serve_update deployment and load. Two read clients keep the CPUs
// busy: with one, the run is bound by the client's round-trip latency
// and its read throughput varied by a fifth between runs of one seed.
const (
	updateWorkers     = 2
	updateReadClients = 2
)

// cluster is the serve_update deployment: two durable workers (journal
// fsync on, background checkpointer running) behind a shard coordinator
// with its own journal, all on loopback.
type cluster struct {
	dir      string
	cancel   context.CancelFunc
	bg       sync.WaitGroup
	durables []*serve.Durable
	workers  []*serve.Server
	whttp    []*httpService
	coord    *shard.Coordinator
	chttp    *httpService
}

// startCluster boots the deployment in fresh state directories under
// root and returns once the coordinator answers /readyz.
func startCluster(cfg config, g *graph.Graph, root string) (*cluster, error) {
	dir, err := os.MkdirTemp(root, "state-")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &cluster{dir: dir, cancel: cancel}
	fail := func(err error) (*cluster, error) {
		c.stop()
		return nil, err
	}
	var ws []shard.Worker
	for i := 0; i < updateWorkers; i++ {
		id := fmt.Sprintf("w%d", i)
		d, err := serve.OpenDurable(ctx, g, serve.DurableOptions{
			Dir:     filepath.Join(dir, id),
			Threads: cfg.threads,
			Logger:  quiet,
		})
		if err != nil {
			return fail(err)
		}
		c.durables = append(c.durables, d)
		srv := serve.New(d.Factor(), nil, g.N, serve.Options{
			Logger:            quiet,
			Durable:           d,
			InitialGeneration: d.BootGeneration(),
			Shard:             &serve.ShardIdentity{ID: id, Role: "worker"},
		})
		c.workers = append(c.workers, srv)
		c.bg.Add(1)
		go func() {
			defer c.bg.Done()
			srv.RunCheckpointer(ctx)
		}()
		hs, err := startHTTP(traceHandler(cfg.tr, "serve", true, srv.Handler()))
		if err != nil {
			return fail(err)
		}
		c.whttp = append(c.whttp, hs)
		ws = append(ws, shard.Worker{ID: id, URL: hs.url})
	}
	coord, err := shard.New(shard.Options{
		Workers:  ws,
		StateDir: filepath.Join(dir, "coord"),
		Logger:   quiet,
	})
	if err != nil {
		return fail(err)
	}
	c.coord = coord
	c.bg.Add(1)
	go func() {
		defer c.bg.Done()
		coord.Run(ctx)
	}()
	if c.chttp, err = startHTTP(traceHandler(cfg.tr, "shard", false, coord.Handler())); err != nil {
		return fail(err)
	}
	if err := waitOK(newHTTPClient(1), c.chttp.url+"/readyz", 30*time.Second); err != nil {
		return fail(err)
	}
	return c, nil
}

// stop shuts every server and background loop down, waits for them, and
// removes the state directories.
func (c *cluster) stop() {
	if c.chttp != nil {
		c.chttp.stop()
	}
	for _, h := range c.whttp {
		h.stop()
	}
	c.cancel()
	c.bg.Wait()
	if c.coord != nil {
		c.coord.Close()
	}
	for _, d := range c.durables {
		d.Close()
	}
	os.RemoveAll(c.dir)
}

// generations returns the coordinator's expected generation and each
// worker's serving generation.
func (c *cluster) generations(hc *http.Client) (uint64, []uint64, error) {
	resp, err := hc.Get(c.chttp.url + "/health")
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var h struct {
		Expected uint64 `json:"expected_gen"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, nil, err
	}
	var gens []uint64
	for _, w := range c.workers {
		gens = append(gens, w.Metrics().Generation)
	}
	return h.Expected, gens, nil
}

// updateResult is the update generator's record.
type updateResult struct {
	latMS, lateMS samples
	acked         [][]core.EdgeDelta // batches the coordinator committed, in order
	attempted     int
	failed        int
	retries       int // aborted or shed transactions sent again
}

// postUpdates is the open-loop update generator: batch i is due at
// start + i/updateRate and is sent at its due time, or as soon as the
// previous batch is acknowledged if that is later (the coordinator runs
// one transaction at a time). Latency counts from the due time.
//
// A worker refuses a prepare while its background checkpoint holds the
// swap lock, and the coordinator then aborts the whole transaction,
// changing nothing. The generator sends an aborted or shed batch again
// every retryPause for up to shedWait; the wait stays in the batch's
// latency and the retries are counted.
func postUpdates(hc *http.Client, url string, batches [][]core.EdgeDelta, start time.Time, tr *tracer) *updateResult {
	ur := &updateResult{}
	for i, batch := range batches {
		due := start.Add(time.Duration(float64(i) / updateRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		ur.lateMS = append(ur.lateMS, float64(time.Since(due))/1e6)
		body, err := json.Marshal(map[string]any{"edges": batch})
		if err != nil {
			panic(err) // EdgeDelta always marshals
		}
		ur.attempted++
		ok, again := postUpdate(hc, url, body, tr)
		for t0 := time.Now(); !ok && again && time.Since(t0) < shedWait; {
			ur.retries++
			time.Sleep(retryPause)
			ok, again = postUpdate(hc, url, body, tr)
		}
		if !ok {
			ur.failed++
			continue
		}
		ur.latMS = append(ur.latMS, float64(time.Since(due))/1e6)
		ur.acked = append(ur.acked, batch)
	}
	return ur
}

// postUpdate sends one update transaction to the coordinator. It reports
// whether the transaction committed, and whether it was aborted without
// effect or shed, and may be sent again.
func postUpdate(hc *http.Client, url string, body []byte, tr *tracer) (ok, again bool) {
	req, err := http.NewRequest(http.MethodPost, url+"/admin/update", bytes.NewReader(body))
	if err != nil {
		panic(err) // the URL is the coordinator's own
	}
	req.Header.Set("Content-Type", "application/json")
	op := tr.newOp()
	id := tr.begin(op, -1, "client.update")
	if tr != nil {
		req.Header.Set(hdrOp, strconv.FormatUint(op, 10))
		req.Header.Set(hdrSpan, strconv.Itoa(id))
	}
	defer tr.end(id)
	resp, err := hc.Do(req)
	if err != nil {
		return false, false
	}
	defer resp.Body.Close()
	var reply struct {
		Updated bool `json:"updated"`
		Aborted bool `json:"aborted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return false, false
	}
	failed := resp.StatusCode != http.StatusOK
	return !failed && reply.Updated, failed && (reply.Aborted || resp.Header.Get("Retry-After") != "")
}

// runServeUpdate runs reads beside durable writes: closed-loop read
// clients (the serve_read mix without /route) through the coordinator,
// and an open-loop generator posting 8-edge /admin/update batches at
// 10/s.
func runServeUpdate(cfg config) (*result, error) {
	g := roadGraph(cfg.seed)
	r := newResult()
	r.info["graph"] = graphInfo(g)
	batches := updateStream(g, cfg.seed, int(cfg.seconds*updateRate))
	digests := make([]string, updateReadClients)
	for c := range digests {
		digests[c] = fmt.Sprintf("%016x", streamDigest(g.N, cfg.seed, c, false))
	}
	r.info["request_streams"] = digests
	r.info["update_stream"] = fmt.Sprintf("%016x", updatesDigest(batches))
	r.info["loop"] = fmt.Sprintf("reads: closed, %d clients through the coordinator, Zipf(%.1f): 90%% /dist, 8%% /dist/batch(%d), 1%% /sssp, 1%% more /dist; updates: open loop, %d-edge batches at %g/s, alternating decrease/increase",
		updateReadClients, zipfS, batchPairs, updateEdges, updateRate)
	root, err := filepath.Abs(cfg.scratch)
	if err != nil {
		return nil, err
	}
	r.info["flush"] = fmt.Sprintf("journal fsync on (workers and coordinator), state dirs on %s", fsType(root))

	var setups []time.Duration
	var cl *cluster
	for i := 0; i < setupRepeats; i++ {
		if cl != nil {
			cl.stop()
			cl = nil
			releaseMemory()
		}
		t0 := time.Now()
		if cl, err = startCluster(cfg, g, root); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer cl.stop()
	r.e2e["setup_s"] = metric{medianSeconds(setups), "s"}

	hc := newHTTPClient(2)
	stats := make([]*loadStats, updateReadClients)
	var ur *updateResult
	start := time.Now()
	deadline := start.Add(cfg.duration())
	var wg sync.WaitGroup
	for c := range stats {
		stats[c] = &loadStats{}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lc := &loadClient{hc: hc, base: cl.chttp.url}
			readLoop(lc, newRequestStream(g.N, cfg.seed, c, false), deadline, cfg.tr, stats[c])
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ur = postUpdates(hc, cl.chttp.url, batches, start, cfg.tr)
	}()
	wg.Wait()
	elapsed := time.Since(start)
	reads := mergeStats(stats)
	if reads.errors != nil {
		r.info["read_errors"] = reads.errors
	}
	r.attempted = reads.attempted + ur.attempted
	r.failed = reads.failed + ur.failed

	done := readMetrics(r, reads)
	qps := float64(done) / elapsed.Seconds()
	r.name("read_qps", qps, "1/s")
	r.e2e["ops_per_s"] = metric{qps, "1/s"}
	r.latency("update", ur.latMS, "ms")
	r.primary(ur.latMS)
	r.name("gen_late_p50_ms", median(ur.lateMS), "ms")
	r.name("gen_late_max_ms", percentile(ur.lateMS, 1), "ms")
	r.info["updates"] = map[string]int{"acked": len(ur.acked), "failed": ur.failed, "retried_aborts": ur.retries}
	r.name("update_retries", float64(ur.retries), "count")

	// Oracle, after the last ack: every replica must have converged on
	// one generation and answer for the base graph with every acked
	// batch applied.
	wrong, err := checkConverged(r, cl, hc, g, ur.acked, cfg.seed)
	if err != nil {
		return nil, err
	}
	r.failed += wrong

	cm := cl.coord.Metrics()
	r.name("shard_failovers", float64(cm.Failovers), "count")
	r.name("shard_catchups", float64(cm.AntiEntropy.Catchups), "count")

	var hits, misses uint64
	for _, w := range cl.workers {
		m := w.Metrics()
		hits += m.CacheHits
		misses += m.CacheMisses
	}
	if hits+misses > 0 {
		r.layer("core.cache_hit_rate", float64(hits)/float64(hits+misses), "ratio")
	}
	if cfg.tr != nil {
		if err := updateLayers(r, cfg, cl, g, reads, ur, root); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// checkConverged waits for both workers to reach the coordinator's
// generation, then compares sampled answers — through the coordinator
// and from each worker directly — with Dijkstra on the updated graph.
// It returns the number of wrong answers (a generation mismatch counts
// as one).
func checkConverged(r *result, cl *cluster, hc *http.Client, g *graph.Graph, acked [][]core.EdgeDelta, seed int64) (int, error) {
	var want uint64
	var gens []uint64
	deadline := time.Now().Add(30 * time.Second)
	for {
		var err error
		if want, gens, err = cl.generations(hc); err != nil {
			return 0, err
		}
		same := true
		for _, gen := range gens {
			same = same && gen == want
		}
		if same || time.Now().After(deadline) {
			r.info["generations"] = map[string]any{"coordinator": want, "workers": gens}
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	wrong := 0
	for _, gen := range gens {
		if gen != want || gen != uint64(1+len(acked)) {
			wrong++
		}
	}
	final := applyBatches(g, acked)
	or := newOracle(final)
	stream := newRequestStream(g.N, seed, 9, false)
	var reqs []request
	for len(reqs) < 200 {
		if q := stream.next(); q.kind == reqDist {
			reqs = append(reqs, q)
		}
	}
	reqs = append(reqs, request{kind: reqSSSP, u: reqs[0].u}, request{kind: reqSSSP, u: reqs[1].v})
	bases := []string{cl.chttp.url}
	for _, h := range cl.whttp {
		bases = append(bases, h.url)
	}
	checked := 0
	for bi, base := range bases {
		lc := &loadClient{hc: hc, base: base}
		for i, q := range reqs {
			if bi > 0 && i%8 != 0 {
				continue // workers directly: a subset
			}
			checked++
			rep, err := lc.send(q, nil)
			if err != nil || rep.code != http.StatusOK || !checkAnswer(answer{req: q, body: rep.body}, or, final) {
				wrong++
			}
		}
	}
	r.info["oracle"] = map[string]int{"checked": checked, "wrong": wrong}
	return wrong, nil
}

// updateLayers reports the traced run's update-path layers: handler
// spans of the coordinator and workers, a side replay of the acked
// batches through FactorUpdater.Apply and wal.Journal.Append, and the
// workers' durability counters.
func updateLayers(r *result, cfg config, cl *cluster, g *graph.Graph, reads *loadStats, ur *updateResult, root string) error {
	tr := cfg.tr
	spans := tr.snapshot()
	spanLayers(r, spans, "us", map[string]string{"shard.dist": "shard.dist_us", "serve.dist": "serve.dist_us",
		"shard.batch": "shard.batch_us", "serve.batch": "serve.batch_us", "serve.sssp": "serve.sssp_us"})
	by := durationsByName(spans)
	coordDist, workerDist := durs(by["shard.dist"], time.Microsecond), durs(by["serve.dist"], time.Microsecond)
	r.layer("shard.hop_us", median(coordDist)-median(workerDist), "us")
	r.layer("serve.http_us", httpOverhead(spans, "client.dist"), "us")
	r.layer("shard.update_ms", median(durs(by["shard.update"], time.Millisecond)), "ms")
	prep, commit := durs(by["serve.update.prepare"], time.Millisecond), durs(by["serve.update.commit"], time.Millisecond)
	r.layer("serve.update_prepare_ms", median(prep), "ms")
	r.layer("serve.update_commit_ms", median(commit), "ms")
	r.layer("serve.update_ms", median(prep)+median(commit), "ms")
	r.layer("bench.gen_late_ms", median(ur.lateMS), "ms")
	r.layer("shard.update_aborts", float64(ur.retries), "count")
	r.layer("bench.span_coverage", median(coverageOf(spans, "client.dist")), "ratio")
	r.layer("bench.trace_overhead_frac", overhead(reads.traced, reads.untraced), "ratio")

	var ckpts uint64
	var journalKB float64
	var snaps []serve.MetricsSnapshot
	for _, w := range cl.workers {
		m := w.Metrics()
		snaps = append(snaps, m)
		if d := m.Durability; d != nil {
			ckpts += d.Checkpoints
			journalKB += float64(d.JournalBytes) / 1024 / float64(len(cl.workers))
		}
	}
	r.layer("serve.checkpoints", float64(ckpts), "count")
	r.layer("wal.journal_kb", journalKB, "KB")
	serveLayers(r, snaps...)

	// The layer pass on the base graph: ordering, symbolic analysis and
	// the factor, the same calls OpenDurable makes on a cold boot.
	op := tr.newOp()
	root0 := tr.begin(op, -1, "layers")
	var nc numericCalls
	plan, err := planTraced(tr, op, root0, g)
	if err != nil {
		return err
	}
	f, err := factorTraced(tr, op, root0, plan, cfg.threads, &nc)
	tr.end(root0)
	if err != nil {
		return err
	}
	spans = tr.snapshot()
	spanLayers(r, spans, "ms", map[string]string{"order.nd": "order.nd_ms", "symbolic.plan": "symbolic.plan_ms", "core.factor": "core.factor_ms"})
	r.layer("core.factor_mb", float64(f.Memory())/1e6, "MB")
	planLayers(r, plan)
	nc.report(r, cfg.threads)

	// Side replay of the acked batches, one call at a time.
	up, err := core.NewFactorUpdater(g, f, core.UpdaterOptions{Threads: cfg.threads})
	if err != nil {
		return err
	}
	var applyMS, dirty samples
	rebuilds := 0
	for _, batch := range ur.acked {
		b := core.NewUpdateBatch()
		for _, e := range batch {
			if err := b.Set(e.U, e.V, e.W); err != nil {
				return err
			}
		}
		t0 := time.Now()
		p, err := up.Apply(context.Background(), b)
		applyMS = append(applyMS, float64(time.Since(t0))/1e6)
		if err != nil {
			return err
		}
		if err := up.Commit(p); err != nil {
			return err
		}
		dirty = append(dirty, p.Stats.DirtyFraction)
		if p.Stats.FullRebuild {
			rebuilds++
		}
	}
	r.layer("core.apply_ms", median(applyMS), "ms")
	r.layer("core.dirty_frac", median(dirty), "ratio")
	r.layer("core.full_rebuilds", float64(rebuilds), "count")

	dir, err := os.MkdirTemp(root, "sidewal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	defer j.Close()
	var appendMS samples
	for i, batch := range ur.acked {
		rec := wal.Record{From: uint64(i + 1), Gen: uint64(i + 2)}
		for _, e := range batch {
			rec.Edges = append(rec.Edges, wal.Edge{U: e.U, V: e.V, W: e.W})
		}
		t0 := time.Now()
		if err := j.Append(rec); err != nil {
			return err
		}
		appendMS = append(appendMS, float64(time.Since(t0))/1e6)
	}
	r.layer("wal.append_ms", median(appendMS), "ms")
	return nil
}

// fsType names the filesystem holding path, for the flush-policy record.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown filesystem"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs", 0x58465342: "xfs",
		0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("filesystem type 0x%x", st.Type)
}
