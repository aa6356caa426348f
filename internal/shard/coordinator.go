package shard

// The coordinator is the front door of a sharded deployment: it owns
// the routing table, health-checks the workers, forwards single-vertex
// queries to the owning shard (with one replica retry), scatter-gathers
// /dist/batch (gather.go), and serves the merged /metrics view.
//
// Failover protocol: a worker is marked down after FailThreshold
// consecutive /readyz probe failures, which promotes its replicas and
// advances the table generation once. In the window between a crash and
// the probe noticing, forwards to the dead primary fail fast
// (connection refused) and retry the replica inline, so a mid-storm
// SIGKILL costs clients latency, never errors. A restarted worker is
// re-admitted — its ring slots return to it — only after a probe
// succeeds AND /health reports the same vertex count, so a worker that
// restored a different checkpoint can never rejoin the wrong ring.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/serve"
	"repro/internal/wal"
)

// Options configure a Coordinator.
type Options struct {
	// Workers is the shard set; at least one, and at least two for any
	// replica/failover behavior.
	Workers []Worker
	// Slots is the number of consistent-hash vertex ranges (<= 0 uses
	// DefaultSlots).
	Slots int
	// ProbeInterval is the health-check period (default 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz probe (default 1s).
	ProbeTimeout time.Duration
	// FailThreshold is the number of consecutive probe failures before
	// a worker is marked down and its slots fail over (default 2).
	FailThreshold int
	// ForwardTimeout bounds one forwarded single-vertex query,
	// including the replica retry (default 10s).
	ForwardTimeout time.Duration
	// GatherTimeout is the per-shard deadline for one /dist/batch
	// sub-request (default 10s); the replica retry gets a fresh one.
	GatherTimeout time.Duration
	// DiscoverTimeout bounds the boot-time wait for every worker to
	// answer /health with a consistent vertex count (default 30s).
	DiscoverTimeout time.Duration
	// UpdateTimeout bounds a whole /admin/update transaction — every
	// worker's prepare plus the commit (or abort) round (default 120s;
	// a prepare can re-factorize the whole graph past the dirty
	// threshold).
	UpdateTimeout time.Duration
	// StateDir, when set, makes committed update transactions durable:
	// every batch is appended (fsync'd) to a write-ahead journal there
	// after all prepares succeed and before the commit round, so a
	// coordinator crash mid-commit never loses a decided transaction,
	// and the journal streams missed batches to workers during
	// anti-entropy catch-up. Empty runs without a journal (catch-up
	// then always falls back to donor resyncs).
	StateDir string
	// JournalNoSync disables journal fsync (tests only).
	JournalNoSync bool
	// Logger receives routing-state transitions; nil uses log.Default().
	Logger *log.Logger
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 250 * time.Millisecond
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = time.Second
	}
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = 2
	}
	if opts.ForwardTimeout <= 0 {
		opts.ForwardTimeout = 10 * time.Second
	}
	if opts.GatherTimeout <= 0 {
		opts.GatherTimeout = 10 * time.Second
	}
	if opts.DiscoverTimeout <= 0 {
		opts.DiscoverTimeout = 30 * time.Second
	}
	if opts.UpdateTimeout <= 0 {
		opts.UpdateTimeout = 120 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = log.Default()
	}
	return opts
}

// workerState is the coordinator's per-worker mutable state. The probe
// loop is the only writer of consecFails; the counters are atomics
// shared with the request paths.
type workerState struct {
	w             Worker
	consecFails   int
	routed        atomic.Uint64
	errors        atomic.Uint64
	probeFailures atomic.Uint64

	// gen is the worker's last observed factor generation (from /readyz
	// probes and /health checks). The anti-entropy loop converges it to
	// the coordinator's expected generation.
	gen atomic.Uint64
	// catchingUp guards the one-per-worker anti-entropy goroutine.
	catchingUp atomic.Bool
	// quarantined reports that catch-up is stuck: the journal cannot
	// bridge the worker and no donor at the expected generation exists.
	// Cleared when a later catch-up converges.
	quarantined atomic.Bool
	// staleHolds counts re-admissions refused for generation mismatch —
	// the prober's proof that vertex count alone never re-admits.
	staleHolds atomic.Uint64
}

// Coordinator routes queries across a set of apspserve workers.
type Coordinator struct {
	opts    Options
	table   *Table
	workers []*workerState
	n       int
	client  *http.Client
	log     *log.Logger
	metrics *coordMetrics

	// journal records committed update transactions (nil without
	// Options.StateDir); expectedGen is the factor generation every
	// worker must reach to be in rotation — it advances the moment a
	// transaction is journaled (or, unjournaled, when the commit round
	// starts) and adopts a recovered worker's generation when that
	// worker is ahead of the cluster. updating serializes update
	// transactions and tells the prober that a transient generation lag
	// is expected.
	journal     *wal.Journal
	expectedGen atomic.Uint64
	updating    atomic.Bool
}

// New discovers the workers (every one must answer /health with the
// same vertex count within DiscoverTimeout — a shard set serving
// different graphs is a deployment error, not something to route
// around) and builds the ring and routing table with all workers live.
func New(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	ring, err := NewRing(opts.Workers, opts.Slots)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		opts:    opts,
		client:  &http.Client{},
		log:     opts.Logger,
		metrics: newCoordMetrics(),
	}
	for _, w := range ring.Workers() {
		c.workers = append(c.workers, &workerState{w: w})
	}
	if err := c.discover(); err != nil {
		return nil, err
	}
	c.table = NewTable(ring, c.n)

	// The expected generation starts at the newest state anything knows:
	// the most advanced worker, or a journal record for a transaction
	// whose commit round a previous coordinator never finished.
	expected := uint64(0)
	for _, ws := range c.workers {
		if g := ws.gen.Load(); g > expected {
			expected = g
		}
	}
	if opts.StateDir != "" {
		j, err := wal.Open(opts.StateDir, wal.Options{NoSync: opts.JournalNoSync})
		if err != nil {
			return nil, err
		}
		c.journal = j
		if st := j.Stats(); st.TruncatedBytes > 0 || st.DroppedSegments > 0 {
			c.log.Printf("shard: journal recovered with %d torn byte(s) truncated, %d segment(s) dropped",
				st.TruncatedBytes, st.DroppedSegments)
		}
		if lg := j.LastGen(); lg > expected {
			c.log.Printf("shard: journal holds committed generation %d beyond every worker; anti-entropy will converge the cluster", lg)
			expected = lg
		}
	}
	//lint:ignore walorder,genmono boot initialization: the expected generation is recovered from workers and the journal before any batch can publish
	c.expectedGen.Store(expected)
	if c.journal != nil && c.journal.LastGen() < expected {
		// Baseline coverage floor: the journal cannot replay anything
		// below the state the cluster already reached.
		if err := c.journal.AppendMarker(expected); err != nil {
			c.journal.Close()
			return nil, err
		}
	}
	return c, nil
}

// Close releases the coordinator's journal (a no-op without one).
func (c *Coordinator) Close() error {
	if c.journal == nil {
		return nil
	}
	return c.journal.Close()
}

// discover polls every worker's /health until all report the same
// vertex count or DiscoverTimeout elapses.
func (c *Coordinator) discover() error {
	deadline := time.Now().Add(c.opts.DiscoverTimeout)
	seen := make([]int, len(c.workers))
	for i := range seen {
		seen[i] = -1
	}
	for {
		pending := 0
		var lastErr error
		for i, ws := range c.workers {
			if seen[i] >= 0 {
				continue
			}
			n, gen, err := c.workerHealth(ws.w)
			if err != nil {
				pending++
				lastErr = fmt.Errorf("worker %s (%s): %w", ws.w.ID, ws.w.URL, err)
				continue
			}
			seen[i] = n
			ws.gen.Store(gen)
		}
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("shard: discovery timed out with %d worker(s) unreachable: %v", pending, lastErr)
		}
		time.Sleep(200 * time.Millisecond)
	}
	c.n = seen[0]
	for i, n := range seen {
		if n != c.n {
			return fmt.Errorf("shard: vertex count mismatch: worker %s reports %d, worker %s reports %d",
				c.workers[0].w.ID, c.n, c.workers[i].w.ID, n)
		}
	}
	if c.n <= 0 {
		return fmt.Errorf("shard: workers report %d vertices", c.n)
	}
	return nil
}

// workerHealth fetches one worker's /health, returning its vertex
// count and factor generation — the two identities re-admission gates
// on.
func (c *Coordinator) workerHealth(w Worker) (int, uint64, error) {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.URL+"/health", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("health status %d", resp.StatusCode)
	}
	var h struct {
		Vertices   int    `json:"vertices"`
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, 0, err
	}
	return h.Vertices, h.Generation, nil
}

// N returns the vertex count the shard set serves.
func (c *Coordinator) N() int { return c.n }

// Table exposes the routing table (tests and cmd/apspshard logging).
func (c *Coordinator) Table() *Table { return c.table }

// Run drives the health-probe loop until ctx is cancelled. It owns all
// liveness transitions: the request paths only retry, they never mark.
func (c *Coordinator) Run(ctx context.Context) {
	ticker := time.NewTicker(c.opts.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			c.probeAll(ctx)
		}
	}
}

func (c *Coordinator) probeAll(ctx context.Context) {
	for wi, ws := range c.workers {
		fault.Inject("shard.probe")
		if err := c.probe(ctx, ws); err != nil {
			ws.probeFailures.Add(1)
			ws.consecFails++
			if ws.consecFails >= c.opts.FailThreshold && c.table.MarkDown(wi) {
				c.log.Printf("shard: worker %s (%s) down after %d failed probes (%v); replicas promoted, generation %d",
					ws.w.ID, ws.w.URL, ws.consecFails, err, c.table.Generation())
			}
			continue
		}
		ws.consecFails = 0
		expected := c.expectedGen.Load()
		if c.table.Alive(wi) {
			// A live worker that fell behind — a commit round it missed —
			// is pulled from rotation until anti-entropy converges it. A
			// transient lag during an in-flight transaction is expected
			// and not a hold.
			if gen := ws.gen.Load(); gen < expected && !c.updating.Load() {
				if c.table.MarkDown(wi) {
					c.log.Printf("shard: worker %s (%s) at generation %d, cluster expects %d; held out of rotation for catch-up",
						ws.w.ID, ws.w.URL, gen, expected)
				}
			}
			continue
		}
		// Probe is green again: verify the restarted worker recovered the
		// same graph AND the cluster's factor generation before giving
		// its slots back. Vertex count alone is not enough — a worker
		// that recovered an older checkpoint would serve stale distances
		// while claiming readiness.
		n, gen, err := c.workerHealth(ws.w)
		if err != nil || n != c.n {
			c.log.Printf("shard: worker %s ready but not re-admitted (vertices=%d err=%v, want %d)",
				ws.w.ID, n, err, c.n)
			continue
		}
		ws.gen.Store(gen)
		if gen > expected {
			// The worker is ahead of the cluster: it durably committed a
			// batch whose commit round never finished elsewhere. Its state
			// is the newest decided one — adopt it and let anti-entropy
			// raise everyone else.
			c.adoptGeneration(gen)
			expected = c.expectedGen.Load()
		}
		if gen != expected {
			ws.staleHolds.Add(1)
			c.metrics.ae.staleHolds.Add(1)
			c.log.Printf("shard: worker %s ready at generation %d but cluster expects %d; held for anti-entropy",
				ws.w.ID, gen, expected)
			c.startCatchUp(ctx, wi)
			continue
		}
		ws.quarantined.Store(false)
		if c.table.MarkUp(wi) {
			c.log.Printf("shard: worker %s (%s) re-admitted at factor generation %d, slots restored, table generation %d",
				ws.w.ID, ws.w.URL, gen, c.table.Generation())
		}
	}
}

// probe checks one worker's /readyz, recording the factor generation
// the payload carries unless a newer one was recorded meanwhile.
func (c *Coordinator) probe(ctx context.Context, ws *workerState) error {
	before := ws.gen.Load()
	pctx, cancel := context.WithTimeout(ctx, c.opts.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, ws.w.URL+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("readyz status %d", resp.StatusCode)
	}
	var body struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.Generation > 0 {
		// A commit round that finished while the probe was in flight
		// already recorded a newer generation; the probe's reading
		// predates it and must not overwrite it, or the prober would
		// hold a current worker out of rotation as lagging.
		ws.gen.CompareAndSwap(before, body.Generation)
	}
	return nil
}

// Handler returns the coordinator's HTTP routes — deliberately the same
// query surface as one worker, so clients can point at either.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /health", c.instrument("health", c.health))
	mux.HandleFunc("GET /healthz", c.instrument("health", c.health))
	mux.HandleFunc("GET /readyz", c.instrument("readyz", c.readyz))
	mux.HandleFunc("GET /dist", c.instrument("dist", func(w http.ResponseWriter, r *http.Request) {
		c.forward(w, r, "u")
	}))
	mux.HandleFunc("GET /sssp", c.instrument("sssp", func(w http.ResponseWriter, r *http.Request) {
		c.forward(w, r, "src")
	}))
	mux.HandleFunc("GET /route", c.instrument("route", func(w http.ResponseWriter, r *http.Request) {
		c.forward(w, r, "u")
	}))
	mux.HandleFunc("POST /dist/batch", c.instrument("dist_batch", c.distBatch))
	mux.HandleFunc("POST /admin/update", c.instrument("update", c.adminUpdate))
	mux.HandleFunc("GET /metrics", c.metricsEndpoint)
	return mux
}

func (c *Coordinator) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	m := c.metrics.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		m.requests.Add(1)
		m.latencyNS.Add(uint64(time.Since(t0)))
		if sw.code >= 400 {
			m.errors.Add(1)
		}
	}
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (c *Coordinator) health(w http.ResponseWriter, _ *http.Request) {
	c.writeJSON(w, http.StatusOK, map[string]any{
		"status":       "ok",
		"role":         "coordinator",
		"vertices":     c.n,
		"workers":      len(c.workers),
		"generation":   c.table.Generation(),
		"expected_gen": c.expectedGen.Load(),
	})
}

// readyz is green only while every vertex slot has a live owner; a slot
// whose primary and replica are both down makes the whole coordinator
// unready — shedding early beats serving a partial vertex space.
func (c *Coordinator) readyz(w http.ResponseWriter, _ *http.Request) {
	if !c.table.Ready() {
		w.Header().Set("Retry-After", serve.RetryAfterDefault)
		c.writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("one or more vertex ranges have no live shard"))
		return
	}
	c.writeJSON(w, http.StatusOK, map[string]any{
		"ready":      true,
		"vertices":   c.n,
		"generation": c.table.Generation(),
	})
}

// forward routes a single-vertex GET (dist/sssp/route) to the shard
// owning the vertex named by key, retrying the replica on a failed or
// 5xx primary. The first successful response streams through verbatim;
// a double failure answers 503/502 with propagated Retry-After.
func (c *Coordinator) forward(w http.ResponseWriter, r *http.Request, key string) {
	v, err := c.vertexParam(r, key)
	if err != nil {
		c.writeErr(w, http.StatusBadRequest, err)
		return
	}
	route := c.table.Route(v)
	if route.Primary == nil {
		w.Header().Set("Retry-After", serve.RetryAfterDefault)
		c.writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("no live shard for vertex %d", v))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), c.opts.ForwardTimeout)
	defer cancel()
	fault.Inject("shard.forward")

	var retryAfters []string
	resp, err := c.send(ctx, route.Primary, route.Generation, r)
	if err == nil && resp.StatusCode < 500 {
		c.relay(w, resp)
		return
	}
	retryAfters = appendRetryAfter(retryAfters, resp, err)
	if route.Replica != nil {
		resp, err = c.send(ctx, route.Replica, route.Generation, r)
		if err == nil && resp.StatusCode < 500 {
			c.relay(w, resp)
			return
		}
		retryAfters = appendRetryAfter(retryAfters, resp, err)
	}
	c.shardsUnavailable(w, retryAfters, fmt.Errorf("shards for vertex %d unavailable", v))
}

// send issues one forwarded request to a worker, stamping the forwarded
// and generation headers. On success the caller owns resp.Body.
func (c *Coordinator) send(ctx context.Context, worker *Worker, gen uint64, r *http.Request) (*http.Response, error) {
	ws := c.stateOf(worker)
	url := worker.URL + r.URL.Path
	if q := r.URL.RawQuery; q != "" {
		url += "?" + q
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(serve.ForwardedHeader, "coordinator")
	req.Header.Set(serve.GenerationHeader, strconv.FormatUint(gen, 10))
	ws.routed.Add(1)
	resp, err := c.client.Do(req)
	if err != nil || resp.StatusCode >= 500 {
		ws.errors.Add(1)
	}
	return resp, err
}

func (c *Coordinator) stateOf(worker *Worker) *workerState {
	for _, ws := range c.workers {
		if ws.w.ID == worker.ID {
			return ws
		}
	}
	panic("shard: route returned unknown worker " + worker.ID)
}

// relay streams a worker response through unchanged (status,
// Content-Type, Retry-After, body) — the coordinator adds routing, not
// response rewriting.
func (c *Coordinator) relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		c.log.Printf("shard: relay copy failed: %v", err)
	}
}

// appendRetryAfter collects the Retry-After value from a failed
// downstream attempt (and closes its body). Only 503s carry one.
func appendRetryAfter(vals []string, resp *http.Response, err error) []string {
	if err != nil || resp == nil {
		return vals
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			vals = append(vals, ra)
		}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return vals
}

// shardsUnavailable answers a request whose every candidate shard
// failed. When the downstream failures were 503 sheds, the coordinator
// must not invent its own backoff: it propagates the max of the
// downstream Retry-After values, so a client behind the coordinator
// backs off exactly as hard as the most loaded shard asked for. With no
// downstream advice (connection failures), it falls back to the same
// default the workers use.
func (c *Coordinator) shardsUnavailable(w http.ResponseWriter, retryAfters []string, err error) {
	w.Header().Set("Retry-After", maxRetryAfter(retryAfters))
	c.writeErr(w, http.StatusServiceUnavailable, err)
}

// maxRetryAfter returns the maximum of the downstream Retry-After
// values in integer seconds, or the serve default when none parsed.
func maxRetryAfter(vals []string) string {
	best := -1
	for _, v := range vals {
		if sec, err := strconv.Atoi(v); err == nil && sec > best {
			best = sec
		}
	}
	if best < 0 {
		return serve.RetryAfterDefault
	}
	return strconv.Itoa(best)
}

func (c *Coordinator) vertexParam(r *http.Request, key string) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", key)
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 || v >= c.n {
		return 0, fmt.Errorf("parameter %q must be a vertex id in [0,%d)", key, c.n)
	}
	return v, nil
}

func (c *Coordinator) metricsEndpoint(w http.ResponseWriter, _ *http.Request) {
	c.writeJSON(w, http.StatusOK, c.Metrics())
}

func (c *Coordinator) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		c.log.Printf("shard: response encode failed: %v", err)
	}
}

func (c *Coordinator) writeErr(w http.ResponseWriter, code int, err error) {
	c.writeJSON(w, code, map[string]string{"error": err.Error()})
}
