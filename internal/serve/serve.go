// Package serve exposes a solved APSP factor over HTTP: point-to-point
// distance queries, batched pair queries, single-source rows, and
// shortest routes. It is the deployment shape a downstream user of this
// library ends up building — precompute the supernodal factor offline
// (cmd/superfw -factor -savefactor), then serve queries from its O(fill)
// representation.
//
// The query path is built for sustained traffic: point queries go
// through a bounded LRU cache of 2-hop labels (a cache hit answers with
// zero allocations), /sssp rows are streamed straight from pooled
// buffers without boxing every float, per-endpoint request/error/latency
// counters are exported at /metrics, and an optional in-flight limiter
// sheds load with 503s (carrying Retry-After) instead of collapsing
// under it.
//
// The factor itself is replaceable at runtime: everything derived from
// it lives in an engine behind an atomic pointer, and POST /admin/reload
// swaps in a rebuilt or checkpoint-restored factor without dropping
// in-flight queries (see reload.go).
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
)

// MaxBatchPairs bounds a single /dist/batch request; larger workloads
// should be split client-side so one request cannot hold a worker (and
// its response buffer) for an unbounded time.
const MaxBatchPairs = 65536

// maxBatchBody bounds the /dist/batch request body.
const maxBatchBody = 8 << 20

// Headers stamped by the shard coordinator (internal/shard) on requests
// it forwards to workers. ForwardedHeader marks a request as routed
// rather than direct (workers count these separately in /metrics);
// GenerationHeader carries the routing-table generation the routing
// decision was made under, so worker access logs can be correlated with
// failover events.
const (
	ForwardedHeader  = "X-Apspshard-Forwarded"
	GenerationHeader = "X-Apspshard-Generation"
)

// RetryAfterDefault is the Retry-After value (integer seconds) sent
// with every locally originated 503/409. The shard coordinator uses the
// same value only when it has no downstream Retry-After to propagate —
// when a worker 503s through it, the coordinator forwards the max of
// the downstream values so both layers speak the same semantics.
const RetryAfterDefault = "1"

// ShardIdentity labels a worker's place in a sharded deployment; it is
// echoed in /health and /metrics so an operator (or the coordinator's
// merged metrics view) can tell which process answered.
type ShardIdentity struct {
	ID   string `json:"id"`
	Role string `json:"role"` // e.g. "worker", "standalone"
}

// Options configure the serving layer.
type Options struct {
	// CacheSize is the label-cache capacity in labels; <= 0 selects the
	// core default (min(n, core.DefaultCacheSize)).
	CacheSize int
	// MaxInFlight caps concurrently served requests; excess requests are
	// rejected with 503. <= 0 means unlimited.
	MaxInFlight int
	// Logger receives encode/stream failures; nil uses log.Default().
	Logger *log.Logger
	// Reload produces a replacement factor (and optional path-tracked
	// result) for POST /admin/reload — typically by restoring a
	// checkpoint or re-running the factorization. When nil the endpoint
	// answers 501. The context is the reload request's context, so an
	// abandoned request cancels the rebuild.
	Reload func(ctx context.Context) (*core.Factor, *core.Result, error)
	// Shard, when non-nil, labels this server's place in a sharded
	// deployment (cmd/apspshard); surfaced in /health and /metrics.
	Shard *ShardIdentity
	// Updater, when non-nil, enables POST /admin/update: live edge-weight
	// batches patched into the serving factor with a copy-on-write
	// snapshot swap (see update.go). nil answers 501.
	Updater *core.FactorUpdater
	// Durable, when non-nil, makes updates crash-recoverable: every
	// committed batch is journaled (fsync'd) before the engine swap, the
	// background checkpointer (RunCheckpointer) bounds replay time, and
	// GET /admin/overlay plus update mode "resync" serve the shard
	// coordinator's anti-entropy protocol (see durable.go). Implies
	// Updater (Durable.Updater() is used when Updater is nil).
	Durable *Durable
	// InitialGeneration seeds the factor generation (0 selects 1) —
	// durable boots resume at the recovered generation instead of
	// restarting the count.
	InitialGeneration uint64
}

// engine bundles everything that must swap together when a new factor is
// loaded: the factor, its label cache, the optional path-tracked result,
// the vertex count, and the n-sized row pool. Handlers pin the engine
// once per request, so a concurrent swap can never hand them a cache
// from one factor and a row length from another.
type engine struct {
	factor  *core.Factor
	cache   *core.LabelCache
	result  *core.Result // optional: enables /route
	n       int
	gen     uint64    // monotonically increasing factor generation
	rowPool sync.Pool // *[]float64 length n, for /sssp rows
}

func newEngine(f *core.Factor, res *core.Result, n, cacheSize int, gen uint64) *engine {
	return &engine{
		factor: f,
		cache:  core.NewLabelCache(f, cacheSize),
		result: res,
		n:      n,
		gen:    gen,
	}
}

func (e *engine) getRow() []float64 {
	if v := e.rowPool.Get(); v != nil {
		return *(v.(*[]float64))
	}
	return make([]float64, e.n)
}

func (e *engine) putRow(row []float64) { e.rowPool.Put(&row) }

func (e *engine) vertex(r *http.Request, key string) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", key)
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 || v >= e.n {
		return 0, fmt.Errorf("parameter %q must be a vertex id in [0,%d)", key, e.n)
	}
	return v, nil
}

// Server answers distance queries from a supernodal factor and,
// optionally, route queries from a path-tracked dense result.
type Server struct {
	eng       atomic.Pointer[engine]
	cacheSize int
	log       *log.Logger
	metrics   *metrics
	shard     *ShardIdentity
	inflight  chan struct{} // nil when unlimited

	reload    func(ctx context.Context) (*core.Factor, *core.Result, error)
	reloading atomic.Bool // serializes /admin/reload and /admin/update swaps
	// captureMu is held by the background checkpointer for the whole of
	// its brief reloading hold (the checkpoint capture); update steps take
	// it around their CAS attempt (acquireSwap), so they wait a capture
	// out instead of being refused by it.
	captureMu sync.Mutex
	notReady  atomic.Bool // true while a reload rebuilds the factor

	// Live updates (update.go). generation stamps engines: it advances on
	// every successful update commit and reload, never reuses a value, and
	// is surfaced on /health and /metrics so operators (and the shard
	// coordinator) can tell which snapshot answered. updMu guards the
	// single prepared-but-uncommitted patch slot of the two-phase flow.
	updater    *core.FactorUpdater
	durable    *Durable
	generation atomic.Uint64
	updMu      sync.Mutex
	pending    *preparedUpdate

	bufPool sync.Pool // *[]byte, for streamed JSON encoding
}

// New builds a Server from a factor and an optional path-tracked result.
func New(f *core.Factor, res *core.Result, n int, opts Options) *Server {
	logger := opts.Logger
	if logger == nil {
		logger = log.Default()
	}
	s := &Server{
		cacheSize: opts.CacheSize,
		log:       logger,
		metrics:   newMetrics(),
		shard:     opts.Shard,
		reload:    opts.Reload,
		updater:   opts.Updater,
		durable:   opts.Durable,
	}
	if s.updater == nil && s.durable != nil {
		s.updater = s.durable.Updater()
	}
	gen := opts.InitialGeneration
	if gen == 0 {
		gen = 1
	}
	//lint:ignore walorder,genmono boot initialization: the generation is seeded from recovery (OpenDurable already replayed the journal) before any reader or writer exists
	s.generation.Store(gen)
	//lint:ignore walorder boot publish: the factor handed to New is the recovered durable state, so there is nothing new to journal
	s.eng.Store(newEngine(f, res, n, opts.CacheSize, gen))
	if opts.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInFlight)
	}
	return s
}

// Cache exposes the current engine's label cache (for stats and warmup).
// A reload replaces the cache; callers must not hold this across swaps.
func (s *Server) Cache() *core.LabelCache { return s.eng.Load().cache }

// Handler returns the HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /health", s.instrument("health", s.health))
	mux.HandleFunc("GET /healthz", s.instrument("health", s.health))
	mux.HandleFunc("GET /readyz", s.counted("readyz", s.readyz))
	mux.HandleFunc("GET /dist", s.instrument("dist", s.dist))
	mux.HandleFunc("POST /dist/batch", s.instrument("dist_batch", s.distBatch))
	mux.HandleFunc("GET /sssp", s.instrument("sssp", s.sssp))
	mux.HandleFunc("GET /route", s.instrument("route", s.route))
	mux.HandleFunc("POST /admin/reload", s.counted("reload", s.adminReload))
	mux.HandleFunc("POST /admin/update", s.counted("update", s.adminUpdate))
	mux.HandleFunc("GET /admin/overlay", s.counted("overlay", s.adminOverlay))
	mux.HandleFunc("GET /metrics", s.metricsEndpoint)
	return mux
}

// instrument wraps an endpoint with the in-flight limiter and the
// request/error/latency counters surfaced at /metrics.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return s.wrap(name, true, h)
}

// counted records the same counters but bypasses the in-flight limiter:
// readiness probes and admin actions must keep working while query
// traffic is being shed.
func (s *Server) counted(name string, h http.HandlerFunc) http.HandlerFunc {
	return s.wrap(name, false, h)
}

func (s *Server) wrap(name string, limited bool, h http.HandlerFunc) http.HandlerFunc {
	m := s.metrics.endpoint(name)
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(ForwardedHeader) != "" {
			s.metrics.forwarded.Add(1)
		}
		if limited && s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
				defer func() { <-s.inflight }()
			default:
				s.metrics.rejected.Add(1)
				m.requests.Add(1)
				m.errors.Add(1)
				w.Header().Set("Retry-After", RetryAfterDefault)
				s.writeErr(w, http.StatusServiceUnavailable, fmt.Errorf("server at in-flight capacity"))
				return
			}
		}
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

// statusWriter captures the committed status code for error accounting.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) health(w http.ResponseWriter, _ *http.Request) {
	e := s.eng.Load()
	st := e.cache.Stats()
	body := map[string]any{
		"status":     "ok",
		"ready":      !s.notReady.Load(),
		"vertices":   e.n,
		"generation": e.gen,
		"memoryMB":   float64(e.factor.Memory()) / 1e6,
		"routes":     e.result != nil,
		"cacheSize":  st.Size,
	}
	if s.shard != nil {
		body["shard"] = s.shard
	}
	s.writeJSON(w, http.StatusOK, body)
}

// dist answers GET /dist?u=U&v=V with the shortest distance. Labels come
// from the LRU cache, so repeated queries against hot vertices skip the
// label computation entirely.
func (s *Server) dist(w http.ResponseWriter, r *http.Request) {
	e := s.eng.Load()
	u, err1 := e.vertex(r, "u")
	v, err2 := e.vertex(r, "v")
	if err1 != nil || err2 != nil {
		s.writeErr(w, http.StatusBadRequest, firstErr(err1, err2))
		return
	}
	d := e.cache.Dist(u, v)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"u": u, "v": v,
		"dist":      jsonFloat(d),
		"reachable": reachable(d),
	})
}

// distBatchRequest is the POST /dist/batch body: {"pairs": [[u,v], ...]}.
type distBatchRequest struct {
	Pairs [][2]int `json:"pairs"`
}

// distBatch answers POST /dist/batch, resolving every pair against the
// shared label cache — a batch touching k distinct vertices computes at
// most k labels regardless of pair count. The response streams
// {"count":N,"dists":[...],"reachable":[...]} without per-value boxing.
func (s *Server) distBatch(w http.ResponseWriter, r *http.Request) {
	e := s.eng.Load()
	var req distBatchRequest
	body := http.MaxBytesReader(w, r.Body, maxBatchBody)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad batch body: %w", err))
		return
	}
	if len(req.Pairs) == 0 {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("batch needs at least one pair"))
		return
	}
	if len(req.Pairs) > MaxBatchPairs {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("batch of %d pairs exceeds limit %d", len(req.Pairs), MaxBatchPairs))
		return
	}
	for _, p := range req.Pairs {
		if p[0] < 0 || p[0] >= e.n || p[1] < 0 || p[1] >= e.n {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("pair (%d,%d) out of range [0,%d)", p[0], p[1], e.n))
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	sw := s.newStreamWriter(w)
	sw.literal(`{"count":`)
	sw.int(len(req.Pairs))
	sw.literal(`,"dists":[`)
	for i, p := range req.Pairs {
		if i > 0 {
			sw.literal(",")
		}
		sw.float(e.cache.Dist(p[0], p[1]))
	}
	sw.literal(`],"reachable":[`)
	for i, p := range req.Pairs {
		if i > 0 {
			sw.literal(",")
		}
		sw.bool(reachable(e.cache.Dist(p[0], p[1])))
	}
	sw.literal("]}\n")
	sw.close("dist/batch")
}

// sssp answers GET /sssp?src=S with the full distance row, streamed as
// {"src":S,"n":N,"dist":[...]} from a pooled row buffer — no []any
// boxing, no per-request row allocation.
func (s *Server) sssp(w http.ResponseWriter, r *http.Request) {
	e := s.eng.Load()
	src, err := e.vertex(r, "src")
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	row := e.getRow()
	defer e.putRow(row)
	e.factor.SSSPInto(src, row)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// Failpoint between committing the status and streaming the row: a
	// sleep here holds a genuinely in-flight response open for the
	// graceful-shutdown chaos tests.
	fault.Inject("serve.sssp")
	sw := s.newStreamWriter(w)
	sw.literal(`{"src":`)
	sw.int(src)
	sw.literal(`,"n":`)
	sw.int(e.n)
	sw.literal(`,"dist":[`)
	for i, d := range row {
		if i > 0 {
			sw.literal(",")
		}
		sw.float(d)
	}
	sw.literal("]}\n")
	sw.close("sssp")
}

// route answers GET /route?u=U&v=V with the vertex sequence of a
// shortest path (requires a path-tracked result).
func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	e := s.eng.Load()
	if e.result == nil {
		s.writeErr(w, http.StatusNotImplemented, fmt.Errorf("server was started without route support"))
		return
	}
	u, err1 := e.vertex(r, "u")
	v, err2 := e.vertex(r, "v")
	if err1 != nil || err2 != nil {
		s.writeErr(w, http.StatusBadRequest, firstErr(err1, err2))
		return
	}
	path, ok := e.result.Path(u, v)
	if !ok {
		s.writeJSON(w, http.StatusOK, map[string]any{"u": u, "v": v, "reachable": false})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"u": u, "v": v, "reachable": true,
		"dist": jsonFloat(e.result.At(u, v)),
		"path": path,
	})
}

func reachable(d float64) bool {
	return !math.IsInf(d, 1) && !math.IsInf(d, -1) && !math.IsNaN(d)
}

// jsonFloat renders ±Inf and NaN as strings — JSON has none of them, and
// a bare NaN would abort encoding mid-response.
func jsonFloat(d float64) any {
	switch {
	case math.IsInf(d, 1):
		return "inf"
	case math.IsInf(d, -1):
		return "-inf"
	case math.IsNaN(d):
		return "nan"
	default:
		return d
	}
}

// writeJSON encodes v with the status committed first. Encode failures
// cannot be turned into an error status anymore, so they are logged
// instead of silently producing a truncated 200.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Printf("serve: response encode failed: %v", err)
	}
}

func (s *Server) writeErr(w http.ResponseWriter, code int, err error) {
	s.writeJSON(w, code, map[string]string{"error": err.Error()})
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
