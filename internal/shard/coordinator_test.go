package shard

// Coordinator behavior against scripted stub workers: forwarding with
// replica retry, Retry-After propagation (the coordinator must relay
// the max of downstream advice, never invent its own), and the merged
// metrics/readiness surface. The stubs answer /health with a fixed
// vertex count so discovery succeeds, then misbehave on the query
// endpoints exactly as each test directs.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

const stubVertices = 256

// stubWorker is a scripted fake apspserve: /health and /readyz always
// succeed; distHandler scripts /dist and /dist/batch.
type stubWorker struct {
	srv  *httptest.Server
	hits atomic.Uint64 // /dist and /dist/batch requests seen
}

func newStubWorker(t *testing.T, dist http.HandlerFunc) *stubWorker {
	t.Helper()
	w := &stubWorker{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /health", func(rw http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(rw).Encode(map[string]any{"vertices": stubVertices})
	})
	mux.HandleFunc("GET /readyz", func(rw http.ResponseWriter, _ *http.Request) {
		io.WriteString(rw, `{"ready":true}`)
	})
	handler := func(rw http.ResponseWriter, r *http.Request) {
		w.hits.Add(1)
		dist(rw, r)
	}
	mux.HandleFunc("GET /dist", handler)
	mux.HandleFunc("POST /dist/batch", handler)
	w.srv = httptest.NewServer(mux)
	t.Cleanup(w.srv.Close)
	return w
}

func shed(retryAfter string) http.HandlerFunc {
	return func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Retry-After", retryAfter)
		rw.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(rw, `{"error":"shedding"}`)
	}
}

func okDist(rw http.ResponseWriter, _ *http.Request) {
	io.WriteString(rw, `{"dist":1,"reachable":true}`)
}

func newTestCoordinator(t *testing.T, workers ...*stubWorker) *Coordinator {
	t.Helper()
	var ws []Worker
	for i, sw := range workers {
		ws = append(ws, Worker{ID: fmt.Sprintf("w%d", i+1), URL: sw.srv.URL})
	}
	c, err := New(Options{
		Workers:         ws,
		Slots:           16,
		DiscoverTimeout: 5 * time.Second,
		ProbeTimeout:    2 * time.Second,
		GatherTimeout:   2 * time.Second,
		ForwardTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRetryAfterPropagation is the regression test for the Retry-After
// contract: when every candidate shard sheds with 503, the coordinator
// answers 503 carrying the MAX of the downstream Retry-After values —
// the client must back off as hard as the most loaded shard asked —
// instead of stamping its own default.
func TestRetryAfterPropagation(t *testing.T) {
	a := newStubWorker(t, shed("3"))
	b := newStubWorker(t, shed("7"))
	c := newTestCoordinator(t, a, b)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	for _, path := range []string{"/dist?u=0&v=1", "/dist/batch"} {
		var resp *http.Response
		var err error
		if strings.HasPrefix(path, "/dist/batch") {
			resp, err = http.Post(front.URL+path, "application/json", strings.NewReader(`{"pairs":[[0,1],[200,2]]}`))
		} else {
			resp, err = http.Get(front.URL + path)
		}
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s: status %d, want 503 (body %s)", path, resp.StatusCode, body)
		}
		got := resp.Header.Get("Retry-After")
		want := "7"
		if len(c.workers) == 2 && path == "/dist?u=0&v=1" {
			// Single-vertex forward only visits the two owners of u=0's
			// slot, which with two workers is both of them — still 3 and 7.
			want = "7"
		}
		if got != want {
			t.Errorf("%s: Retry-After %q, want max of downstream values %q", path, got, want)
		}
		if !strings.Contains(string(body), "error") {
			t.Errorf("%s: 503 body lacks error field: %s", path, body)
		}
	}
}

// TestRetryAfterDefaultOnConnectionFailure: with no downstream advice
// (both owners unreachable), the coordinator falls back to the same
// default the workers use, so the two layers agree on semantics.
func TestRetryAfterDefaultOnConnectionFailure(t *testing.T) {
	a := newStubWorker(t, okDist)
	b := newStubWorker(t, okDist)
	c := newTestCoordinator(t, a, b)
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	// Kill both workers after discovery: every forward now gets
	// connection refused, no Retry-After to propagate.
	a.srv.Close()
	b.srv.Close()

	resp, err := http.Get(front.URL + "/dist?u=0&v=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != serve.RetryAfterDefault {
		t.Errorf("Retry-After %q, want serve default %q", got, serve.RetryAfterDefault)
	}
}

// TestForwardRetriesReplicaInline: a forward that hits a failing
// primary must retry the replica inside the same request — clients see
// one 200, not an error, even before the prober notices the death.
func TestForwardRetriesReplicaInline(t *testing.T) {
	var healthyHits atomic.Uint64
	dead := newStubWorker(t, func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusInternalServerError)
	})
	healthy := newStubWorker(t, func(rw http.ResponseWriter, r *http.Request) {
		healthyHits.Add(1)
		if r.Header.Get(serve.ForwardedHeader) == "" {
			t.Error("forwarded request lacks forwarded header")
		}
		if r.Header.Get(serve.GenerationHeader) == "" {
			t.Error("forwarded request lacks generation header")
		}
		okDist(rw, r)
	})
	c := newTestCoordinator(t, dead, healthy)
	front := httptest.NewServer(c.Handler())
	defer front.Close()

	// Every vertex routes to {dead, healthy} in some order; each query
	// must come back 200 via the healthy one.
	for v := 0; v < stubVertices; v += 16 {
		resp, err := http.Get(fmt.Sprintf("%s/dist?u=%d&v=1", front.URL, v))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("u=%d: status %d, want 200 via replica retry", v, resp.StatusCode)
		}
	}
	if healthyHits.Load() == 0 {
		t.Fatal("healthy worker never hit")
	}
}

func TestCoordinatorRejectsBadVertices(t *testing.T) {
	a := newStubWorker(t, okDist)
	b := newStubWorker(t, okDist)
	c := newTestCoordinator(t, a, b)
	front := httptest.NewServer(c.Handler())
	defer front.Close()
	for _, q := range []string{
		"/dist?u=-1&v=0",
		fmt.Sprintf("/dist?u=%d&v=0", stubVertices),
		"/dist?v=0",
		"/dist?u=abc&v=0",
	} {
		resp, err := http.Get(front.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	if got := a.hits.Load() + b.hits.Load(); got != 0 {
		t.Errorf("invalid queries were forwarded %d times", got)
	}
}

func TestDiscoveryRejectsVertexMismatch(t *testing.T) {
	a := newStubWorker(t, okDist)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /health", func(rw http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(rw).Encode(map[string]any{"vertices": stubVertices + 1})
	})
	odd := httptest.NewServer(mux)
	defer odd.Close()

	_, err := New(Options{
		Workers:         []Worker{{ID: "a", URL: a.srv.URL}, {ID: "b", URL: odd.URL}},
		DiscoverTimeout: 3 * time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("mismatched shard set accepted (err=%v)", err)
	}
}

// TestProbeKeepsNewerCommitGeneration: a /readyz probe in flight while
// a commit round finishes carries the worker's generation from before
// the commit. The prober must not store that reading over the newer
// generation the commit round recorded, and so must not hold a current
// worker out of rotation as lagging.
func TestProbeKeepsNewerCommitGeneration(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var block atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /health", func(rw http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(rw).Encode(map[string]any{"vertices": stubVertices, "generation": 1})
	})
	mux.HandleFunc("GET /readyz", func(rw http.ResponseWriter, _ *http.Request) {
		if block.Load() {
			entered <- struct{}{}
			<-release
		}
		io.WriteString(rw, `{"ready":true,"generation":1}`)
	})
	mux.HandleFunc("GET /dist", okDist)
	slow := &stubWorker{srv: httptest.NewServer(mux)}
	t.Cleanup(slow.srv.Close)
	c := newTestCoordinator(t, slow, newStubWorker(t, okDist))
	for _, ws := range c.workers {
		ws.gen.Store(1)
	}
	c.expectedGen.Store(1)

	block.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.probeAll(t.Context())
	}()
	<-entered
	// A commit round completes while w1's probe is in flight.
	c.expectedGen.Store(2)
	for _, ws := range c.workers {
		ws.gen.Store(2)
	}
	close(release)
	<-done

	if g := c.workers[0].gen.Load(); g != 2 {
		t.Fatalf("w1 generation %d after the stale probe, want 2", g)
	}
	if !c.table.Alive(0) {
		t.Fatal("stale probe reading held a current worker out of rotation")
	}
}
