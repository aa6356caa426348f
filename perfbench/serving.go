package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
)

// quiet discards the program's per-request and per-update log lines,
// which would otherwise interleave with the benchmark's report.
var quiet = log.New(io.Discard, "", 0)

// Headers a traced client stamps on a request, so the handler span it
// causes shares the client span's op id and names it as parent.
const (
	hdrOp   = "X-Perfbench-Op"
	hdrSpan = "X-Perfbench-Span"
)

// endpoint names a request path for spans and metrics.
func endpoint(path string) string {
	switch path {
	case "/dist":
		return "dist"
	case "/dist/batch":
		return "batch"
	case "/sssp":
		return "sssp"
	case "/route":
		return "route"
	case "/admin/update":
		return "update"
	}
	return "other"
}

// traceHandler wraps h and records each request's handler time as a span
// named prefix.endpoint (prefix.update.<mode> for update protocol
// steps). With all unset it records only requests that carry the trace
// headers; the shard coordinator does not forward them, so the workers
// behind it record every request, as root spans.
func traceHandler(tr *tracer, prefix string, all bool, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		opHdr := r.Header.Get(hdrOp)
		if opHdr == "" && !all {
			h.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseUint(opHdr, 10, 64)
		parent := -1
		if p, err := strconv.Atoi(r.Header.Get(hdrSpan)); err == nil {
			parent = p
		}
		name := prefix + "." + endpoint(r.URL.Path)
		if r.URL.Path == "/admin/update" && r.Body != nil {
			body, err := io.ReadAll(r.Body)
			if err == nil {
				var m struct {
					Mode string `json:"mode"`
				}
				if json.Unmarshal(body, &m) == nil && m.Mode != "" {
					name += "." + m.Mode
				}
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.record(op, parent, name, start, time.Now())
	})
}

// httpService is one loopback HTTP server.
type httpService struct {
	hs   *http.Server
	done chan error
	url  string
}

func startHTTP(h http.Handler) (*httpService, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpService{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second, ErrorLog: quiet},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for Serve to return.
func (s *httpService) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        4 * conns,
			MaxIdleConnsPerHost: 4 * conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// waitOK polls url until it answers 200 or the timeout passes.
func waitOK(hc *http.Client, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v (last error %v)", url, timeout, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// loadClient sends one closed-loop client's requests.
type loadClient struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

// reply is one response as a client saw it.
type reply struct {
	code int
	body []byte // valid until the client's next request
	// shed reports a refusal carrying Retry-After: the server asks the
	// client to send the request again later.
	shed bool
}

// Shed requests are sent again every retryPause for up to shedWait; the
// wait stays in the request's latency and the retries are counted.
const (
	retryPause = 5 * time.Millisecond
	shedWait   = 30 * time.Second
)

// send issues req and reads the whole response. A traced request opens a
// client span and passes its ids to the server in headers.
func (c *loadClient) send(req request, tr *tracer) (reply, error) {
	var sb strings.Builder
	sb.WriteString(c.base)
	method := http.MethodGet
	var body io.Reader
	switch req.kind {
	case reqDist, reqRoute:
		fmt.Fprintf(&sb, "/%s?u=%d&v=%d", reqNames[req.kind], req.u, req.v)
	case reqSSSP:
		fmt.Fprintf(&sb, "/sssp?src=%d", req.u)
	case reqBatch:
		sb.WriteString("/dist/batch")
		method = http.MethodPost
		var b bytes.Buffer
		b.WriteString(`{"pairs":[`)
		for i, p := range req.pairs {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "[%d,%d]", p[0], p[1])
		}
		b.WriteString("]}")
		body = &b
	}
	hr, err := http.NewRequest(method, sb.String(), body)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	op := tr.newOp()
	id := tr.begin(op, -1, "client."+reqNames[req.kind])
	if tr != nil {
		hr.Header.Set(hdrOp, strconv.FormatUint(op, 10))
		hr.Header.Set(hdrSpan, strconv.Itoa(id))
	}
	defer tr.end(id)
	resp, err := c.hc.Do(hr)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return reply{}, err
	}
	return reply{
		code: resp.StatusCode,
		body: c.buf.Bytes(),
		shed: resp.StatusCode >= 400 && resp.Header.Get("Retry-After") != "",
	}, nil
}

// sendRetrying sends req, and sends it again while the server sheds it.
func (c *loadClient) sendRetrying(req request, tr *tracer) (reply, int, error) {
	t0 := time.Now()
	rep, err := c.send(req, tr)
	retries := 0
	for err == nil && rep.shed && time.Since(t0) < shedWait {
		retries++
		time.Sleep(retryPause)
		rep, err = c.send(req, tr)
	}
	return rep, retries, err
}

// Sampling of responses for the oracle: every sampleEvery[k]-th request
// of kind k is kept, up to sampleCap[k] per client, so the checks cover
// the whole run at a bounded Dijkstra cost.
var (
	sampleEvery = [numReqKinds]int{64, 16, 2, 2}
	sampleCap   = [numReqKinds]int{200, 8, 8, 20}
)

// answer is one sampled response kept for the oracle.
type answer struct {
	req  request
	body []byte
}

// loadStats is one client's record of a traffic phase.
type loadStats struct {
	lat                [numReqKinds]samples // µs, every successful request
	traced, untraced   samples              // /dist µs split by tracing (traced runs)
	attempted, failed  int
	retries            int // shed responses sent again
	answers            []answer
	sent               int            // requests drawn from the stream
	errors             map[string]int // failed requests by status or error
	kindCount, kindCap [numReqKinds]int
}

// readLoop runs one closed-loop client until deadline. In a traced run
// every other request is traced, so the run measures its own overhead.
func readLoop(c *loadClient, stream *requestStream, deadline time.Time, tr *tracer, st *loadStats) {
	for i := 0; time.Now().Before(deadline); i++ {
		req := stream.next()
		st.sent++
		var rtr *tracer
		if i%2 == 1 {
			rtr = tr
		}
		t0 := time.Now()
		rep, retries, err := c.sendRetrying(req, rtr)
		us := float64(time.Since(t0)) / 1e3
		st.attempted++
		st.retries += retries
		if err != nil || rep.code != http.StatusOK {
			st.failed++
			if st.errors == nil {
				st.errors = map[string]int{}
			}
			key := fmt.Sprintf("%s %d", reqNames[req.kind], rep.code)
			if err != nil {
				key = fmt.Sprintf("%s %v", reqNames[req.kind], err)
			}
			st.errors[key]++
			continue
		}
		st.lat[req.kind] = append(st.lat[req.kind], us)
		if req.kind == reqDist && tr != nil {
			if rtr != nil {
				st.traced = append(st.traced, us)
			} else {
				st.untraced = append(st.untraced, us)
			}
		}
		k := req.kind
		if st.kindCount[k]%sampleEvery[k] == 0 && st.kindCap[k] < sampleCap[k] {
			st.answers = append(st.answers, answer{req: req, body: append([]byte(nil), rep.body...)})
			st.kindCap[k]++
		}
		st.kindCount[k]++
	}
}

// jsonDist decodes a distance the server rendered as a number or as
// "inf".
func jsonDist(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case string:
		d, err := strconv.ParseFloat(x, 64)
		return d, err == nil
	}
	return 0, false
}

// checkAnswer compares one sampled response with the oracle.
func checkAnswer(a answer, or *oracle, g *graph.Graph) bool {
	switch a.req.kind {
	case reqDist:
		var m struct {
			Dist any `json:"dist"`
		}
		if json.Unmarshal(a.body, &m) != nil {
			return false
		}
		d, ok := jsonDist(m.Dist)
		return ok && agree(d, or.dist(a.req.u, a.req.v))
	case reqBatch:
		var m struct {
			Dists []any `json:"dists"`
		}
		if json.Unmarshal(a.body, &m) != nil || len(m.Dists) != len(a.req.pairs) {
			return false
		}
		for i, p := range a.req.pairs {
			d, ok := jsonDist(m.Dists[i])
			if !ok || !agree(d, or.dist(p[0], p[1])) {
				return false
			}
		}
		return true
	case reqSSSP:
		var m struct {
			Dist []any `json:"dist"`
		}
		if json.Unmarshal(a.body, &m) != nil || len(m.Dist) != g.N {
			return false
		}
		want := or.row(a.req.u)
		for v, x := range m.Dist {
			d, ok := jsonDist(x)
			if !ok || !agree(d, want[v]) {
				return false
			}
		}
		return true
	case reqRoute:
		var m struct {
			Reachable bool  `json:"reachable"`
			Dist      any   `json:"dist"`
			Path      []int `json:"path"`
		}
		if json.Unmarshal(a.body, &m) != nil || !m.Reachable {
			return false
		}
		d, ok := jsonDist(m.Dist)
		want := or.dist(a.req.u, a.req.v)
		return ok && agree(d, want) && pathOK(g, m.Path, a.req.u, a.req.v, want)
	}
	return false
}

// mergeStats combines the clients' records.
func mergeStats(all []*loadStats) *loadStats {
	out := &loadStats{}
	for _, st := range all {
		for k := range st.lat {
			out.lat[k] = append(out.lat[k], st.lat[k]...)
		}
		out.traced = append(out.traced, st.traced...)
		out.untraced = append(out.untraced, st.untraced...)
		out.attempted += st.attempted
		out.failed += st.failed
		out.retries += st.retries
		out.answers = append(out.answers, st.answers...)
		out.sent += st.sent
		for k, n := range st.errors {
			if out.errors == nil {
				out.errors = map[string]int{}
			}
			out.errors[k] += n
		}
	}
	return out
}

// readMetrics reports the read-side latencies under the per-workload
// names and returns the number of completed reads.
func readMetrics(r *result, st *loadStats) int {
	r.name("read_retries", float64(st.retries), "count")
	r.latency("dist", st.lat[reqDist], "us")
	r.latency("batch", st.lat[reqBatch], "us")
	r.latency("sssp", st.lat[reqSSSP], "us")
	r.latency("route", st.lat[reqRoute], "us")
	done := 0
	for _, l := range st.lat {
		done += len(l)
	}
	return done
}

// httpOverhead is the median of client span time minus the handler span
// it caused, over the client spans named client.
func httpOverhead(spans []span, client string) float64 {
	cover := childCover(spans)
	var s samples
	for _, sp := range spans {
		if sp.Name == client && cover[sp.ID] > 0 {
			s = append(s, float64(sp.dur()-cover[sp.ID])/1e3)
		}
	}
	return median(s)
}
