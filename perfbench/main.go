// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one seeded workload for a fixed time against the
// public APIs of the program's layers, checks sampled answers against a
// Dijkstra oracle, and prints its metrics; the last line of standard
// output is a JSON object with the keys correct, attempted, failed and
// metrics. See README.md for the workloads and metrics.
//
//	go run . --workload build_road --seed 1 --seconds 28 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricName struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports, in the order of
// BENCHMARK.json. op_* name each workload's primary operation: a factor
// build, a dense solve, a /dist request, or an /admin/update batch.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer lists the per-layer metrics every traced run reports, in the
// order of BENCHMARK.json. Layer metrics that exist on only some
// workloads are printed in the report lines instead (README.md).
var perLayer = []metricName{
	{"order.nd_ms", "ms"},
	{"order.top_sep", "count"},
	{"symbolic.plan_ms", "ms"},
	{"symbolic.supernodes", "count"},
	{"symbolic.planned_ops", "count"},
	{"symbolic.critical_ops", "count"},
	{"core.factor_ms", "ms"},
	{"core.factor_mb", "MB"},
	{"semiring.diag_ms", "ms"},
	{"semiring.panel_ms", "ms"},
	{"semiring.outer_ms", "ms"},
	{"semiring.fused_ops", "count"},
	{"semiring.packed_mb", "MB"},
	{"semiring.reuse_mb", "MB"},
	{"semiring.dense_calls", "count"},
	{"semiring.stream_calls", "count"},
	{"semiring.gops", "Gop/s"},
	{"par.busy_frac", "ratio"},
	{"bench.span_coverage", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
}

// setupRepeats is how many times each workload sets up per run; setup_s
// is their median.
const setupRepeats = 7

type config struct {
	seed    int64
	seconds float64
	tr      *tracer // nil in untraced runs
	threads int
	scratch string // directory for state dirs and trace files
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// result is what one workload run measured.
type result struct {
	attempted, failed int
	e2e               map[string]metric // the endToEnd names
	named             map[string]metric // the same quantities under per-workload names
	layers            map[string]metric // per-layer metrics (traced runs)
	info              map[string]any    // inputs and configuration
}

func newResult() *result {
	return &result{
		e2e:    map[string]metric{},
		named:  map[string]metric{},
		layers: map[string]metric{},
		info:   map[string]any{},
	}
}

func (r *result) layer(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }
func (r *result) name(name string, v float64, unit string)  { r.named[name] = metric{v, unit} }

// latency reports a workload latency distribution under its own name
// prefix: <prefix>_p50_<unit>, each of p90, p99 and p99.9 that has at
// least minBeyond samples beyond it, and the sample count.
func (r *result) latency(prefix string, s samples, unit string) {
	if len(s) == 0 {
		return
	}
	r.name(prefix+"_p50_"+unit, median(s), unit)
	r.name(prefix+"_samples", float64(len(s)), "count")
	for _, t := range []struct {
		p     float64
		label string
	}{{0.9, "p90"}, {0.99, "p99"}, {0.999, "p99.9"}} {
		if tailOK(len(s), t.p) {
			r.name(prefix+"_"+t.label+"_"+unit, percentile(s, t.p), unit)
		}
	}
}

// primary sets the op_* metrics from the primary operation's latencies
// in milliseconds, in the order they were recorded. op_p90_ms is the
// median p90 of tailBlocks consecutive blocks of the run; the whole-run
// p90 is in the report lines.
func (r *result) primary(ms samples) {
	r.e2e["op_p50_ms"] = metric{median(ms), "ms"}
	r.e2e["op_p90_ms"] = metric{blockPercentile(ms, 0.9), "ms"}
	if !tailOK(len(ms), 0.9) {
		r.info["op_p90_warning"] = fmt.Sprintf("only %d samples: fewer than %d beyond p90", len(ms), minBeyond)
	}
}

var workloads = map[string]func(config) (*result, error){
	"build_road":   runBuildRoad,
	"solve_mesh3d": runSolveMesh3D,
	"serve_read":   runServeRead,
	"serve_update": runServeUpdate,
}

func main() {
	workload := flag.String("workload", "", "workload: build_road, solve_mesh3d, serve_read or serve_update")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 28, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload {build_road,solve_mesh3d,serve_read,serve_update}, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	scratch := ".bench_build"
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fatal(err)
	}
	cfg := config{seed: *seed, seconds: *seconds, threads: runtime.NumCPU(), scratch: scratch}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	// GOMAXPROCS and every layer's thread count follow nproc.
	runtime.GOMAXPROCS(cfg.threads)

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)
	printJSON(out, "machine", bench.CurrentMachine())
	out.Flush()

	res, err := run(cfg)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	res.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	res.info["threads"] = cfg.threads
	printJSON(out, "config", res.info)
	if cfg.tr != nil {
		path := fmt.Sprintf("%s/trace-%s-%d.jsonl", scratch, *workload, *seed)
		if err := cfg.tr.writeFile(path); err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "# spans written to %s\n", path)
	}
	printMetrics(out, "e2e", res.e2e)
	printMetrics(out, "metric", res.named)
	printMetrics(out, "layer", res.layers)
	if cfg.tr != nil {
		printSelfTimes(out, cfg.tr.snapshot())
	}

	want, have := endToEnd, res.e2e
	if cfg.tr != nil {
		want, have = perLayer, res.layers
	}
	final := map[string]metric{}
	for _, m := range want {
		v, ok := have[m.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			fatal(fmt.Errorf("metric %s was not measured", m.name))
		}
		final[m.name] = metric{v.Value, m.unit}
	}
	correct := res.failed == 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, res.attempted, res.failed, final})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "%s\n", line)
	if !correct {
		out.Flush()
		os.Exit(1)
	}
}

func printJSON(w *bufio.Writer, label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(w, "# %s %s\n", label, b)
}

func printMetrics(w *bufio.Writer, label string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "# %s %s %s %s\n", label, k, strconv.FormatFloat(m[k].Value, 'g', 6, 64), m[k].Unit)
	}
}

// printSelfTimes prints, per span name, the median self time (duration
// minus the time its child spans cover) and the span count.
func printSelfTimes(w *bufio.Writer, spans []span) {
	self := selfTimes(spans)
	by := map[string][]time.Duration{}
	for _, s := range spans {
		by[s.Name] = append(by[s.Name], self[s.ID])
	}
	names := make([]string, 0, len(by))
	for k := range by {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "# self %s %s us n=%d\n", k, strconv.FormatFloat(median(durs(by[k], time.Microsecond)), 'g', 6, 64), len(by[k]))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return math.NaN()
			}
			return kb * 1024 / 1e6
		}
	}
	return math.NaN()
}

// releaseMemory returns freed heap to the OS between set-ups, so that
// the peak RSS reflects one set-up's footprint rather than how many
// discarded ones the collector had not yet reclaimed.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// medianSeconds returns the median of durations in seconds.
func medianSeconds(ds []time.Duration) float64 { return median(durs(ds, time.Second)) }
