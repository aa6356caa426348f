package main

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
)

func TestInputDigestsAreDeterministic(t *testing.T) {
	for _, gen := range []func(int64) uint64{
		func(s int64) uint64 { return core.GraphDigest(roadGraph(s)) },
		func(s int64) uint64 { return core.GraphDigest(meshGraph(s)) },
		func(s int64) uint64 { return streamDigest(6400, s, 0, true) },
		func(s int64) uint64 { return streamDigest(6400, s, 1, false) },
		func(s int64) uint64 { return updatesDigest(updateStream(roadGraph(s), s, 20)) },
	} {
		if a, b := gen(7), gen(7); a != b {
			t.Errorf("seed 7 gave digests %x and %x", a, b)
		}
		if gen(7) == gen(8) {
			t.Error("seeds 7 and 8 gave the same digest")
		}
	}
	if streamDigest(6400, 7, 0, true) == streamDigest(6400, 7, 1, true) {
		t.Error("two clients share one request stream")
	}
}

func TestUpdateStreamShape(t *testing.T) {
	g := roadGraph(3)
	base := map[[2]int]float64{}
	for _, e := range g.Edges() {
		base[[2]int{e.U, e.V}] = e.W
	}
	cur := map[[2]int]float64{}
	for k, w := range base {
		cur[k] = w
	}
	for i, batch := range updateStream(g, 3, 60) {
		if len(batch) != updateEdges {
			t.Fatalf("batch %d has %d edges", i, len(batch))
		}
		seen := map[[2]int]bool{}
		for _, d := range batch {
			k := [2]int{d.U, d.V}
			b, ok := base[k]
			if !ok || seen[k] {
				t.Fatalf("batch %d: edge %v missing from the graph or repeated", i, k)
			}
			seen[k] = true
			if d.W < 0.5*b || d.W > 2*b {
				t.Errorf("batch %d: weight %v outside [0.5, 2] x %v", i, d.W, b)
			}
			if decrease := i%2 == 0; decrease != (d.W < cur[k]) {
				t.Errorf("batch %d (decrease=%v): edge %v moves %v -> %v", i, decrease, k, cur[k], d.W)
			}
			cur[k] = d.W
		}
	}
}

func TestRequestMix(t *testing.T) {
	s := newRequestStream(6400, 5, 0, true)
	var count [numReqKinds]int
	const n = 100000
	for i := 0; i < n; i++ {
		r := s.next()
		count[r.kind]++
		if r.kind == reqBatch && len(r.pairs) != batchPairs {
			t.Fatalf("batch of %d pairs", len(r.pairs))
		}
	}
	for k, want := range [numReqKinds]float64{0.90, 0.08, 0.01, 0.01} {
		if got := float64(count[k]) / n; got < want*0.9 || got > want*1.1 {
			t.Errorf("%s share %.4f, want about %.2f", reqNames[k], got, want)
		}
	}
	noRoutes := newRequestStream(6400, 5, 0, false)
	for i := 0; i < 10000; i++ {
		if noRoutes.next().kind == reqRoute {
			t.Fatal("a stream without routes sent /route")
		}
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metric lists the
// program prints in step.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	check := func(kind string, file []struct{ Name, Unit string }, prog []metricName) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(file), len(prog))
			return
		}
		for i := range file {
			if file[i].Name != prog[i].name || file[i].Unit != prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, file[i].Name, file[i].Unit, prog[i].name, prog[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
