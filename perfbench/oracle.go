package main

import (
	"math"

	"repro/internal/apsp"
	"repro/internal/graph"
)

// relTol is the relative tolerance of every distance check: label meets
// and etree sweeps reassociate the same sums, so answers for one pair
// can differ from Dijkstra's (and from each other) in the last bits.
const relTol = 1e-9

// oracle answers distances on one fixed graph with Dijkstra, the
// independent reference every checked answer is compared with. Rows are
// computed on demand and cached. Not safe for concurrent use.
type oracle struct {
	g    *graph.Graph
	rows map[int][]float64
}

func newOracle(g *graph.Graph) *oracle { return &oracle{g: g, rows: map[int][]float64{}} }

func (o *oracle) row(src int) []float64 {
	if r, ok := o.rows[src]; ok {
		return r
	}
	r, err := apsp.DijkstraSSSP(o.g, src)
	if err != nil {
		// The generators emit positive weights only; a negative weight
		// is a bug in this benchmark's input construction.
		panic(err)
	}
	o.rows[src] = r
	return r
}

func (o *oracle) dist(u, v int) float64 { return o.row(u)[v] }

// agree compares an answer with the oracle's value.
func agree(got, want float64) bool {
	if math.IsInf(want, 1) || math.IsInf(got, 1) {
		return got == want
	}
	return math.Abs(got-want) <= relTol*math.Max(1, math.Abs(want))
}

// pathOK reports whether path is a u→v walk along edges of g whose
// length agrees with want.
func pathOK(g *graph.Graph, path []int, u, v int, want float64) bool {
	if len(path) == 0 || path[0] != u || path[len(path)-1] != v {
		return false
	}
	var total float64
	for i := 1; i < len(path); i++ {
		w, ok := g.Weight(path[i-1], path[i])
		if !ok {
			return false
		}
		total += w
	}
	return agree(total, want)
}
