package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Pinned generator parameters. The workloads generate their graphs here
// rather than reading the program's catalog, so a change to the catalog
// cannot move a workload.
const (
	roadSide   = 80 // gen.RoadNetwork(80, 80, 0.35, seed): n = 6400, road_l class
	roadDelete = 0.35
	roadBuilds = 8  // graphs per build_road run
	meshSide   = 12 // gen.Grid3D(12, 12, 12, WeightUniform, seed): n = 1728, mesh3d_s class

	zipfS       = 1.2  // skew of vertex popularity in the read streams
	batchPairs  = 32   // pairs per /dist/batch request
	updateEdges = 8    // edges per /admin/update batch
	updateRate  = 10.0 // update batches per second (open loop)
	digestLen   = 4096 // requests hashed into a read stream's digest
)

func roadGraph(seed int64) *graph.Graph {
	return gen.RoadNetwork(roadSide, roadSide, roadDelete, seed)
}

// roadGraphs returns k road graphs: roadGraph(seed) first, then graphs
// from seeds derived from it. build_road cycles through them, so one
// run's figures do not hinge on one graph's partitioning luck.
func roadGraphs(seed int64, k int) []*graph.Graph {
	out := []*graph.Graph{roadGraph(seed)}
	for i := 1; i < k; i++ {
		out = append(out, roadGraph(subSeed(seed, "road-"+strconv.Itoa(i))))
	}
	return out
}

func meshGraph(seed int64) *graph.Graph {
	return gen.Grid3D(meshSide, meshSide, meshSide, gen.WeightUniform, seed)
}

// subSeed derives an independent seed for one named input stream, so
// adding a stream never shifts the others.
func subSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(seed))
	h.Write(b[:])
	h.Write([]byte(name))
	return int64(h.Sum64() &^ (1 << 63))
}

type reqKind int

const (
	reqDist reqKind = iota
	reqBatch
	reqSSSP
	reqRoute
	numReqKinds
)

var reqNames = [numReqKinds]string{"dist", "batch", "sssp", "route"}

// request is one read request of a serving workload.
type request struct {
	kind  reqKind
	u, v  int      // dist/route pair; u is the source of sssp
	pairs [][2]int // batch only
}

// requestStream generates one client's read requests: about 90% /dist,
// 8% /dist/batch, 1% /sssp and 1% /route (folded into /dist when the
// workload serves no routes), with every vertex drawn from one shared
// Zipf popularity ranking.
type requestStream struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	hot    []int // popularity rank -> vertex
	routes bool
}

func newRequestStream(n int, seed int64, client int, routes bool) *requestStream {
	hot := rand.New(rand.NewSource(subSeed(seed, "hot"))).Perm(n)
	rng := rand.New(rand.NewSource(subSeed(seed, "client-"+strconv.Itoa(client))))
	return &requestStream{
		rng:    rng,
		zipf:   rand.NewZipf(rng, zipfS, 1, uint64(n-1)),
		hot:    hot,
		routes: routes,
	}
}

func (s *requestStream) vertex() int { return s.hot[s.zipf.Uint64()] }

func (s *requestStream) next() request {
	x := s.rng.Float64()
	switch {
	case x < 0.90:
		return request{kind: reqDist, u: s.vertex(), v: s.vertex()}
	case x < 0.98:
		pairs := make([][2]int, batchPairs)
		for i := range pairs {
			pairs[i] = [2]int{s.vertex(), s.vertex()}
		}
		return request{kind: reqBatch, pairs: pairs}
	case x < 0.99:
		return request{kind: reqSSSP, u: s.vertex()}
	case s.routes:
		return request{kind: reqRoute, u: s.vertex(), v: s.vertex()}
	default:
		return request{kind: reqDist, u: s.vertex(), v: s.vertex()}
	}
}

// streamDigest fingerprints the first digestLen requests of a client's
// stream; equal digests prove two runs sent the same traffic.
func streamDigest(n int, seed int64, client int, routes bool) uint64 {
	s := newRequestStream(n, seed, client, routes)
	h := fnv.New64a()
	var b [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	for i := 0; i < digestLen; i++ {
		r := s.next()
		put(int(r.kind))
		put(r.u)
		put(r.v)
		for _, p := range r.pairs {
			put(p[0])
			put(p[1])
		}
	}
	return h.Sum64()
}

// updateStream generates count batches of updateEdges distinct edges.
// Batches alternate decrease-only and increase-only, and every weight
// stays within [0.5, 2] times its base weight, so no batch can create a
// negative edge and each batch really moves every edge it names.
func updateStream(g *graph.Graph, seed int64, count int) [][]core.EdgeDelta {
	rng := rand.New(rand.NewSource(subSeed(seed, "updates")))
	edges := g.Edges()
	cur := make([]float64, len(edges))
	for i, e := range edges {
		cur[i] = e.W
	}
	out := make([][]core.EdgeDelta, count)
	for b := range out {
		decrease := b%2 == 0
		picked := map[int]bool{}
		for len(picked) < updateEdges {
			i := rng.Intn(len(edges))
			if picked[i] {
				continue
			}
			base := edges[i].W
			var w float64
			if decrease {
				w = math.Max(0.5*base, cur[i]*(0.5+0.45*rng.Float64()))
			} else {
				w = math.Min(2*base, cur[i]*(1.1+0.9*rng.Float64()))
			}
			if (decrease && w >= cur[i]) || (!decrease && w <= cur[i]) {
				continue // already at its bound in this direction
			}
			picked[i] = true
			cur[i] = w
			out[b] = append(out[b], core.EdgeDelta{U: edges[i].U, V: edges[i].V, W: w})
		}
	}
	return out
}

// updatesDigest fingerprints an update stream.
func updatesDigest(batches [][]core.EdgeDelta) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, batch := range batches {
		for _, e := range batch {
			for _, x := range []uint64{uint64(e.U), uint64(e.V), math.Float64bits(e.W)} {
				binary.LittleEndian.PutUint64(b[:], x)
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// applyBatches returns g with the batches' absolute weights applied in
// order.
func applyBatches(g *graph.Graph, batches [][]core.EdgeDelta) *graph.Graph {
	edges := g.Edges()
	idx := make(map[[2]int]int, len(edges))
	for i, e := range edges {
		idx[[2]int{e.U, e.V}] = i
	}
	for _, batch := range batches {
		for _, d := range batch {
			edges[idx[[2]int{d.U, d.V}]].W = d.W
		}
	}
	return graph.MustFromEdges(g.N, edges)
}
