// Package core implements the paper's primary contribution: the
// supernodal Floyd-Warshall algorithm (SuperFw, Algorithm 3) for
// all-pairs shortest paths on sparse graphs.
//
// A Plan captures the symbolic phase — fill-reducing ordering, symbolic
// analysis, supernode extraction, and the supernodal elimination tree —
// and can then be executed (numerically) any number of times, matching
// the analyze/factorize split of sparse direct solvers.
//
// Eliminating supernode k touches only the index set
// R(k) = D(k) ∪ {k} ∪ A(k): its etree descendants (a contiguous index
// range, because orderings are postorders) and its etree ancestors (the
// root path). The elimination step — DiagUpdate, PanelUpdate and
// OuterUpdate on the blocks of R(k) — is written once (step.go) over a
// block store, and every numeric phase runs it through one schedule,
// runSupernodes (solve.go). The dense solve's store holds the blocks as
// views of one dense distance matrix in permuted order: the paper's
// output is that matrix, and because A(k) is a chain every block SuperFw
// touches lies in the symbolic fill pattern, so dense backing adds no
// asymptotic work. The factor's store (factor.go) holds only the
// O(fill) blocks of k against its ancestors.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/order"
	"repro/internal/semiring"
	"repro/internal/symbolic"
)

// OrderingKind selects the fill-reducing ordering of a Plan.
type OrderingKind int

const (
	// OrderND is nested dissection via the multilevel partitioner — the
	// paper's default (METIS) configuration.
	OrderND OrderingKind = iota
	// OrderBFS is breadth-first discovery order — the SuperBfs baseline:
	// no fill-reducing ordering, but full symbolic analysis and
	// supernodal structure.
	OrderBFS
	// OrderRCM is reverse Cuthill-McKee (ablation point).
	OrderRCM
	// OrderNatural keeps the input ordering (ablation point).
	OrderNatural
	// OrderCustom uses Options.Custom.
	OrderCustom
	// OrderMinDegree is quotient-graph minimum degree — the other
	// classic fill-reducing family (ablation point: good fill, but an
	// unbalanced elimination tree with less etree parallelism than ND).
	OrderMinDegree
)

func (k OrderingKind) String() string {
	switch k {
	case OrderND:
		return "nd"
	case OrderBFS:
		return "bfs"
	case OrderRCM:
		return "rcm"
	case OrderNatural:
		return "natural"
	case OrderCustom:
		return "custom"
	case OrderMinDegree:
		return "mindegree"
	}
	return fmt.Sprintf("OrderingKind(%d)", int(k))
}

// Options configure plan construction and execution defaults.
type Options struct {
	// Ordering selects the fill-reducing ordering (default OrderND).
	Ordering OrderingKind
	// Custom supplies a prebuilt ordering when Ordering == OrderCustom.
	// If Custom.Tree is non-nil it is used directly as the separator
	// tree; otherwise symbolic analysis derives the elimination tree.
	Custom *order.Ordering
	// MaxBlock caps supernode block size (default 128).
	MaxBlock int
	// LeafSize stops nested dissection below this region size
	// (default 64).
	LeafSize int
	// Seed drives the randomized phases of the partitioner.
	Seed int64
	// Threads is the default execution parallelism (≤0: GOMAXPROCS).
	Threads int
	// EtreeParallel enables elimination-tree parallelism, the paper's
	// cousin parallelism (default true via NewPlan; Fig 8 ablates it).
	// A supernode is eliminated as soon as its last child completes,
	// with no barriers between etree levels. With it disabled,
	// supernodes are eliminated one at a time and only intra-supernode
	// parallelism remains.
	EtreeParallel bool
	// FundamentalSupernodes restricts symbolically-derived supernodes
	// (BFS/RCM/Natural orderings) to exact fundamental supernodes
	// instead of relaxed etree chains. The engine's reach sets are
	// identical either way; fundamental supernodes are smaller, trading
	// kernel blocking for structural exactness (ablation knob).
	FundamentalSupernodes bool
	// TrackPaths maintains a next-hop matrix alongside distances so
	// Result.Path can reconstruct shortest paths. Costs one n² int32
	// array and roughly doubles kernel time. Path extraction assumes
	// positive edge weights (zero-weight cycles would make next-hop
	// walks ambiguous); extraction guards with a hop budget regardless.
	TrackPaths bool
	// Semiring selects the path algebra the numeric phase runs over
	// (nil: semiring.MinPlusKernels, i.e. shortest paths). The symbolic
	// phase is algebra-independent — sparsity is a property of the
	// pattern — so the same plan solves shortest paths and, with
	// semiring.MaxMinKernels, widest (maximum-bottleneck) paths.
	Semiring *semiring.Kernels
	// Context, when non-nil, is the default cancellation context of the
	// numeric phase: Solve, SolveInitMatrix, and NewFactor check it
	// cooperatively at supernode granularity and return ctx.Err() when
	// it is cancelled or past its deadline. The *Ctx entry points
	// (SolveCtx, NewFactorCtx) override it per call. nil means no
	// cancellation (context.Background()).
	Context context.Context
	// ExactReach refines the ancestor side of Algorithm 3's reach set:
	// R(k) = D(k) ∪ struct(k) instead of D(k) ∪ A(k), where struct(k)
	// is the exact supernodal block structure from symbolic
	// factorization. Ancestors outside struct(k) have all-∞ panels at
	// elimination time, so skipping them changes nothing; for balanced
	// ND trees A(k) ≈ struct(k), but for unbalanced etrees (BFS, min
	// degree, natural orderings) the exact structure can be far
	// smaller. (The descendant side must stay whole: distance-matrix
	// updates legitimately create finite entries outside the symbolic
	// fill.)
	ExactReach bool
}

// context resolves the options' cancellation context.
func (o Options) context() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o Options) withDefaults() Options {
	if o.MaxBlock <= 0 {
		o.MaxBlock = 128
	}
	if o.LeafSize <= 0 {
		o.LeafSize = 64
	}
	if o.Semiring == nil {
		o.Semiring = semiring.MinPlusKernels
	}
	return o
}

// DefaultOptions returns the paper's default configuration: nested
// dissection, supernodal blocking, etree parallelism.
func DefaultOptions() Options {
	return Options{Ordering: OrderND, EtreeParallel: true}
}

// Plan is the symbolic phase of SuperFw: ordering plus supernodal
// elimination structure for one graph.
type Plan struct {
	G     *graph.Graph // original graph
	PG    *graph.Graph // graph permuted into elimination order
	Perm  []int        // Perm[new] = old
	IPerm []int        // IPerm[old] = new
	Sn    *symbolic.Supernodes
	Opts  Options

	// TopSep is the top-level separator size (0 when the ordering is
	// not dissection-based).
	TopSep int
	// upStruct[k] lists the ancestors in k's exact block structure
	// (only when ExactReach).
	upStruct [][]int32
	// FillCount is the symbolic factor fill (only computed for
	// etree-derived plans; -1 otherwise).
	FillCount int64

	// Timing of the symbolic phase, split for the paper's §5.1.4
	// pre-processing overhead accounting.
	OrderTime    time.Duration
	SymbolicTime time.Duration
}

// NewPlan runs the symbolic phase for g under the given options.
func NewPlan(g *graph.Graph, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	if g.N == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	p := &Plan{G: g, Opts: opts, FillCount: -1}

	t0 := time.Now()
	var ord order.Ordering
	switch opts.Ordering {
	case OrderND:
		ord = order.NestedDissection(g, order.NDOptions{LeafSize: opts.LeafSize})
	case OrderBFS:
		ord = order.BFS(g)
	case OrderRCM:
		ord = order.RCM(g)
	case OrderNatural:
		ord = order.Natural(g.N)
	case OrderMinDegree:
		ord = order.MinDegree(g)
	case OrderCustom:
		if opts.Custom == nil {
			return nil, fmt.Errorf("core: OrderCustom requires Options.Custom")
		}
		ord = *opts.Custom
	default:
		return nil, fmt.Errorf("core: unknown ordering %v", opts.Ordering)
	}
	if !graph.IsPermutation(ord.Perm) {
		return nil, fmt.Errorf("core: ordering produced an invalid permutation")
	}
	p.OrderTime = time.Since(t0)

	t1 := time.Now()
	if ord.Tree != nil {
		// Dissection path: the separator tree is the elimination
		// structure; no per-column symbolic factorization is needed.
		p.Perm = ord.Perm
		p.PG = g.Permute(p.Perm)
		p.Sn = symbolic.FromTree(ord.Tree, g.N, opts.MaxBlock)
		p.TopSep = ord.TopSep
	} else {
		// Symbolic path (SuperBfs and ablations): permute, compute the
		// elimination tree, postorder it so subtrees are contiguous,
		// then detect fundamental supernodes from column counts.
		pg1 := g.Permute(ord.Perm)
		parent := symbolic.ETree(pg1)
		post := symbolic.Postorder(parent)
		perm := make([]int, g.N)
		for i, pi := range post {
			perm[i] = ord.Perm[pi]
		}
		p.Perm = perm
		p.PG = g.Permute(perm)
		parent = symbolic.RelabelParent(parent, post)
		structs := symbolic.Fill(p.PG, parent)
		p.FillCount = symbolic.FillCount(structs)
		if opts.FundamentalSupernodes {
			p.Sn = symbolic.FromETree(parent, symbolic.ColCounts(structs), opts.MaxBlock)
		} else {
			p.Sn = symbolic.FromETreeChains(parent, opts.MaxBlock)
		}
	}
	p.IPerm = graph.InversePerm(p.Perm)
	if opts.ExactReach {
		p.upStruct = symbolic.SupernodalStruct(p.PG, p.Sn)
	}
	p.SymbolicTime = time.Since(t1)

	if msg := p.Sn.Check(); msg != "" {
		return nil, fmt.Errorf("core: invalid supernode structure: %s", msg)
	}
	return p, nil
}

// PlannedOps returns the number of fused min-plus operations (one ⊗ plus
// one ⊕ each) the numeric phase will perform: for every supernode of size
// s with reach R = |D(k)|+|A(k)|, s³ (DiagUpdate) + 2·s²·R (PanelUpdate)
// + s·R² (OuterUpdate). This is the W(n) = n²|S| quantity of the paper's
// Table 2, measured exactly instead of asymptotically.
func (p *Plan) PlannedOps() int64 {
	var total int64
	for k, r := range p.Sn.Ranges {
		s := int64(r.Size())
		reach := p.reachSize(k)
		total += s*s*s + 2*s*s*reach + s*reach*reach
	}
	return total
}

// reachSize returns |R(k)\{k}| under the plan's reach mode.
func (p *Plan) reachSize(k int) int64 {
	var reach int64
	for _, t := range p.reachTiles(k) {
		reach += int64(t.hi - t.lo)
	}
	return reach
}

// CriticalPathOps returns the fused-op count along the longest
// root-to-leaf dependency chain of the elimination tree — the D(n) depth
// proxy of Table 2: with unbounded processors, levels run one after
// another and each level costs its most expensive supernode.
func (p *Plan) CriticalPathOps() int64 {
	var total int64
	for _, level := range p.Sn.Levels {
		var worst int64
		for _, k := range level {
			s := int64(p.Sn.Ranges[k].Size())
			// With O(n²) processors inside an elimination, panel and
			// outer updates are depth O(s); the diagonal FW is O(s).
			if c := 2 * s; c > worst {
				worst = c
			}
		}
		total += worst
	}
	return total
}

// NumSupernodes returns the supernode count of the plan.
func (p *Plan) NumSupernodes() int { return p.Sn.NumSupernodes() }

// Result is a solved APSP instance. Distances are stored in elimination
// order; At translates original vertex ids.
type Result struct {
	// D is the closed distance matrix in permuted (elimination) order.
	D semiring.Mat
	// Next is the next-hop matrix in permuted order (only when the plan
	// was built with TrackPaths; zero-value otherwise).
	Next semiring.IntMat
	// Perm / IPerm relate permuted to original vertex ids.
	Perm, IPerm []int
	// NumericTime is the wall time of the numeric phase.
	NumericTime time.Duration
	// Kernel holds the GEMM-engine counter deltas spanning this solve's
	// numeric phase: call counts, dense-vs-stream dispatch split, fused
	// element updates and packed bytes (see semiring.KernelCounters).
	// The counters are process-global, so solves running concurrently in
	// the same process fold into each other's deltas.
	Kernel semiring.KernelCounters
}

// At returns the shortest-path distance from original vertex u to v
// (+Inf when v is unreachable from u).
func (r *Result) At(u, v int) float64 {
	return r.D.At(r.IPerm[u], r.IPerm[v])
}

// Dense returns the distance matrix reindexed to original vertex order.
func (r *Result) Dense() semiring.Mat {
	n := r.D.Rows
	out := semiring.NewMat(n, n)
	semiring.Permute(out, r.D, r.IPerm)
	return out
}

// HasNegativeCycle reports whether the solve uncovered a negative cycle
// (negative diagonal entry).
func (r *Result) HasNegativeCycle() bool { return semiring.HasNegativeCycle(r.D) }

// Path returns the vertices of a shortest path from u to v in original
// ids (inclusive of both endpoints), or ok=false when v is unreachable
// from u. The plan must have been built with Options.TrackPaths.
func (r *Result) Path(u, v int) (path []int, ok bool) {
	if r.Next.Data == nil {
		panic("core: Result.Path requires Options.TrackPaths")
	}
	pu, pv := r.IPerm[u], r.IPerm[v]
	if u == v {
		return []int{u}, true
	}
	if r.D.At(pu, pv) == semiring.Inf {
		return nil, false
	}
	n := r.D.Rows
	path = append(path, u)
	cur := pu
	for cur != pv {
		hop := r.Next.At(cur, pv)
		if hop < 0 || len(path) > n {
			// Inconsistent next-hop chain: only possible with zero-weight
			// cycles or a corrupted matrix; fail soft.
			return nil, false
		}
		cur = int(hop)
		path = append(path, r.Perm[cur])
	}
	return path, true
}

// PathWeight returns the total weight of the path according to the
// closed distance matrix (a convenience equal to At(u, v)).
func (r *Result) PathWeight(u, v int) float64 { return r.At(u, v) }
