package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/par"
	"repro/internal/semiring"
	"repro/internal/symbolic"
)

// Solve runs the numeric phase using the plan's default options and the
// graph's own edge weights. When Options.Context is set it is honored as
// the cancellation context.
func (p *Plan) Solve() (*Result, error) {
	return p.SolveCtx(p.Opts.context())
}

// SolveCtx is Solve with an explicit cancellation context: ctx is
// checked cooperatively at supernode granularity during the numeric
// phase, so a cancelled or expired context aborts the elimination
// promptly and returns ctx.Err().
func (p *Plan) SolveCtx(ctx context.Context) (*Result, error) {
	return p.solveWithCtx(ctx, p.Opts.Threads, p.Opts.EtreeParallel)
}

// SolveWith runs the numeric phase with explicit parallelism controls.
func (p *Plan) SolveWith(threads int, etreeParallel bool) (*Result, error) {
	return p.solveWithCtx(p.Opts.context(), threads, etreeParallel)
}

func (p *Plan) solveWithCtx(ctx context.Context, threads int, etreeParallel bool) (*Result, error) {
	K := p.Opts.Semiring
	D := p.PG.ToDenseWith(K.Zero, K.One)
	return p.finish(ctx, D, threads, etreeParallel, nil)
}

// SolveInitMatrix runs the numeric phase on a caller-supplied initial
// distance matrix given in ORIGINAL vertex order. The matrix must have
// the same structural pattern as the plan's graph (finite off-diagonal
// entries only where edges exist) but its values may be asymmetric and
// negative — e.g. a potential-reweighted instance. Negative cycles are
// reported via the error and flagged on the result.
func (p *Plan) SolveInitMatrix(init semiring.Mat, threads int, etreeParallel bool) (*Result, error) {
	return p.SolveInitMatrixCtx(p.Opts.context(), init, threads, etreeParallel)
}

// SolveInitMatrixCtx is SolveInitMatrix with cooperative cancellation at
// supernode granularity.
func (p *Plan) SolveInitMatrixCtx(ctx context.Context, init semiring.Mat, threads int, etreeParallel bool) (*Result, error) {
	n := p.G.N
	if init.Rows != n || init.Cols != n {
		return nil, fmt.Errorf("core: init matrix is %d×%d, want %d×%d", init.Rows, init.Cols, n, n)
	}
	D := semiring.NewMat(n, n)
	semiring.Permute(D, init, p.Perm)
	return p.finish(ctx, D, threads, etreeParallel, nil)
}

// finish runs the numeric phase on the permuted matrix D. A non-nil
// prof records a span per supernode and is finalized on success. It
// returns ctx.Err() when the context is cancelled mid-elimination; the
// partially relaxed matrix is then discarded.
func (p *Plan) finish(ctx context.Context, D semiring.Mat, threads int, etreeParallel bool, prof *Profile) (*Result, error) {
	K := p.Opts.Semiring
	var next semiring.IntMat
	if p.Opts.TrackPaths {
		next = semiring.NewIntMat(D.Rows, D.Cols)
		semiring.InitNextHops(D, next)
	}
	var levelOf []int
	if prof != nil {
		levelOf = p.Sn.LevelOf()
	}
	k0 := semiring.ReadKernelCounters()
	t0 := time.Now()
	err := runSupernodes(ctx, p.Sn, threads, etreeParallel, func(k, inner int, locks *par.StripedMutex) {
		start := time.Since(t0)
		fault.Inject("core.eliminate")
		eliminateStep(&denseBlocks{D: D, next: next, r: p.Sn.Ranges[k], tiles: p.reachTiles(k)}, K, inner, locks, prof)
		if prof != nil {
			prof.record(SupernodeProfile{
				Supernode: k,
				Level:     levelOf[k],
				Vertices:  p.Sn.Ranges[k].Size(),
				Workers:   inner,
				Start:     start,
				Wall:      time.Since(t0) - start,
			})
		}
	})
	if err != nil {
		return nil, err
	}
	res := &Result{D: D, Next: next, Perm: p.Perm, IPerm: p.IPerm,
		NumericTime: time.Since(t0), Kernel: semiring.ReadKernelCounters().Sub(k0)}
	if prof != nil {
		prof.Kernel = res.Kernel
		prof.finish(len(p.Sn.Levels), etreeParallel && par.DefaultThreads(threads) > 1)
	}
	if K.DetectNegCycle && res.HasNegativeCycle() {
		return res, fmt.Errorf("core: graph contains a negative-weight cycle")
	}
	return res, nil
}

// runSupernodes is the one elimination driver of the package: it calls
// fn(k, inner, locks) once per supernode of sn, every child before its
// parent — the only ordering Algorithm 3 needs. With etree parallelism
// (and threads > 1) a supernode starts as soon as its last child
// completes, with no inter-level barriers; any two supernodes running
// at once are mutually non-ancestral, i.e. cousins, so only their
// ancestor×ancestor updates can collide, and locks serializes those.
// Otherwise supernodes run one at a time in postorder on the caller's
// goroutine with inner = threads, and locks is nil. A panic in fn is
// re-raised as a *par.TaskPanic naming the supernode; a cancelled ctx
// stops the run between supernodes and returns ctx.Err().
func runSupernodes(ctx context.Context, sn *symbolic.Supernodes, threads int, etreeParallel bool,
	fn func(k, inner int, locks *par.StripedMutex)) error {
	threads = par.DefaultThreads(threads)
	workers := threads
	if !etreeParallel {
		workers = 1
	}
	var locks *par.StripedMutex
	if workers > 1 && sn.NumSupernodes() > 1 {
		locks = par.NewStripedMutex(1024)
	}
	return par.RunDAGCtx(ctx, sn.Parent, workers, func(k, inner int) {
		if workers == 1 {
			inner = threads
		}
		fn(k, inner, locks)
	})
}

// tile is a contiguous index range plus whether it belongs to an ancestor
// supernode (needed to decide locking on outer-product targets).
type tile struct {
	lo, hi   int
	ancestor bool
}

// reachTiles returns the tiles covering R(k) \ {k}: the descendant
// range [SubLo, Lo) followed by the ancestor supernodes — all of A(k)
// under Algorithm 3's default, or only the exact block structure
// struct(k) under ExactReach. Ranges are cut into tileSize chunks
// anchored at range starts, so cousins derive identical ancestor tiles.
func (p *Plan) reachTiles(k int) []tile {
	sn := p.Sn
	var tiles []tile
	addRange := func(lo, hi int, anc bool) {
		for t := lo; t < hi; t += tileSize {
			end := t + tileSize
			if end > hi {
				end = hi
			}
			tiles = append(tiles, tile{t, end, anc})
		}
	}
	r := sn.Ranges[k]
	if sn.SubLo[k] < r.Lo {
		addRange(sn.SubLo[k], r.Lo, false)
	}
	if p.upStruct != nil {
		for _, a := range p.upStruct[k] {
			ar := sn.Ranges[a]
			addRange(ar.Lo, ar.Hi, true)
		}
		return tiles
	}
	for _, a := range sn.Ancestors(k) {
		ar := sn.Ranges[a]
		addRange(ar.Lo, ar.Hi, true)
	}
	return tiles
}

// denseBlocks is the dense solve's block store for one supernode: views
// of the permuted n×n matrix D (and of next when tracking paths), with
// the reach R(k)\{k} cut into tiles that serve as both the panel pieces
// and the outer sections. Outer targets are locked by their tile
// position, and only ancestor×ancestor tiles are shared with cousins.
type denseBlocks struct {
	D     semiring.Mat
	next  semiring.IntMat
	r     symbolic.Range
	tiles []tile
}

func (b *denseBlocks) view(i, j, rows, cols int) block {
	v := block{Mat: b.D.View(i, j, rows, cols)}
	if b.next.Data != nil {
		v.next = b.next.View(i, j, rows, cols)
	}
	return v
}

func (b *denseBlocks) diag() block { return b.view(b.r.Lo, b.r.Lo, b.r.Size(), b.r.Size()) }

func (b *denseBlocks) panels() int                  { return len(b.tiles) }
func (b *denseBlocks) panel(t int) (row, col block) { return b.section(t) }
func (b *denseBlocks) sections() int                { return len(b.tiles) }

func (b *denseBlocks) section(i int) (row, col block) {
	t, s := b.tiles[i], b.r.Size()
	return b.view(b.r.Lo, t.lo, s, t.hi-t.lo), b.view(t.lo, b.r.Lo, t.hi-t.lo, s)
}

func (b *denseBlocks) target(i, j int) (block, uint64, bool, bool) {
	ti, tj := b.tiles[i], b.tiles[j]
	key := uint64(ti.lo)*uint64(b.D.Rows) + uint64(tj.lo)
	return b.view(ti.lo, tj.lo, ti.hi-ti.lo, tj.hi-tj.lo), key, ti.ancestor && tj.ancestor, true
}

// Closure is the reference dense solution: it runs the scalar
// Floyd-Warshall algorithm on a copy of the graph's dense distance
// matrix. Used as ground truth in tests.
func Closure(D semiring.Mat) semiring.Mat {
	out := D.Clone()
	semiring.FloydWarshall(out)
	return out
}

// SymbolicOnly re-exports the supernode structure for inspection tools.
func (p *Plan) SymbolicOnly() *symbolic.Supernodes { return p.Sn }
