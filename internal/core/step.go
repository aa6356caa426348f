package core

// The supernode elimination step of Algorithm 3, written once:
//
//	DiagUpdate:  A(k,k) ← FW(A(k,k))
//	PanelUpdate: A(k,t) ← A(k,t) ⊕ A(k,k)⊗A(k,t),  A(t,k) ← A(t,k) ⊕ A(t,k)⊗A(k,k)
//	OuterUpdate: A(ti,tj) ← A(ti,tj) ⊕ A(ti,k)⊗A(k,tj)
//
// The step never indexes a matrix itself; a blockStore says where k's
// blocks live. The dense solve's store (denseBlocks, solve.go) hands out
// views of the permuted n×n matrix cut into reach tiles; the factor's
// store (factorBlocks, factor.go) hands out the factor's own diag/up/down
// blocks and the ancestors' blocks the outer products land on.
// Live-update replay runs only the Outer phase, over a factor store that
// leaves clean-owned targets out.
//
// Panel updates run in place (A(t,k) ← A(t,k) ⊕ A(t,k)⊗A(k,k) writes
// the block it reads). This is sound because the closed diagonal block
// has a zero diagonal and min-plus relaxation is monotone: every write
// is the length of a real path (never below the true shortest distance),
// and every canonical relaxation of the textbook schedule is still
// applied with operand values ≤ the textbook's, so the result is exactly
// the textbook result. The same argument covers the blocked FW kernels.

import (
	"sync/atomic"
	"time"

	"repro/internal/par"
	"repro/internal/semiring"
)

// tileSize is the row/column granularity at which the dense store cuts
// panel and outer-product updates into parallel tasks. Tiles are cut
// deterministically from each supernode's own range, so two cousin
// eliminations sharing an ancestor supernode derive exactly the same
// ancestor tiles — which is what makes tile-keyed locking of A(k)×A(k)
// updates sound.
const tileSize = 256

// diagParallelCutoff is the diagonal-block size above which DiagUpdate
// switches from the scalar FW kernel to the parallel blocked kernel.
const diagParallelCutoff = 192

// block is a matrix view plus its next-hop mirror; next is the zero
// IntMat unless the run tracks paths.
type block struct {
	semiring.Mat
	next semiring.IntMat
}

func (b block) tracked() bool { return b.next.Data != nil }

// blockStore locates the blocks of one supernode k's elimination step.
// PanelUpdate pieces and OuterUpdate sections may be cut differently:
// the dense store uses its reach tiles for both, the factor store issues
// one call per whole panel but scatters per ancestor section.
type blockStore interface {
	// diag is A(k,k).
	diag() block
	// panels is the number of PanelUpdate pieces; panel(t) returns the
	// row panel A(k,t) and the column panel A(t,k) of piece t.
	panels() int
	panel(t int) (row, col block)
	// sections is the side of the OuterUpdate grid; section(i) returns
	// the row panel A(k,ti) and the column panel A(ti,k) of section i.
	sections() int
	section(i int) (row, col block)
	// target returns A(ti,tj) and the key that serializes it against
	// concurrently eliminating cousins (shared=false: no cousin writes
	// it). ok=false leaves the pair out of the grid.
	target(i, j int) (t block, key uint64, shared, ok bool)
}

// eliminateStep runs DiagUpdate, PanelUpdate and OuterUpdate of one
// supernode over b. threads bounds its intra-supernode parallelism;
// locks is non-nil only when cousin eliminations run concurrently; a
// non-nil prof accumulates the stage times.
func eliminateStep(b blockStore, K *semiring.Kernels, threads int, locks *par.StripedMutex, prof *Profile) {
	t0 := time.Now()
	d := b.diag()
	switch {
	case d.Rows >= diagParallelCutoff:
		semiring.ParallelBlockedFWKernels(d.Mat, d.next, d.tracked(), 64, threads, K)
	case d.tracked():
		K.FWPaths(d.Mat, d.next)
	default:
		K.FW(d.Mat)
	}
	t0 = endStage(semiring.PhaseDiag, prof, t0)
	if b.sections() == 0 {
		semiring.CountElimination()
		return
	}

	// The closed diagonal block is the B operand of every column-panel
	// update, so pack it once. Panels never overlap k's own block, so no
	// panel write touches the packed snapshot. Row panels use the
	// unpacked MulAdd: their B operand is the destination itself.
	// Next-hop sources are the A operand in both cases: a row-panel
	// improvement goes via kk inside the diagonal block, a column-panel
	// improvement's first hop comes from the panel itself.
	Pd := K.PackPanel(d.Mat)
	par.For(2*b.panels(), forkThreads(d, threads), 1, func(i int) {
		row, col := b.panel(i / 2)
		if i%2 == 0 {
			mulAdd(K, row, d, row) // in place: d is closed with a zero diagonal
		} else {
			mulAddPacked(K, col, col, Pd)
		}
	})
	Pd.Release()
	endStage(semiring.PhasePanel, prof, t0)

	outerStep(b, K, threads, locks, prof)
	semiring.CountElimination()
}

// outerStep runs the OuterUpdate of b's supernode: every target the
// store keeps gets A(ti,tj) ⊕= A(ti,k) ⊗ A(k,tj). The row section
// A(k,tj) is the B operand of the whole tj column of the grid, so each
// is packed once (in parallel for a wide supernode) and reused; targets
// never overlap k's own panels, so the snapshots stay valid. A column
// with no kept target is not packed.
func outerStep(b blockStore, K *semiring.Kernels, threads int, locks *par.StripedMutex, prof *Profile) {
	t0 := time.Now()
	nt := b.sections()
	packs := make([]*semiring.PackedPanel, nt)
	par.For(nt, forkThreads(b.diag(), threads), 1, func(j int) {
		for i := 0; i < nt; i++ {
			if _, _, _, ok := b.target(i, j); ok {
				row, _ := b.section(j)
				packs[j] = K.PackPanel(row.Mat)
				return
			}
		}
	})
	par.For(nt*nt, threads, 0, func(idx int) {
		i, j := idx/nt, idx%nt
		t, key, shared, ok := b.target(i, j)
		if !ok {
			return
		}
		_, col := b.section(i)
		if locks != nil && shared {
			locks.Lock(key)
			defer locks.Unlock(key)
		}
		mulAddPacked(K, t, col, packs[j])
	})
	for _, P := range packs {
		if P != nil {
			P.Release()
		}
	}
	endStage(semiring.PhaseOuter, prof, t0)
}

// forkThreads is the thread count for the step's panel and pack loops:
// a supernode thinner than 64 vertices (most of a road network's) runs
// them inline, faster than forking and joining on a busy host.
func forkThreads(d block, threads int) int {
	if d.Rows < 64 {
		return 1
	}
	return threads
}

// endStage charges the time since t0 to phase p — process-wide, and in
// prof when profiling — and returns the current time.
func endStage(p semiring.Phase, prof *Profile, t0 time.Time) time.Time {
	now := time.Now()
	semiring.AddPhaseTime(p, now.Sub(t0))
	if prof != nil { // the Phase constants index Diag, Panel, Outer
		[...]*atomic.Int64{&prof.Diag, &prof.Panel, &prof.Outer}[p].Add(int64(now.Sub(t0)))
	}
	return now
}

// mulAdd is C = C ⊕ A⊗B, maintaining next-hops when C carries them.
func mulAdd(K *semiring.Kernels, C, A, B block) {
	if C.tracked() {
		K.MulAddPaths(C.Mat, A.Mat, B.Mat, C.next, A.next)
	} else {
		K.MulAdd(C.Mat, A.Mat, B.Mat)
	}
}

// mulAddPacked is mulAdd against a pre-packed B panel.
func mulAddPacked(K *semiring.Kernels, C, A block, P *semiring.PackedPanel) {
	if C.tracked() {
		K.MulAddPathsPacked(C.Mat, A.Mat, P, C.next, A.next)
	} else {
		K.MulAddPacked(C.Mat, A.Mat, P)
	}
}
