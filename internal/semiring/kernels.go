package semiring

// Kernels bundles the dense kernels of one closed semiring so the
// supernodal engine can run over any path algebra — the generality the
// paper's semiring framing promises. Two instances are provided:
// MinPlusKernels (shortest paths) and MaxMinKernels (widest/bottleneck
// paths). All kernels must tolerate the same in-place aliasing the
// min-plus kernels document (the arguments only use monotonicity and
// idempotence of ⊕, which hold for any bounded semiring here).
type Kernels struct {
	// Name identifies the semiring in diagnostics.
	Name string
	// Zero is the additive identity: the "no path" value non-edges get.
	Zero float64
	// One is the multiplicative identity: the empty-path value the
	// diagonal gets.
	One float64
	// FW closes a square block in place.
	FW func(Mat)
	// FWPaths is FW with next-hop maintenance.
	FWPaths func(Mat, IntMat)
	// MulAdd computes C = C ⊕ A⊗B. Both semirings route it through the
	// adaptive GEMM engine (dense packed vs Inf-skip streaming dispatch,
	// see gemm.go), so any algebra plugged in here gets the blocked
	// kernels for free.
	MulAdd func(C, A, B Mat)
	// MulAddSerial is MulAdd pinned to the calling goroutine (no
	// i-range sharding). For callers that manage their own worker
	// placement, e.g. the dist simulation's per-rank goroutines.
	MulAddSerial func(C, A, B Mat)
	// MulAddPaths is MulAdd with next-hop maintenance.
	MulAddPaths func(C, A, B Mat, nextC, nextA IntMat)
	// MulAddPacked computes C = C ⊕ A⊗P against a panel packed once
	// with PackPanel — the fused pipeline's reuse-many entry point
	// (fused.go). Serial; callers own the parallel decomposition, and
	// C must not alias the packed operand. Required: every supernode
	// elimination in core runs through the packed entry points.
	MulAddPacked func(C, A Mat, P *PackedPanel)
	// MulAddPathsPacked is MulAddPacked with next-hop maintenance.
	MulAddPathsPacked func(C, A Mat, P *PackedPanel, nextC, nextA IntMat)
	// VecMatAdd computes y = y ⊕ (x ⊗ A) with the semiring's zero
	// fast paths; MatVecAdd is y = y ⊕ (A ⊗ x). The factor's SSSP
	// sweeps use these instead of degenerate 1×n MulAdd calls.
	VecMatAdd func(y, x []float64, A Mat)
	MatVecAdd func(y []float64, A Mat, x []float64)
	// AddScalar is the scalar ⊕ (min for min-plus, max for max-min).
	AddScalar func(x, y float64) float64
	// MulScalar is the scalar ⊗ (+ for min-plus, min for max-min).
	MulScalar func(x, y float64) float64
	// DetectNegCycle enables the negative-diagonal check after a solve
	// (meaningful only for the tropical semiring).
	DetectNegCycle bool
}

// MinPlusKernels is the tropical (min, +) semiring: shortest paths.
var MinPlusKernels = &Kernels{
	Name:              "min-plus",
	Zero:              Inf,
	One:               0,
	FW:                FloydWarshall,
	FWPaths:           FloydWarshallPaths,
	MulAdd:            MinPlusMulAdd,
	MulAddSerial:      MinPlusMulAddSerial,
	MulAddPaths:       MinPlusMulAddPaths,
	MulAddPacked:      MinPlusMulAddPacked,
	MulAddPathsPacked: MinPlusMulAddPathsPacked,
	VecMatAdd:         MinPlusVecMatAdd,
	MatVecAdd:         MinPlusMatVecAdd,
	AddScalar:         Plus,
	MulScalar:         Times,
	DetectNegCycle:    true,
}

// MaxMinKernels is the bottleneck (max, min) semiring: widest paths.
var MaxMinKernels = &Kernels{
	Name:              "max-min",
	Zero:              -Inf,
	One:               Inf,
	FW:                MaxMinFloydWarshall,
	FWPaths:           MaxMinFloydWarshallPaths,
	MulAdd:            MaxMinMulAdd,
	MulAddSerial:      MaxMinMulAddSerial,
	MulAddPaths:       MaxMinMulAddPaths,
	MulAddPacked:      MaxMinMulAddPacked,
	MulAddPathsPacked: MaxMinMulAddPathsPacked,
	VecMatAdd:         MaxMinVecMatAdd,
	MatVecAdd:         MaxMinMatVecAdd,
	AddScalar: func(x, y float64) float64 {
		if x > y {
			return x
		}
		return y
	},
	MulScalar: func(x, y float64) float64 {
		if x < y {
			return x
		}
		return y
	},
}

// PackPanel packs B once for reuse across MulAddPacked calls, using
// this semiring's zero for the density gate (see semiring.PackPanel).
func (k *Kernels) PackPanel(B Mat) *PackedPanel { return PackPanel(B, k.Zero) }

// ParallelBlockedFWKernels is the blocked Floyd-Warshall algorithm over
// an arbitrary semiring, with optional next-hop tracking. See
// ParallelBlockedFloydWarshall for the scheduling structure.
func ParallelBlockedFWKernels(A Mat, next IntMat, track bool, b, threads int, K *Kernels) {
	n := A.Rows
	if A.Cols != n {
		panic("semiring: ParallelBlockedFWKernels requires a square matrix")
	}
	if track && (next.Rows != n || next.Cols != n) {
		panic("semiring: ParallelBlockedFWKernels next-hop shape mismatch")
	}
	nb := (n + b - 1) / b
	blk := func(i int) (int, int) {
		lo := i * b
		hi := lo + b
		if hi > n {
			hi = n
		}
		return lo, hi - lo
	}
	parallelBlockedFW(A, next, track, threads, nb, blk, K)
}
