package qwm

import (
	"sync"

	"qwm/internal/la"
)

// solverScratch owns every buffer the region solver touches, pre-sized to
// the chain's maximum system order (m+1 unknowns: one α per node plus τ′).
// One scratch serves one engine at a time; Evaluate borrows it from a
// process-wide sync.Pool and returns it when the evaluation finishes, so
// steady-state evaluation — the STA worker pool, repeated Evaluate calls —
// performs zero heap allocations in the Newton inner loop and only O(result)
// allocations per chain.
//
// Ownership rules:
//   - Buffers are views into the scratch; they never escape the engine. The
//     only solver outputs handed across call boundaries are the α vectors,
//     which rotate through the alphaA/alphaB double buffer (at most two
//     region results are live at once: the secant-capacitance second pass
//     holds the first pass's α while re-solving).
//   - The Newton loop (newton) and the inner α solve (solveAlphas) are never
//     active at the same time, so they share F/neg/trial/Ftrial/dx and tri.
//   - The bisection fallback keeps its persistent α in alphaBis and its
//     per-probe trial in alphaTrial, both disjoint from solveAlphas's
//     buffers.
//   - capV/capC/capQ cache each node's last capacitance evaluation; newEngine
//     invalidates them, since a pooled scratch moves between chains.
type solverScratch struct {
	n int // current capacity (system order)

	// Engine chain state (index 0..m).
	v, cur, capn, qn, capSaved []float64
	// NodeCap.CQ cache: node k last evaluated at folded voltage capV[k]
	// gave capC[k], capQ[k] (index 1..m).
	capV, capC, capQ []float64

	// Region-system state.
	rsV, rsVdot, rsJ, rsDLow, rsDUp, rsDGate []float64

	// Newton / inner-solve work vectors (length L+1 views).
	F, neg, trial, Ftrial, dx, x []float64
	u, vcol                      []float64
	y, z, cp                     []float64

	// Tridiagonal backing stores; tri is a re-sliced view of them so a
	// region of any order L+1 ≤ n — or the inner α solve's order L —
	// reuses the same memory.
	triSub, triDiag, triSup []float64
	tri                     la.Tridiag

	// Rotating α result buffers plus the bisection fallback's own pair.
	alphaA, alphaB, alphaBis, alphaTrial []float64
	flip                                 bool

	// Dense fallback workspace: when the Thomas sweep breaks down on a
	// vanishing pivot, the Jacobian is expanded into dm and solved by LU factoring in
	// place into luM. Both are n×n headers over reusable backing stores.
	dmBuf, luBuf []float64
	piv          []int
	dm, luM      la.Matrix
}

// ensure grows every buffer to order n (idempotent; never shrinks).
func (s *solverScratch) ensure(n int) {
	if s.n >= n {
		return
	}
	s.n = n
	grow := func() []float64 { return make([]float64, n) }
	s.v, s.cur, s.capn, s.qn, s.capSaved = grow(), grow(), grow(), grow(), grow()
	s.capV, s.capC, s.capQ = grow(), grow(), grow()
	s.rsV, s.rsVdot, s.rsJ, s.rsDLow, s.rsDUp, s.rsDGate = grow(), grow(), grow(), grow(), grow(), grow()
	s.F, s.neg, s.trial, s.Ftrial, s.dx, s.x = grow(), grow(), grow(), grow(), grow(), grow()
	s.u, s.vcol = grow(), grow()
	s.y, s.z, s.cp = grow(), grow(), grow()
	s.triSub, s.triDiag, s.triSup = grow(), grow(), grow()
	s.alphaA, s.alphaB, s.alphaBis, s.alphaTrial = grow(), grow(), grow(), grow()
	s.dmBuf, s.luBuf = make([]float64, n*n), make([]float64, n*n)
	s.piv = make([]int, n)
}

// denseN returns the dense fallback matrix re-shaped to order k.
func (s *solverScratch) denseN(k int) *la.Matrix {
	s.dm = la.Matrix{Rows: k, Cols: k, Data: s.dmBuf[:k*k]}
	return &s.dm
}

// luN returns the LU workspace matrix re-shaped to order k.
func (s *solverScratch) luN(k int) *la.Matrix {
	s.luM = la.Matrix{Rows: k, Cols: k, Data: s.luBuf[:k*k]}
	return &s.luM
}

// triN returns the shared tridiagonal work matrix re-sliced to order k.
func (s *solverScratch) triN(k int) *la.Tridiag {
	s.tri.Diag = s.triDiag[:k]
	s.tri.Sub = s.triSub[:k-1]
	s.tri.Sup = s.triSup[:k-1]
	return &s.tri
}

// nextAlpha hands out the other half of the α double buffer. Callers may
// hold at most the two most recent results.
func (s *solverScratch) nextAlpha(L int) []float64 {
	s.flip = !s.flip
	if s.flip {
		return s.alphaA[:L]
	}
	return s.alphaB[:L]
}

// scratchPool shares solver scratch across goroutines: the STA level
// scheduler and plain Evaluate callers both draw from it, so concurrent
// evaluation reaches a steady state where no solver buffer is ever
// re-allocated.
var scratchPool = sync.Pool{New: func() any { return new(solverScratch) }}
