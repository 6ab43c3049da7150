package la

import "math"

// Tridiag is an n×n tridiagonal matrix stored as three diagonals:
// Sub[i] = A[i+1][i] (i = 0..n-2), Diag[i] = A[i][i], Sup[i] = A[i][i+1].
type Tridiag struct {
	Sub, Diag, Sup []float64
}

// NewTridiag allocates a zero n×n tridiagonal matrix.
func NewTridiag(n int) *Tridiag {
	if n < 1 {
		panic("la: tridiagonal order must be >= 1")
	}
	return &Tridiag{
		Sub:  make([]float64, n-1),
		Diag: make([]float64, n),
		Sup:  make([]float64, n-1),
	}
}

// N returns the order of the matrix.
func (t *Tridiag) N() int { return len(t.Diag) }

// Dense expands the tridiagonal matrix into a dense Matrix (for testing and
// the LU fallback path).
func (t *Tridiag) Dense() *Matrix {
	n := t.N()
	m := NewMatrix(n, n)
	t.DenseInto(m)
	return m
}

// DenseInto writes the dense expansion of the tridiagonal matrix into a
// caller-owned n×n matrix, zeroing entries off the three bands. It is the
// allocation-free core of Dense.
func (t *Tridiag) DenseInto(m *Matrix) {
	n := t.N()
	if m.Rows != n || m.Cols != n {
		panic("la: Tridiag.DenseInto dimension mismatch")
	}
	for i := range m.Data {
		m.Data[i] = 0
	}
	for i := 0; i < n; i++ {
		m.Set(i, i, t.Diag[i])
		if i > 0 {
			m.Set(i, i-1, t.Sub[i-1])
		}
		if i < n-1 {
			m.Set(i, i+1, t.Sup[i])
		}
	}
}

// MulVec computes y = T·x.
func (t *Tridiag) MulVec(x []float64) []float64 {
	n := t.N()
	if len(x) != n {
		panic("la: Tridiag.MulVec dimension mismatch")
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := t.Diag[i] * x[i]
		if i > 0 {
			s += t.Sub[i-1] * x[i-1]
		}
		if i < n-1 {
			s += t.Sup[i] * x[i+1]
		}
		y[i] = s
	}
	return y
}

// SolveInto solves T·x = b with the Thomas algorithm in O(n), without
// allocating: x receives the solution and cp is caller-provided scratch of
// length ≥ n−1 (the modified superdiagonal). b and x may alias — the
// forward sweep reads b[i] before writing x[i]. This is the QWM Newton hot
// path's kernel.
//
// The Thomas algorithm does not pivot, so it returns ErrSingular when a
// pivot vanishes; callers then fall back to the dense LU path. The
// breakdown test is scale-free: each pivot is compared only with the terms
// of its own row that formed it, never with entries of other rows. The QWM
// Jacobian's rows are in different units (a node row near 1e-12, the event
// row near 1e11), so a test against the whole matrix's largest entry would
// flag healthy pivots in the small rows.
func (t *Tridiag) SolveInto(b, x, cp []float64) error {
	n := t.N()
	if len(b) != n || len(x) != n || len(cp) < n-1 {
		panic("la: Tridiag.SolveInto dimension mismatch")
	}
	d0 := t.Diag[0]
	if d0 == 0 {
		return ErrSingular
	}
	if n > 1 {
		cp[0] = t.Sup[0] / d0
	}
	x[0] = b[0] / d0
	for i := 1; i < n; i++ {
		elim := t.Sub[i-1] * cp[i-1]
		den := t.Diag[i] - elim
		// Cancellation: the pivot is lost in the rounding of its own terms.
		if math.Abs(den) <= 1e-14*(math.Abs(t.Diag[i])+math.Abs(elim)) {
			return ErrSingular
		}
		if i < n-1 {
			cp[i] = t.Sup[i] / den
		}
		x[i] = (b[i] - t.Sub[i-1]*x[i-1]) / den
	}
	for i := n - 2; i >= 0; i-- {
		x[i] -= cp[i] * x[i+1]
	}
	return nil
}

// SolveRankOneInto solves (T + u·vᵀ)·x = b via the Sherman–Morrison formula
// (paper §IV-B, after Numerical Recipes): two Thomas solves,
//
//	T·y = b,  T·z = u,  x = y − v·y / (1 + v·z) · z.
//
// This is how QWM handles the Jacobian's dense last column while keeping the
// O(n) tridiagonal solve. Both solves share one elimination sweep (the
// modified superdiagonal and the pivots depend only on T), and each right-
// hand side sees exactly the operations SolveInto would apply, so y and z
// are bit-identical to two SolveInto calls. The solution is written into x;
// y, z and cp are caller-provided scratch of lengths n, n and ≥ n−1 (y and
// z receive the two intermediate solves), and x must not alias y or z.
// Returns ErrSingular if T is singular to the Thomas algorithm or if
// 1 + vᵀz vanishes.
func (t *Tridiag) SolveRankOneInto(u, v, b, x, y, z, cp []float64) error {
	n := t.N()
	if len(u) != n || len(v) != n || len(b) != n || len(x) != n || len(y) != n || len(z) != n || len(cp) < n-1 {
		panic("la: SolveRankOneInto dimension mismatch")
	}
	d0 := t.Diag[0]
	if d0 == 0 {
		return ErrSingular
	}
	if n > 1 {
		cp[0] = t.Sup[0] / d0
	}
	y[0] = b[0] / d0
	z[0] = u[0] / d0
	for i := 1; i < n; i++ {
		elim := t.Sub[i-1] * cp[i-1]
		den := t.Diag[i] - elim
		if math.Abs(den) <= 1e-14*(math.Abs(t.Diag[i])+math.Abs(elim)) {
			return ErrSingular
		}
		if i < n-1 {
			cp[i] = t.Sup[i] / den
		}
		y[i] = (b[i] - t.Sub[i-1]*y[i-1]) / den
		z[i] = (u[i] - t.Sub[i-1]*z[i-1]) / den
	}
	for i := n - 2; i >= 0; i-- {
		y[i] -= cp[i] * y[i+1]
		z[i] -= cp[i] * z[i+1]
	}
	den := 1 + Dot(v, z)
	if math.Abs(den) < 1e-300 {
		return ErrSingular
	}
	f := Dot(v, y) / den
	for i := range x {
		x[i] = y[i] - f*z[i]
	}
	return nil
}
