package la

import (
	"errors"
	"math"
)

// ErrSingular is returned when a factorization meets an (effectively) zero
// pivot and the system cannot be solved.
var ErrSingular = errors.New("la: singular matrix")

// LU holds an in-place LU factorization with partial pivoting of a square
// matrix: PA = LU, with L unit lower triangular.
type LU struct {
	lu  *Matrix
	piv []int
}

// FactorLU computes the LU factorization of a square matrix a with partial
// pivoting. a is not modified.
func FactorLU(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		panic("la: FactorLU requires a square matrix")
	}
	n := a.Rows
	f := &LU{lu: a.Clone(), piv: make([]int, n)}
	if err := factorInPlace(f.lu, f.piv); err != nil {
		return nil, err
	}
	return f, nil
}

// factorInPlace runs Gaussian elimination with partial pivoting directly on
// lu's storage, recording the row permutation in piv.
func factorInPlace(lu *Matrix, piv []int) error {
	n := lu.Rows
	for i := range piv {
		piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivoting: pick the largest magnitude in column k.
		p, max := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > max {
				p, max = i, a
			}
		}
		if max == 0 {
			return ErrSingular
		}
		if p != k {
			rk := lu.Data[k*n : (k+1)*n]
			rp := lu.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivot
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri := lu.Data[i*n : (i+1)*n]
			rk := lu.Data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return nil
}

// Solve solves A·x = b using the factorization. b is not modified.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n {
		panic("la: LU.Solve dimension mismatch")
	}
	x := make([]float64, n)
	luSolveInto(f.lu, f.piv, b, x)
	return x
}

// luSolveInto performs the permuted forward/back substitution of a factored
// system into a caller-owned vector. x must not alias b (the permutation step
// reads b out of order).
func luSolveInto(lu *Matrix, piv []int, b, x []float64) {
	n := lu.Rows
	// Apply permutation, then forward substitution with unit L.
	for i := 0; i < n; i++ {
		x[i] = b[piv[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		row := lu.Data[i*n : (i+1)*n]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := lu.Data[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

// SolveDense factors a and solves a·x = b in one call.
func SolveDense(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// SolveDenseInto is the allocation-free variant of SolveDense for hot paths
// that own their scratch: it copies a into lu, factors in place and writes the
// solution into x. lu must be n×n, piv length n; x must not alias b. a is not
// modified.
func SolveDenseInto(a *Matrix, b, x []float64, lu *Matrix, piv []int) error {
	n := a.Rows
	if a.Cols != n {
		panic("la: SolveDenseInto requires a square matrix")
	}
	if lu.Rows != n || lu.Cols != n || len(piv) != n || len(b) != n || len(x) != n {
		panic("la: SolveDenseInto dimension mismatch")
	}
	copy(lu.Data, a.Data)
	if err := factorInPlace(lu, piv); err != nil {
		return err
	}
	luSolveInto(lu, piv, b, x)
	return nil
}
