package la

import "math"

// Poly is a polynomial stored lowest degree first: Poly{c0, c1, c2} is
// c0 + c1·x + c2·x².
type Poly []float64

// Eval evaluates the polynomial at x (Horner's rule).
func (p Poly) Eval(x float64) float64 {
	s := 0.0
	for i := len(p) - 1; i >= 0; i-- {
		s = s*x + p[i]
	}
	return s
}

// maxCoeffs bounds len(c) in PolyFit: the normal equations of a degree-3
// fit still sit on the stack, and they are well conditioned on the
// volt-scale inputs fitted here.
const maxCoeffs = 4

// PolyFit computes the least-squares polynomial of degree len(c)−1 ≤ 3
// through the sample points (xs[i], ys[i]) into c, by solving the normal
// equations with the dense LU. This is the curve-fitting engine behind the
// tabular device model (paper Fig. 8: linear fit in saturation, quadratic
// fit in triode), which fits thousands of points per table, so it
// allocates nothing. On an error c is unspecified.
func PolyFit(c Poly, xs, ys []float64) error {
	if len(xs) != len(ys) {
		panic("la: PolyFit length mismatch")
	}
	n := len(c)
	if n == 0 || n > maxCoeffs {
		panic("la: PolyFit degree outside 0..3")
	}
	if len(xs) < n {
		return ErrSingular
	}
	// Normal equations: (VᵀV)·c = Vᵀy with Vandermonde V, from the power
	// sums accumulated directly.
	var ataBuf, luBuf [maxCoeffs * maxCoeffs]float64
	var atb, pows [maxCoeffs]float64
	var piv [maxCoeffs]int
	ata := Matrix{Rows: n, Cols: n, Data: ataBuf[:n*n]}
	for k, x := range xs {
		pow := 1.0
		for i := 0; i < n; i++ {
			pows[i] = pow
			pow *= x
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ata.Add(i, j, pows[i]*pows[j])
			}
			atb[i] += pows[i] * ys[k]
		}
	}
	lu := Matrix{Rows: n, Cols: n, Data: luBuf[:n*n]}
	return SolveDenseInto(&ata, atb[:n], c, &lu, piv[:n])
}

// FitRMS returns the root-mean-square residual of a fit over the samples.
func FitRMS(p Poly, xs, ys []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for i, x := range xs {
		d := p.Eval(x) - ys[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}
