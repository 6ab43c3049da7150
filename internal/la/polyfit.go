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

// PolyFit computes the least-squares polynomial of the given degree through
// the sample points (xs[i], ys[i]) by solving the normal equations with the
// dense LU. This is the curve-fitting engine behind the tabular device model
// (paper Fig. 8: linear fit in saturation, quadratic fit in triode).
func PolyFit(xs, ys []float64, degree int) (Poly, error) {
	if len(xs) != len(ys) {
		panic("la: PolyFit length mismatch")
	}
	if degree < 0 {
		panic("la: PolyFit negative degree")
	}
	n := degree + 1
	if len(xs) < n {
		return nil, ErrSingular
	}
	// Normal equations: (VᵀV)·c = Vᵀy with Vandermonde V.
	// Accumulate power sums directly; degree ≤ 3 here so conditioning is fine
	// on the volt-scale inputs we fit.
	ata := NewMatrix(n, n)
	atb := make([]float64, n)
	for k, x := range xs {
		pow := 1.0
		pows := make([]float64, n)
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
	c, err := SolveDense(ata, atb)
	if err != nil {
		return nil, err
	}
	return Poly(c), nil
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
