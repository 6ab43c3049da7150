package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPolyEval(t *testing.T) {
	p := Poly{1, 2, 3} // 1 + 2x + 3x²
	if got := p.Eval(2); got != 17 {
		t.Errorf("Eval(2) = %g, want 17", got)
	}
	if got := p.Eval(0); got != 1 {
		t.Errorf("Eval(0) = %g, want 1", got)
	}
}

func TestPolyFitExactQuadratic(t *testing.T) {
	want := Poly{0.5, -1.25, 2.0}
	var xs, ys []float64
	for x := -2.0; x <= 2.0; x += 0.25 {
		xs = append(xs, x)
		ys = append(ys, want.Eval(x))
	}
	got := make(Poly, 3)
	if err := PolyFit(got, xs, ys); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-9) {
			t.Errorf("coef[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if rms := FitRMS(got, xs, ys); rms > 1e-9 {
		t.Errorf("rms = %g, want ~0", rms)
	}
}

func TestPolyFitLinearOverdetermined(t *testing.T) {
	// y = 3x + 1 with symmetric noise that a least-squares line averages out.
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1.1, 3.9, 7.1, 9.9}
	p := make(Poly, 2)
	if err := PolyFit(p, xs, ys); err != nil {
		t.Fatal(err)
	}
	if !almostEq(p[1], 3, 0.05) || !almostEq(p[0], 1, 0.1) {
		t.Errorf("fit = %v, want approx [1 3]", p)
	}
}

func TestPolyFitUnderdetermined(t *testing.T) {
	if err := PolyFit(make(Poly, 3), []float64{1}, []float64{2}); err == nil {
		t.Fatal("expected error with fewer samples than coefficients")
	}
}

// The device characterization fits thousands of points per table, so a fit
// of any supported degree allocates nothing.
func TestPolyFitZeroAllocs(t *testing.T) {
	xs := []float64{0, 0.5, 1, 1.5, 2, 2.5}
	ys := []float64{1, 0.2, -0.7, 0.4, 2.2, 3.1}
	for n := 1; n <= 4; n++ {
		c := make(Poly, n)
		allocs := testing.AllocsPerRun(100, func() {
			if err := PolyFit(c, xs, ys); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("degree %d: %.1f allocations per fit, want 0", n-1, allocs)
		}
	}
}

// Property: fitting exact polynomial samples of degree d with degree d
// recovers values at arbitrary points (interpolation property of LSQ on
// consistent data).
func TestPolyFitRecoveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		deg := r.Intn(4)
		truth := make(Poly, deg+1)
		for i := range truth {
			truth[i] = r.NormFloat64()
		}
		var xs, ys []float64
		for i := 0; i < deg+5; i++ {
			x := -1 + 2*r.Float64()
			xs = append(xs, x)
			ys = append(ys, truth.Eval(x))
		}
		fit := make(Poly, deg+1)
		if err := PolyFit(fit, xs, ys); err != nil {
			return false
		}
		for i := 0; i < 5; i++ {
			x := -1 + 2*r.Float64()
			if !almostEq(fit.Eval(x), truth.Eval(x), 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the least-squares residual never exceeds the residual of the
// zero polynomial (optimality sanity check).
func TestPolyFitOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 6 + r.Intn(10)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = -2 + 4*r.Float64()
			ys[i] = r.NormFloat64()
		}
		fit := make(Poly, 3)
		if err := PolyFit(fit, xs, ys); err != nil {
			return false
		}
		zero := Poly{0}
		return FitRMS(fit, xs, ys) <= FitRMS(zero, xs, ys)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFitRMSEmpty(t *testing.T) {
	if FitRMS(Poly{1}, nil, nil) != 0 {
		t.Error("empty RMS should be 0")
	}
}

func TestFitRMSKnown(t *testing.T) {
	p := Poly{0}
	rms := FitRMS(p, []float64{0, 0}, []float64{3, -3})
	if !almostEq(rms, 3, 1e-12) {
		t.Errorf("rms = %g, want 3", rms)
	}
	_ = math.Pi
}
