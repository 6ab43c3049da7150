package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestLUSolveKnown(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := SolveDense(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-12) {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{
		{1, 2},
		{2, 4},
	})
	if _, err := SolveDense(a, []float64{1, 2}); err == nil {
		t.Fatal("expected ErrSingular for rank-deficient matrix")
	}
}

func TestLUIdentity(t *testing.T) {
	n := 5
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	b := []float64{1, -2, 3, -4, 5}
	x, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if x[i] != b[i] {
			t.Errorf("identity solve x[%d] = %g, want %g", i, x[i], b[i])
		}
	}
}

func TestLUPivotingNeeded(t *testing.T) {
	// Zero on the (0,0) position forces a row swap.
	a := FromRows([][]float64{
		{0, 1},
		{1, 0},
	})
	x, err := SolveDense(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 7, 1e-14) || !almostEq(x[1], 3, 1e-14) {
		t.Errorf("got %v, want [7 3]", x)
	}
}

// Property: for random well-conditioned systems, A·Solve(A, b) ≈ b.
func TestLUSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		// Diagonal boost keeps the random matrix comfortably nonsingular.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)*2)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := SolveDense(a, b)
		if err != nil {
			return false
		}
		res := a.MulVec(x)
		for i := range res {
			if !almostEq(res[i], b[i], 1e-9) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestMatrixMulVec(t *testing.T) {
	a := FromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
	})
	y := a.MulVec([]float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Errorf("MulVec = %v, want [6 15]", y)
	}
}

func TestVecNorms(t *testing.T) {
	v := []float64{3, -4}
	if VecNormInf(v) != 4 {
		t.Errorf("VecNormInf = %g, want 4", VecNormInf(v))
	}
	if Dot(v, []float64{1, 1}) != -1 {
		t.Errorf("Dot = %g, want -1", Dot(v, []float64{1, 1}))
	}
}

func TestSolveDenseIntoMatchesSolveDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 8; n++ {
		a := NewMatrix(n, n)
		b := make([]float64, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want, err := SolveDense(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := make([]float64, n)
		lu := NewMatrix(n, n)
		piv := make([]int, n)
		if err := SolveDenseInto(a, b, x, lu, piv); err != nil {
			t.Fatalf("n=%d: SolveDenseInto: %v", n, err)
		}
		for i := range want {
			if !almostEq(x[i], want[i], 1e-12) {
				t.Errorf("n=%d: x[%d] = %g, want %g", n, i, x[i], want[i])
			}
		}
	}
}

func TestSolveDenseIntoSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	x := make([]float64, 2)
	lu := NewMatrix(2, 2)
	if err := SolveDenseInto(a, []float64{1, 1}, x, lu, make([]int, 2)); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveDenseIntoZeroAllocs(t *testing.T) {
	const n = 6
	rng := rand.New(rand.NewSource(11))
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	lu := NewMatrix(n, n)
	piv := make([]int, n)
	allocs := testing.AllocsPerRun(100, func() {
		if err := SolveDenseInto(a, b, x, lu, piv); err != nil {
			t.Error(err)
		}
	})
	if allocs != 0 {
		t.Errorf("SolveDenseInto allocated %.2f times per run, want 0", allocs)
	}
}
