package la

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomDDTridiag(r *rand.Rand, n int) *Tridiag {
	t := NewTridiag(n)
	for i := 0; i < n; i++ {
		t.Diag[i] = 4 + r.Float64() // diagonally dominant
		if i < n-1 {
			t.Sup[i] = r.NormFloat64()
			t.Sub[i] = r.NormFloat64()
		}
	}
	return t
}

// solve runs the in-place Thomas solve into fresh buffers.
func solve(t *Tridiag, b []float64) ([]float64, error) {
	x := make([]float64, t.N())
	if err := t.SolveInto(b, x, make([]float64, t.N()-1)); err != nil {
		return nil, err
	}
	return x, nil
}

// solveRankOne runs the in-place Sherman–Morrison solve into fresh buffers.
func solveRankOne(t *Tridiag, u, v, b []float64) ([]float64, error) {
	n := t.N()
	x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
	if err := t.SolveRankOneInto(u, v, b, x, y, z, make([]float64, n-1)); err != nil {
		return nil, err
	}
	return x, nil
}

func TestTridiagSolveKnown(t *testing.T) {
	// [2 1 0; 1 2 1; 0 1 2] x = [4 8 8] -> x = [1 2 3]
	tri := NewTridiag(3)
	tri.Diag = []float64{2, 2, 2}
	tri.Sub = []float64{1, 1}
	tri.Sup = []float64{1, 1}
	x, err := solve(tri, []float64{4, 8, 8})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-12) {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestTridiagOrderOne(t *testing.T) {
	tri := NewTridiag(1)
	tri.Diag[0] = 5
	x, err := solve(tri, []float64{10})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 2 {
		t.Errorf("x = %g, want 2", x[0])
	}
}

func TestTridiagSingular(t *testing.T) {
	tri := NewTridiag(2)
	tri.Diag = []float64{0, 0}
	tri.Sub = []float64{0}
	tri.Sup = []float64{0}
	if _, err := solve(tri, []float64{1, 1}); err == nil {
		t.Fatal("expected singular error for zero matrix")
	}
}

// Property: Thomas solve agrees with dense LU on random diagonally dominant
// tridiagonal systems.
func TestTridiagMatchesLUProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(15)
		tri := randomDDTridiag(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x1, err := solve(tri, b)
		if err != nil {
			return false
		}
		x2, err := SolveDense(tri.Dense(), b)
		if err != nil {
			return false
		}
		for i := range x1 {
			if !almostEq(x1[i], x2[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: T·Solve(T, b) reproduces b.
func TestTridiagResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		tri := randomDDTridiag(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64() * 10
		}
		x, err := solve(tri, b)
		if err != nil {
			return false
		}
		res := tri.MulVec(x)
		for i := range res {
			if !almostEq(res[i], b[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Sherman–Morrison rank-one solve agrees with the dense solve of
// the explicitly assembled matrix T + u·vᵀ.
func TestShermanMorrisonMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		tri := randomDDTridiag(r, n)
		u := make([]float64, n)
		v := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			u[i] = r.NormFloat64() * 0.3 // keep perturbation small vs diagonal
			v[i] = r.NormFloat64() * 0.3
			b[i] = r.NormFloat64()
		}
		x1, err := solveRankOne(tri, u, v, b)
		if err != nil {
			return false
		}
		dense := tri.Dense()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dense.Add(i, j, u[i]*v[j])
			}
		}
		x2, err := SolveDense(dense, b)
		if err != nil {
			return false
		}
		for i := range x1 {
			if !almostEq(x1[i], x2[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The QWM Jacobian shape: tridiagonal everywhere except a dense last column,
// expressed as u = that column's out-of-band part, v = e_n.
func TestShermanMorrisonLastColumn(t *testing.T) {
	n := 5
	r := rand.New(rand.NewSource(42))
	tri := randomDDTridiag(r, n)
	u := make([]float64, n)
	v := make([]float64, n)
	v[n-1] = 1
	for i := 0; i < n-2; i++ { // out-of-band rows of the last column
		u[i] = r.NormFloat64()
	}
	b := []float64{1, 2, 3, 4, 5}
	x1, err := solveRankOne(tri, u, v, b)
	if err != nil {
		t.Fatal(err)
	}
	dense := tri.Dense()
	for i := 0; i < n; i++ {
		dense.Add(i, n-1, u[i])
	}
	x2, err := SolveDense(dense, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if !almostEq(x1[i], x2[i], 1e-9) {
			t.Errorf("x[%d]: SM %g vs LU %g", i, x1[i], x2[i])
		}
	}
}

func TestTridiagDense(t *testing.T) {
	tri := NewTridiag(3)
	tri.Diag = []float64{1, 2, 3}
	tri.Sub = []float64{4, 5}
	tri.Sup = []float64{6, 7}
	d := tri.Dense()
	want := FromRows([][]float64{
		{1, 6, 0},
		{4, 2, 7},
		{0, 5, 3},
	})
	for i := range want.Data {
		if d.Data[i] != want.Data[i] {
			t.Fatalf("Dense mismatch:\n%v\nwant\n%v", d, want)
		}
	}
}

// An in-place solve (b aliasing x) must match the out-of-place solve bit
// for bit: the forward sweep reads b[i] before writing x[i].
func TestTridiagSolveIntoAliased(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		tri := randomDDTridiag(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		want, err := solve(tri, b)
		if err != nil {
			return false
		}
		ali := make([]float64, n)
		copy(ali, b)
		if err := tri.SolveInto(ali, ali, make([]float64, n-1)); err != nil {
			return false
		}
		for i := range ali {
			if ali[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The breakdown test compares each pivot only with its own row's terms, so
// a system whose rows differ by 24 orders of magnitude — the QWM Jacobian's
// node rows near 1e-12 against its event row near 1e11 — solves on the
// Thomas path to full accuracy. A test against the matrix's largest entry
// rejected this system at row 0.
func TestTridiagBadlyScaledSolves(t *testing.T) {
	tri := &Tridiag{
		Diag: []float64{1.3e-12, 2.1e-12, 4e11},
		Sub:  []float64{-0.7e-12, 3e10},
		Sup:  []float64{-0.9e-12, 5e-3},
	}
	b := []float64{1e-13, -2e-13, 7e10}
	x, err := solve(tri, b)
	if err != nil {
		t.Fatalf("badly scaled system: %v", err)
	}
	// Relative residual per row, against that row's own magnitudes.
	ax := tri.MulVec(x)
	for i := range b {
		scale := math.Abs(tri.Diag[i]*x[i]) + math.Abs(b[i])
		if i > 0 {
			scale += math.Abs(tri.Sub[i-1] * x[i-1])
		}
		if i < len(b)-1 {
			scale += math.Abs(tri.Sup[i] * x[i+1])
		}
		if res := math.Abs(ax[i]-b[i]) / scale; res > 1e-12 {
			t.Errorf("row %d: relative residual %.3g > 1e-12", i, res)
		}
	}
}

// Genuinely singular systems still report ErrSingular: an exactly zero
// leading pivot, and a 2×2 whose second pivot cancels to zero.
func TestTridiagSingularPivots(t *testing.T) {
	for name, tri := range map[string]*Tridiag{
		"zero leading pivot": {Diag: []float64{0, 1, 1}, Sub: []float64{1, 1}, Sup: []float64{1, 1}},
		"singular 2x2":       {Diag: []float64{2e-12, 3}, Sub: []float64{6e-12}, Sup: []float64{1}},
	} {
		if _, err := solve(tri, make([]float64, tri.N())); !errors.Is(err, ErrSingular) {
			t.Errorf("%s: err = %v, want ErrSingular", name, err)
		}
	}
}

// The in-place kernels are the QWM Newton hot path: they must not touch the
// heap at all.
func TestSolveIntoZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	const n = 11
	tri := randomDDTridiag(r, n)
	u := make([]float64, n)
	v := make([]float64, n)
	b := make([]float64, n)
	v[n-1] = 1
	for i := 0; i < n-2; i++ {
		u[i] = r.NormFloat64() * 0.3
	}
	for i := range b {
		b[i] = r.NormFloat64()
	}
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	cp := make([]float64, n-1)
	bad := false
	allocs := testing.AllocsPerRun(200, func() {
		if err := tri.SolveInto(b, x, cp); err != nil {
			bad = true
		}
		if err := tri.SolveRankOneInto(u, v, b, x, y, z, cp); err != nil {
			bad = true
		}
	})
	if bad {
		t.Fatal("solve failed")
	}
	if allocs != 0 {
		t.Errorf("in-place solves allocated %.1f times per run, want 0", allocs)
	}
}

func TestTridiagDenseIntoMatchesDense(t *testing.T) {
	tri := &Tridiag{
		Diag: []float64{4, 5, 6, 7},
		Sub:  []float64{1, 2, 3},
		Sup:  []float64{-1, -2, -3},
	}
	want := tri.Dense()
	m := NewMatrix(4, 4)
	// Pre-poison to verify DenseInto zeroes off-band entries.
	for i := range m.Data {
		m.Data[i] = 99
	}
	tri.DenseInto(m)
	for i := range want.Data {
		if m.Data[i] != want.Data[i] {
			t.Fatalf("Data[%d] = %g, want %g", i, m.Data[i], want.Data[i])
		}
	}
}

// TestSolveRankOneSharedSweepBitExact: the rank-one solve's shared
// elimination sweep gives the same bits as two separate SolveInto calls
// followed by the Sherman–Morrison update, on well and badly scaled rows,
// and reports a pivot breakdown exactly when SolveInto does.
func TestSolveRankOneSharedSweepBitExact(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		tri := randomDDTridiag(r, n)
		u, v, b := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			// Rows in different units, as the QWM Jacobian's are.
			scale := math.Pow(10, float64(r.Intn(24)-12))
			tri.Diag[i] *= scale
			if i < n-1 {
				tri.Sup[i] *= scale
			}
			if i > 0 {
				tri.Sub[i-1] *= scale
			}
			u[i], v[i], b[i] = r.NormFloat64()*scale, r.NormFloat64(), r.NormFloat64()*scale
		}
		if seed%10 == 0 && n > 2 {
			// Force a cancelled pivot in row 1.
			tri.Diag[1] = tri.Sub[0] * tri.Sup[0] / tri.Diag[0]
		}
		cp := make([]float64, n)
		y, z := make([]float64, n), make([]float64, n)
		errY, errZ := tri.SolveInto(b, y, cp), tri.SolveInto(u, z, cp)
		want := make([]float64, n)
		wantErr := errY
		if wantErr == nil {
			wantErr = errZ
		}
		if wantErr == nil {
			f := Dot(v, y) / (1 + Dot(v, z))
			for i := range want {
				want[i] = y[i] - f*z[i]
			}
		}
		x := make([]float64, n)
		gotErr := tri.SolveRankOneInto(u, v, b, x, make([]float64, n), make([]float64, n), make([]float64, n))
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("seed %d: error %v, two solves gave %v", seed, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: x[%d] = %x, two solves give %x", seed, i, x[i], want[i])
			}
		}
	}
}
