package awe

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func feq(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }

func TestTreeValidation(t *testing.T) {
	tr := NewRCTree("in")
	if err := tr.AddNode("a", "in", 100, 1e-15); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddNode("a", "in", 100, 1e-15); err == nil {
		t.Error("duplicate accepted")
	}
	if err := tr.AddNode("b", "nope", 100, 1e-15); err == nil {
		t.Error("unknown parent accepted")
	}
	if err := tr.AddNode("b", "a", 0, 1e-15); err == nil {
		t.Error("zero resistance accepted")
	}
	if err := tr.AddNode("b", "a", 10, -1); err == nil {
		t.Error("negative cap accepted")
	}
	if err := tr.AddCap("a", 5e-15); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddCap("zzz", 1); err == nil {
		t.Error("AddCap unknown node accepted")
	}
	if _, err := tr.Elmore("zzz"); err == nil {
		t.Error("Elmore of unknown node accepted")
	}
}

func TestSingleRCMoments(t *testing.T) {
	const (
		R = 1e3
		C = 1e-12
	)
	tr := NewRCTree("in")
	_ = tr.AddNode("out", "in", R, C)
	m, err := tr.NodeMoments("out", 3)
	if err != nil {
		t.Fatal(err)
	}
	// V(s) = 1/(1+sRC): m_k = (−RC)^k.
	for k, want := range []float64{-R * C, R * R * C * C, -R * R * R * C * C * C} {
		if !feq(m[k], want, 1e-12) {
			t.Errorf("m_%d = %g, want %g", k+1, m[k], want)
		}
	}
	d, _ := tr.Elmore("out")
	if !feq(d, R*C, 1e-12) {
		t.Errorf("Elmore = %g, want %g", d, R*C)
	}
}

func TestLadderElmore(t *testing.T) {
	// Two-segment ladder: Elmore(out) = R1(C1+C2) + R2·C2.
	tr := NewRCTree("in")
	_ = tr.AddNode("mid", "in", 100, 2e-12)
	_ = tr.AddNode("out", "mid", 300, 1e-12)
	d, _ := tr.Elmore("out")
	want := 100*(2e-12+1e-12) + 300*1e-12
	if !feq(d, want, 1e-12) {
		t.Errorf("Elmore = %g, want %g", d, want)
	}
	// A side branch loads the shared path only.
	_ = tr.AddNode("side", "mid", 500, 4e-12)
	d2, _ := tr.Elmore("out")
	want2 := want + 100*4e-12
	if !feq(d2, want2, 1e-12) {
		t.Errorf("Elmore with branch = %g, want %g", d2, want2)
	}
}

func TestUniformLinePi(t *testing.T) {
	const (
		R = 1e3
		C = 2e-12
	)
	pi, err := PiForWire(R, C)
	if err != nil {
		t.Fatal(err)
	}
	// O'Brien/Savarino on a uniform line: CFar = 5C/6, CNear = C/6, R = 12R/25.
	if !feq(pi.CFar, 5*C/6, 1e-9) || !feq(pi.CNear, C/6, 1e-9) || !feq(pi.R, 12*R/25, 1e-9) {
		t.Errorf("pi = %+v", pi)
	}
	// Total capacitance is preserved.
	if !feq(pi.CNear+pi.CFar, C, 1e-12) {
		t.Error("pi does not conserve capacitance")
	}
}

// Property: the π model's own admittance moments reproduce the moments it
// was built from.
func TestPiMomentRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		res := 10 + 5e3*r.Float64()
		c := (0.1 + 5*r.Float64()) * 1e-12
		pi, err := PiForWire(res, c)
		if err != nil {
			return false
		}
		tr := NewRCTree("in")
		if err := tr.AddCap("in", pi.CNear); err != nil {
			return false
		}
		if err := tr.AddNode("far", "in", pi.R, pi.CFar); err != nil {
			return false
		}
		// Y(s) = Σ c_i·(m0 + m1·s + m2·s² …)·s over the nodes; the root's
		// moments past m0 are 0, so only CFar carries y2 and y3.
		m, err := tr.NodeMoments("far", 2)
		if err != nil {
			return false
		}
		y1, y2, y3 := pi.CNear+pi.CFar, pi.CFar*m[0], pi.CFar*m[1]
		w1, w2, w3 := UniformLine(res, c)
		return feq(y1, w1, 1e-9) && feq(y2, w2, 1e-9) && feq(y3, w3, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Elmore delay is positive and non-decreasing along any root path.
func TestElmoreMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := NewRCTree("in")
		prev := "in"
		var delays []float64
		for i := 0; i < 3+r.Intn(8); i++ {
			name := fmt.Sprintf("n%d", i)
			if err := tr.AddNode(name, prev, 10+1e3*r.Float64(), r.Float64()*1e-12); err != nil {
				return false
			}
			d, err := tr.Elmore(name)
			if err != nil {
				return false
			}
			delays = append(delays, d)
			prev = name
		}
		for i := 1; i < len(delays); i++ {
			if delays[i] < delays[i-1] {
				return false
			}
		}
		return delays[0] >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPiFromMomentsValidation(t *testing.T) {
	if _, err := PiFromMoments(1e-12, 1e-12, 1e-12); err == nil {
		t.Error("non-physical moments accepted")
	}
}
