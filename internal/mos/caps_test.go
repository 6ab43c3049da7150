package mos

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultJunctionGeometry(t *testing.T) {
	j := tech.N.DefaultJunction(1e-6)
	if j.Area != 1e-6*tech.N.LDiff {
		t.Errorf("area = %g", j.Area)
	}
	if j.Perim != 2*tech.N.LDiff+1e-6 {
		t.Errorf("perim = %g", j.Perim)
	}
}

func TestJunctionCapDecreasesWithReverseBias(t *testing.T) {
	j := tech.N.DefaultJunction(1e-6)
	c0 := tech.N.JunctionCap(j, 0)
	c3 := tech.N.JunctionCap(j, 3.3)
	if c0 <= 0 || c3 <= 0 {
		t.Fatalf("caps must be positive: %g %g", c0, c3)
	}
	if c3 >= c0 {
		t.Errorf("junction cap should shrink with reverse bias: C(0)=%g C(3.3)=%g", c0, c3)
	}
	// Zero-bias value should match CJ·A + CJSW·P exactly.
	want := tech.N.CJ*j.Area + tech.N.CJSW*j.Perim
	if !dualAlmostEq(c0, want, 1e-12) {
		t.Errorf("C(0) = %g, want %g", c0, want)
	}
}

func TestJunctionCapForwardBiasClamped(t *testing.T) {
	j := tech.N.DefaultJunction(1e-6)
	c := tech.N.JunctionCap(j, -5)
	climit := tech.N.JunctionCap(j, -0.5*tech.N.PB)
	if c != climit {
		t.Errorf("deep forward bias should clamp: %g vs %g", c, climit)
	}
}

func TestGateCapPlausible(t *testing.T) {
	// A 1 µm / 0.35 µm gate is a couple of femtofarads in this process.
	c := tech.N.GateCap(1e-6, 0.35e-6)
	if c < 0.5e-15 || c > 10e-15 {
		t.Errorf("gate cap %g F out of plausible fF range", c)
	}
}

func TestChannelCapSplitSymmetric(t *testing.T) {
	src, snk := tech.N.ChannelCapSplit(1e-6, 0.35e-6)
	if src != snk || src <= 0 {
		t.Errorf("split = %g, %g", src, snk)
	}
}

func TestJunctionChargeZero(t *testing.T) {
	j := tech.N.DefaultJunction(1e-6)
	if q := tech.N.JunctionCharge(j, 0); q != 0 {
		t.Errorf("Q(0) = %g, want 0", q)
	}
}

// Property: dQ/dv equals the junction capacitance (charge conservation
// consistency used by the SPICE substrate), including through the forward-
// bias clamp region.
func TestJunctionChargeDerivativeProperty(t *testing.T) {
	j := tech.N.DefaultJunction(1.5e-6)
	f := func(v float64) bool {
		if v < -2 || v > 5 {
			return true
		}
		const h = 1e-5
		fd := (tech.N.JunctionCharge(j, v+h) - tech.N.JunctionCharge(j, v-h)) / (2 * h)
		c := tech.N.JunctionCap(j, v)
		return dualAlmostEq(fd, c, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: junction capacitance is positive and monotone non-increasing in
// reverse bias over the operating range.
func TestJunctionCapMonotoneProperty(t *testing.T) {
	j := tech.N.DefaultJunction(2e-6)
	f := func(v1, v2 float64) bool {
		if v1 < 0 || v2 < 0 || v1 > 5 || v2 > 5 {
			return true
		}
		lo, hi := v1, v2
		if lo > hi {
			lo, hi = hi, lo
		}
		cLo := tech.N.JunctionCap(j, lo)
		cHi := tech.N.JunctionCap(j, hi)
		return cLo > 0 && cHi > 0 && cHi <= cLo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// JunctionCQ shares one logarithm between C and Q; it must agree with the
// textbook closed forms (two math.Pow per term) to rounding, through the
// forward-bias clamp and its linear charge continuation, for both
// polarities' parameter sets.
func TestJunctionCQMatchesClosedForms(t *testing.T) {
	closed := func(p *Params, j Junction, vr float64) (c, q float64) {
		clamp := -0.5 * p.PB
		lin := 0.0
		if vr < clamp {
			lin = vr - clamp
			vr = clamp
		}
		f := 1 + vr/p.PB
		c = p.CJ*j.Area/math.Pow(f, p.MJ) + p.CJSW*j.Perim/math.Pow(f, p.MJSW)
		q = p.CJ*j.Area*p.PB/(1-p.MJ)*(math.Pow(f, 1-p.MJ)-1) +
			p.CJSW*j.Perim*p.PB/(1-p.MJSW)*(math.Pow(f, 1-p.MJSW)-1) + lin*c
		return c, q
	}
	rel := func(got, want float64) float64 {
		if want == 0 {
			return math.Abs(got)
		}
		return math.Abs(got-want) / math.Abs(want)
	}
	for _, p := range []*Params{&tech.N, &tech.P} {
		j := p.DefaultJunction(1.3e-6)
		for i := 0; i <= 110; i++ {
			vr := -1 + 0.05*float64(i) // −1 … 4.5 V, clamp at −0.4 V
			c, q := p.JunctionCQ(j, vr)
			wc, wq := closed(p, j, vr)
			if e := rel(c, wc); e > 1e-13 {
				t.Errorf("pol %v vr %.2f: C = %.17g, closed form %.17g (rel %.2g)", p.Pol, vr, c, wc, e)
			}
			if e := rel(q, wq); e > 1e-13 {
				t.Errorf("pol %v vr %.2f: Q = %.17g, closed form %.17g (rel %.2g)", p.Pol, vr, q, wq, e)
			}
			if c != p.JunctionCap(j, vr) || q != p.JunctionCharge(j, vr) {
				t.Errorf("pol %v vr %.2f: JunctionCap/JunctionCharge differ from JunctionCQ", p.Pol, vr)
			}
		}
	}
}
