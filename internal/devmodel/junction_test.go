package devmodel

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"qwm/internal/mos"
)

// The junction table must stand in for mos.JunctionCQ to well below the
// solver's tolerances: capacitance within 1e-8 relative anywhere, and the
// secant capacitance ΔQ/ΔV the secant pass builds from two charges within
// 1e-6 relative for every excursion of 1e-6 V or more — in the clamp region
// below the grid, across the grid, and in the exact fallback above it.
func TestJunctionTableMatchesAnalytic(t *testing.T) {
	lib := NewLibrary(tech)
	for _, pol := range []mos.Polarity{mos.NMOS, mos.PMOS} {
		tab := lib.Junction(pol)
		p := tab.Params()
		if tab.p.Pol != pol {
			t.Fatalf("%v: table characterized for %v", pol, tab.p.Pol)
		}
		if lib.Junction(pol) != tab {
			t.Fatalf("%v: library did not cache the junction table", pol)
		}
		j := p.DefaultJunction(1.3e-6)
		lo, hi := -1.0*p.PB, tech.VDD+1.0*p.PB // past both grid ends
		worstC, worstS := 0.0, 0.0
		rng := rand.New(rand.NewSource(int64(pol) + 1))
		for n := 0; n < 20000; n++ {
			v1 := lo + (hi-lo)*rng.Float64()
			c, q1 := tab.CQ(j, v1)
			ce, qe1 := p.JunctionCQ(j, v1)
			if r := math.Abs(c-ce) / ce; r > worstC {
				worstC = r
			}
			// Excursions from 1e-6 V to a few volts, log-uniform.
			dv := math.Pow(10, -6+6.6*rng.Float64())
			if rng.Intn(2) == 0 {
				dv = -dv
			}
			v2 := v1 + dv
			_, q2 := tab.CQ(j, v2)
			_, qe2 := p.JunctionCQ(j, v2)
			sec, secE := (q2-q1)/dv, (qe2-qe1)/dv
			if r := math.Abs(sec-secE) / math.Abs(secE); r > worstS {
				worstS = r
			}
		}
		if worstC > 1e-8 {
			t.Errorf("%v: capacitance off the exact model by %.3g relative (limit 1e-8)", pol, worstC)
		}
		if worstS > 1e-6 {
			t.Errorf("%v: secant capacitance off the exact model by %.3g relative (limit 1e-6)", pol, worstS)
		}
		t.Logf("%v: worst C error %.3g, worst secant error %.3g", pol, worstC, worstS)

		// Below the grid the clamp holds C at its clamped value and
		// continues Q linearly, exactly as the exact model does; above it
		// the table is the exact model.
		for _, vr := range []float64{-0.5 * p.PB, -0.5*p.PB - 0.2, -3, tab.hi, tab.hi + 0.1, 10} {
			c, q := tab.CQ(j, vr)
			ce, qe := p.JunctionCQ(j, vr)
			if c != ce || math.Abs(q-qe) > 1e-12*math.Abs(qe) {
				t.Errorf("%v: vr=%g: table (%g, %g) vs exact (%g, %g)", pol, vr, c, q, ce, qe)
			}
		}
	}
	if size := unsafe.Sizeof(JunctionTable{}); size > 8<<10 {
		t.Errorf("JunctionTable is %d bytes, over the 8 KiB budget", size)
	}
}

// junctionSink keeps the benchmarked lookups live.
var junctionSink float64

// BenchmarkJunctionCQ compares one junction lookup in the characterized
// table with the exact model's logarithm and two exponentials.
func BenchmarkJunctionCQ(b *testing.B) {
	p := &tech.N
	tab := CharacterizeJunction(p, tech.VDD)
	j := p.DefaultJunction(1e-6)
	vrs := make([]float64, 64)
	for i := range vrs {
		vrs[i] = tech.VDD * float64(i) / float64(len(vrs))
	}
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, q := tab.CQ(j, vrs[i&63])
			junctionSink += c + q
		}
	})
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, q := p.JunctionCQ(j, vrs[i&63])
			junctionSink += c + q
		}
	})
}
