package devmodel

import (
	"math"

	"qwm/internal/mos"
)

// junctionPoints is the grid size of a JunctionTable: 508 points of two
// float64s keep one polarity's table, header included, under 8 KiB.
const junctionPoints = 508

// JunctionTable is the characterized form of mos.Params.JunctionCQ for one
// polarity: the grading powers f^(−MJ) and f^(−MJSW), f = 1 + vr/PB, sampled
// on a uniform reverse-bias grid over [−0.5·PB, VDD + PB/2] and read back by
// cubic Hermite interpolation. The slopes at the grid points are exact too:
// d/dvr f^(−m) = −m·f^(−m)/(f·PB), so only the values are stored. Below the
// grid the bias clamp of JunctionCQ applies (C constant, Q linear); above it
// the lookup falls back to the exact model.
type JunctionTable struct {
	p *mos.Params // the parameters the table was characterized from

	lo, hi float64                     // grid range in reverse bias (V)
	invH   float64                     // 1 / grid pitch
	hPB    float64                     // grid pitch / PB: the step of f between grid points
	kA, kS float64                     // −MJ·h/PB and −MJSW·h/PB: slope·h = k·f^(−m)/f
	fLo    float64                     // f at the first grid point
	pts    [2 * junctionPoints]float64 // f^(−MJ), f^(−MJSW) at lo + i·h
}

// CharacterizeJunction tabulates the junction grading powers of p over the
// reverse-bias range a chain node at [0, vdd] can reach.
func CharacterizeJunction(p *mos.Params, vdd float64) *JunctionTable {
	t := &JunctionTable{p: p, lo: -0.5 * p.PB, hi: vdd + 0.5*p.PB}
	h := (t.hi - t.lo) / (junctionPoints - 1)
	t.invH = 1 / h
	t.hPB = h / p.PB
	t.kA, t.kS = -p.MJ*t.hPB, -p.MJSW*t.hPB
	t.fLo = 1 + t.lo/p.PB
	for i := 0; i < junctionPoints; i++ {
		lnf := math.Log(t.fLo + float64(i)*t.hPB)
		t.pts[2*i] = math.Exp(-p.MJ * lnf)
		t.pts[2*i+1] = math.Exp(-p.MJSW * lnf)
	}
	return t
}

// Params returns the parameter set the table was characterized from.
func (t *JunctionTable) Params() *mos.Params { return t.p }

// CQ returns the junction's capacitance and charge at reverse bias vr, as
// mos.Params.JunctionCQ does, with the two powers read from the table.
func (t *JunctionTable) CQ(j mos.Junction, vr float64) (c, q float64) {
	p := t.p
	lin := 0.0
	if vr < t.lo {
		lin = vr - t.lo
		vr = t.lo
	}
	x := (vr - t.lo) * t.invH
	if !(x < junctionPoints-1) {
		return p.JunctionCQ(j, vr)
	}
	i := int(x)
	s := x - float64(i)
	// Cubic Hermite basis on the unit interval; the slope terms carry the
	// endpoint slopes k·g/f, with one division for both 1/f.
	s2 := s * s
	s3 := s2 * s
	h01 := 3*s2 - 2*s3
	h00 := 1 - h01
	h10 := s3 - 2*s2 + s
	h11 := s3 - s2
	f0 := t.fLo + float64(i)*t.hPB
	f1 := f0 + t.hPB
	inv := 1 / (f0 * f1)
	h10 *= f1 * inv // h10 / f0
	h11 *= f0 * inv // h11 / f1
	g := t.pts[2*i : 2*i+4 : 2*i+4]
	fa := g[0]*(h00+t.kA*h10) + g[2]*(h01+t.kA*h11)
	fs := g[1]*(h00+t.kS*h10) + g[3]*(h01+t.kS*h11)
	f := 1 + vr/p.PB
	ca := p.CJ * j.Area
	cs := p.CJSW * j.Perim
	c = ca*fa + cs*fs
	q = ca*p.PB/(1-p.MJ)*(f*fa-1) + cs*p.PB/(1-p.MJSW)*(f*fs-1) + lin*c
	return c, q
}
