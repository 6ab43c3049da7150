package mos

import "math"

// Junction describes a source/drain diffusion region geometry. When Area and
// Perim are zero, DefaultJunction derives them from the device width and the
// technology's diffusion extent — the paper's "optionally, the area and
// perimeter of its junctions".
type Junction struct {
	Area  float64 // m²
	Perim float64 // m
}

// DefaultJunction returns the junction geometry implied by a device width.
func (p *Params) DefaultJunction(w float64) Junction {
	return Junction{
		Area:  w * p.LDiff,
		Perim: 2*p.LDiff + w,
	}
}

// JunctionCap returns the depletion capacitance of a diffusion junction
// reverse-biased by vr volts (vr ≥ 0 reverse; small forward bias is clamped
// smoothly). This is the voltage-dependent parasitic the paper's Definition 2
// exposes through srcCap/snkCap.
func (p *Params) JunctionCap(j Junction, vr float64) float64 {
	c, _ := p.JunctionCQ(j, vr)
	return c
}

// JunctionCharge returns the depletion charge stored on a diffusion junction
// at reverse bias vr, i.e. the integral of JunctionCap from 0 to vr. The
// SPICE substrate integrates charge rather than capacitance so that its
// nonlinear parasitics conserve charge exactly.
func (p *Params) JunctionCharge(j Junction, vr float64) float64 {
	_, q := p.JunctionCQ(j, vr)
	return q
}

// JunctionCQ returns a junction's capacitance and charge at reverse bias vr
// together, from one logarithm and two exponentials: with f = 1 + vr/PB,
//
//	C = CJ·A·f^(−MJ) + CJSW·P·f^(−MJSW)
//	Q = ∫₀^vr C dv = CJ·A·PB/(1−MJ)·(f^(1−MJ) − 1) + (same for the sidewall)
//
// where f^(1−m) = f·f^(−m) reuses the capacitance's power. Q is positive for
// vr > 0. The bias is clamped at −0.5·PB, where the (1 + V/PB) factor would
// approach zero and the depletion approximation has no meaning; below the
// clamp C stays at its clamped value and Q continues linearly with it.
func (p *Params) JunctionCQ(j Junction, vr float64) (c, q float64) {
	lin := 0.0
	if clamp := -0.5 * p.PB; vr < clamp {
		lin = vr - clamp
		vr = clamp
	}
	f := 1 + vr/p.PB
	lnf := math.Log(f)
	fa := math.Exp(-p.MJ * lnf)   // f^(−MJ)
	fs := math.Exp(-p.MJSW * lnf) // f^(−MJSW)
	ca := p.CJ * j.Area
	cs := p.CJSW * j.Perim
	c = ca*fa + cs*fs
	q = ca*p.PB/(1-p.MJ)*(f*fa-1) + cs*p.PB/(1-p.MJSW)*(f*fs-1) + lin*c
	return c, q
}

// GateCap returns the total gate input capacitance of a device: intrinsic
// channel capacitance plus both overlaps. Used for loading a stage output
// that drives further gates, and as the paper's inputCap.
func (p *Params) GateCap(w, l float64) float64 {
	leff := l - 2*p.LD
	if leff <= 0 {
		leff = l * 0.5
	}
	return p.Cox*w*leff + (p.CGDO+p.CGSO)*w
}

// OverlapCap returns the gate-to-diffusion overlap capacitance on one side
// of a device of width w. It is the Miller coupling path from a switching
// gate onto a chain node.
func (p *Params) OverlapCap(w float64) float64 {
	return p.CGDO * w
}

// ChannelCapSplit returns the portions of the intrinsic channel capacitance
// attributed to the source and drain ends (the 40/40 split in triode,
// degraded toward 2/3–0 in saturation is approximated with a fixed 1/2 split
// each way — adequate for the constant-capacitance assumption QWM makes
// inside a region).
func (p *Params) ChannelCapSplit(w, l float64) (src, snk float64) {
	leff := l - 2*p.LD
	if leff <= 0 {
		leff = l * 0.5
	}
	half := 0.5 * p.Cox * w * leff * 0.8
	return half, half
}
