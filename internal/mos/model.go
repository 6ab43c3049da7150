package mos

import "math"

// VTherm is the thermal voltage used inside the smooth blending functions.
const VTherm = 0.02585

// IV holds a channel current and its partial derivatives with respect to the
// absolute gate, drain, and source terminal voltages.
type IV struct {
	I             float64
	DVg, DVd, DVs float64
}

// Ids returns the channel current flowing from the drain terminal to the
// source terminal, together with its derivatives, for a device of drawn
// width w and length l at absolute terminal voltages (vg, vd, vs) and body
// voltage vb. For NMOS the body is normally ground; for PMOS, VDD.
//
// The model is symmetric in source/drain: if the nominal drain is at the
// lower potential the roles swap and the current sign flips, which is what a
// physical MOSFET does and what a discharge chain needs (internal nodes can
// momentarily pull above their upper neighbours).
func (p *Params) Ids(w, l, vg, vd, vs, vb float64) IV {
	g := Var(vg, 0)
	d := Var(vd, 1)
	s := Var(vs, 2)
	b := Const(vb)
	if p.Pol == PMOS {
		// Evaluate the NMOS-form equations on negated voltages; current and
		// derivative signs fall out of the dual arithmetic.
		g, d, s, b = g.Neg(), d.Neg(), s.Neg(), b.Neg()
	}
	var ids Dual
	if d.V >= s.V {
		ids = p.idsCore(w, l, g, d, s, b)
	} else {
		ids = p.idsCore(w, l, g, s, d, b).Neg()
	}
	if p.Pol == PMOS {
		ids = ids.Neg()
	}
	return IV{I: ids.V, DVg: ids.D[0], DVd: ids.D[1], DVs: ids.D[2]}
}

// Vth returns the body-effect-adjusted threshold voltage magnitude for a
// device whose source sits at vs and body at vb (absolute voltages, NMOS
// convention applied after polarity folding).
func (p *Params) Vth(vs, vb float64) float64 {
	if p.Pol == PMOS {
		vs, vb = -vs, -vb
	}
	return p.vth(Const(vs), Const(vb)).V
}

// vth computes Vth = Vth0 + γ(√(φ + Vsb) − √φ) with a smooth floor keeping
// the square-root argument positive under forward body bias.
func (p *Params) vth(s, b Dual) Dual {
	vsb := s.Sub(b)
	arg := vsb.AddConst(p.Phi)
	// Smooth floor at 50 mV: arg' = softplus-blend(arg).
	const floor = 0.05
	arg = arg.AddConst(-floor).Scale(1 / (2 * VTherm)).Softplus().Scale(2 * VTherm).AddConst(floor)
	return arg.Sqrt().AddConst(-math.Sqrt(p.Phi)).Scale(p.Gamma).AddConst(p.Vth0)
}

// idsCore evaluates the NMOS-form smooth model with vd ≥ vs guaranteed.
func (p *Params) idsCore(w, l float64, g, d, s, b Dual) Dual {
	bt := p.bias(w, l, g, s, b)
	return p.drain(&bt, d.Sub(s))
}

// biasTerms are the terms of the NMOS-form model that do not depend on the
// drain: they are fixed by the gate, source and body voltages.
type biasTerms struct {
	veff  Dual // effective gate drive
	kw    Dual // mobility-degraded transconductance times W/Leff
	vdsat Dual // velocity-saturation voltage
}

// bias evaluates the drain-independent stage of idsCore.
func (p *Params) bias(w, l float64, g, s, b Dual) biasTerms {
	leff := l - 2*p.LD
	if leff <= 0 {
		leff = l * 0.5
	}
	nvt := p.NSub * VTherm

	vth := p.vth(s, b)
	vgt := g.Sub(s).Sub(vth)

	// Effective gate drive: smooth blend between exponential sub-threshold
	// conduction and strong-inversion (Veff → Vgt for Vgt ≫ nVT).
	veff := vgt.Scale(1 / nvt).Softplus().Scale(nvt)

	// Vertical-field mobility degradation.
	kpe := Const(p.KP).Div(veff.Scale(p.Theta).AddConst(1))

	// Velocity saturation: Vdsat = Veff·EsatL / (Veff + EsatL).
	esatL := p.ESat * leff
	vdsat := veff.Scale(esatL).Div(veff.AddConst(esatL))
	return biasTerms{veff: veff, kw: kpe.Scale(w / leff), vdsat: vdsat}
}

// vdsPow is the exponent of the smooth drain-saturation blend.
const vdsPow = 8.0

// drain evaluates the drain stage of idsCore at vds = vd − vs ≥ 0.
func (p *Params) drain(bt *biasTerms, vds Dual) Dual {
	// Smooth drain saturation: Vdseff = Vds·(1 + (Vds/Vdsat)^a)^(−1/a).
	// Evaluated in the algebraically identical form with the sub-unity base
	// on whichever side is smaller, so the a-th power can never overflow
	// even when an off device makes Vdsat vanishingly small.
	ratio := vds.Div(bt.vdsat)
	var vdseff Dual
	if ratio.V <= 1 {
		vdseff = vds.Mul(ratio.PowConst(vdsPow).AddConst(1).PowConst(-1 / vdsPow))
	} else {
		inv := Const(1).Div(ratio)
		vdseff = bt.vdsat.Mul(inv.PowConst(vdsPow).AddConst(1).PowConst(-1 / vdsPow))
	}

	// Channel current with channel-length modulation.
	clm := vds.Scale(p.Lambda).AddConst(1)
	return bt.kw.Mul(bt.veff.Sub(vdseff.Scale(0.5))).Mul(vdseff).Mul(clm)
}

// drainValue is drain on values alone: each operation is the .V part of
// the Dual operation drain makes, in the same order (Div is a·(1/b), Scale
// is k·a), so the two agree bit for bit.
func (p *Params) drainValue(bt *biasTerms, vds float64) float64 {
	vdsat := bt.vdsat.V
	ratio := vds * (1 / vdsat)
	var vdseff float64
	if ratio <= 1 {
		vdseff = vds * math.Pow(math.Pow(ratio, vdsPow)+1, -1/vdsPow)
	} else {
		inv := 1 / ratio // Const(1).Div(ratio) is 1·(1/ratio), the same bits
		vdseff = vdsat * math.Pow(math.Pow(inv, vdsPow)+1, -1/vdsPow)
	}
	clm := p.Lambda*vds + 1
	return bt.kw.V * (bt.veff.V - 0.5*vdseff) * vdseff * clm
}

// DrainSweep evaluates the channel current of one device at fixed gate,
// source and body voltages for any number of drain voltages, computing the
// drain-independent terms once. A device characterization samples
// thousands of such sweeps.
type DrainSweep struct {
	p                *Params
	w, l, vg, vs, vb float64
	s                float64 // source voltage in NMOS form
	bt               biasTerms
}

// Sweep returns the drain sweep of a device of width w and length l at
// absolute gate, source and body voltages vg, vs and vb.
func (p *Params) Sweep(w, l, vg, vs, vb float64) DrainSweep {
	g, s, b := Const(vg), Const(vs), Const(vb)
	if p.Pol == PMOS {
		g, s, b = g.Neg(), s.Neg(), b.Neg()
	}
	return DrainSweep{p: p, w: w, l: l, vg: vg, vs: vs, vb: vb, s: s.V, bt: p.bias(w, l, g, s, b)}
}

// I returns Ids(w, l, vg, vd, vs, vb).I bit for bit.
func (sw *DrainSweep) I(vd float64) float64 {
	d := vd
	if sw.p.Pol == PMOS {
		d = -vd
	}
	if !(d >= sw.s) {
		// Reverse conduction: drain and source swap roles, so the bias
		// terms of this source do not apply.
		return sw.p.Ids(sw.w, sw.l, sw.vg, vd, sw.vs, sw.vb).I
	}
	i := sw.p.drainValue(&sw.bt, d-sw.s)
	if sw.p.Pol == PMOS {
		return -i
	}
	return i
}

// VdsatValue returns the saturation voltage for a device given gate and
// source voltages — the boundary the tabular model uses to split its linear
// (saturation) and quadratic (triode) fits.
func (p *Params) VdsatValue(l, vg, vs, vb float64) float64 {
	if p.Pol == PMOS {
		vg, vs, vb = -vg, -vs, -vb
	}
	leff := l - 2*p.LD
	if leff <= 0 {
		leff = l * 0.5
	}
	nvt := p.NSub * VTherm
	vth := p.vth(Const(vs), Const(vb)).V
	vgt := vg - vs - vth
	veff := softplusFloat(vgt/nvt) * nvt
	esatL := p.ESat * leff
	return veff * esatL / (veff + esatL)
}

func softplusFloat(x float64) float64 {
	switch {
	case x > 30:
		return x
	case x < -30:
		return math.Exp(x)
	}
	return math.Log1p(math.Exp(x))
}
