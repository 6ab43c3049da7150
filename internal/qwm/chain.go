// Package qwm implements the paper's contribution: piecewise quadratic
// waveform matching for the transient analysis of CMOS charge/discharge
// paths. Instead of integrating the circuit ODEs at thousands of time steps,
// the transient is divided into K regions at the critical points where
// successive stack transistors turn on; inside each region every node
// current is modeled as linear in time (voltage quadratic, one parameter α
// per node), and the α's plus the region end time τ′ are found by one small
// Newton solve that matches capacitor currents against the device I/V model
// at τ′ (paper Eq. 7). The Newton updates exploit the Jacobian's
// tridiagonal-plus-last-column structure via the Thomas algorithm and the
// Sherman–Morrison formula (paper §IV-B).
//
// The engine works in "folded" coordinates: a PMOS pull-up path is analyzed
// as the mathematically identical NMOS-style pull-down of the folded voltage
// v′ = VDD − v, and results are unfolded on output.
package qwm

import (
	"fmt"
	"math"

	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/wave"
)

// Elem is one series element of a charge/discharge chain. A transistor
// element has Model, W and Gate set; a wire element has R set and Model nil.
type Elem struct {
	Model devmodel.IVModel // folded I/V model; nil for a wire
	W     float64          // transistor width (m)
	R     float64          // wire resistance (Ω) when Model == nil
	Gate  wave.Waveform    // folded gate waveform (transistors only)
}

// IsWire reports whether the element is a resistive wire segment.
func (e *Elem) IsWire() bool { return e.Model == nil }

// JunctionAt is a voltage-dependent junction capacitance contribution to a
// chain node from the devices (on-path or off-path) that share one set of
// parameters: J is their summed geometry. Tab, when set, is the library's
// characterized junction table for P; without it C and Q come from the
// exact mos.JunctionCQ.
type JunctionAt struct {
	P   *mos.Params
	J   mos.Junction
	Tab *devmodel.JunctionTable
}

// NodeCap describes the total capacitance to ground of one chain node:
// a fixed part (loads, overlaps, channel and wire capacitance) plus
// voltage-dependent junctions — the paper's Eq. 1 with the Definition 2
// voltage dependence.
type NodeCap struct {
	Fixed     float64
	Junctions []JunctionAt
}

// addJunction adds a junction to the node, folding it into an existing
// entry with the same device parameters. Junction capacitance and charge
// are linear in Area and Perim, so summing the geometry is exact, and each
// distinct parameter set costs one evaluation per node and bias. tab is the
// junction table for p, or nil for the exact model.
func (nc *NodeCap) addJunction(p *mos.Params, j mos.Junction, tab *devmodel.JunctionTable) {
	for i := range nc.Junctions {
		if ja := &nc.Junctions[i]; ja.P == p {
			ja.J.Area += j.Area
			ja.J.Perim += j.Perim
			return
		}
	}
	nc.Junctions = append(nc.Junctions, JunctionAt{P: p, J: j, Tab: tab})
}

// At evaluates the node capacitance at a folded node voltage. vdd and the
// chain polarity convert the folded voltage to each junction's reverse bias.
func (nc *NodeCap) At(vFolded, vdd float64, chainPol mos.Polarity) float64 {
	c, _ := nc.CQ(vFolded, vdd, chainPol)
	return c
}

// CQ evaluates the node capacitance and its oriented junction charge at a
// folded node voltage. The charge is q = Σ ±Q_j, each junction's sign chosen
// so that dq/dv (folded) is that junction's capacitance: + when its reverse
// bias rises with the folded voltage (its polarity matches the chain's),
// − otherwise. Q is a state function, so Secant can take any two values of q
// as the charge moved over an excursion.
func (nc *NodeCap) CQ(vFolded, vdd float64, chainPol mos.Polarity) (c, q float64) {
	c = nc.Fixed
	for _, ja := range nc.Junctions {
		vr := reverseBias(ja.P, unfold(vFolded, vdd, chainPol), vdd)
		var cj, qj float64
		if ja.Tab != nil {
			cj, qj = ja.Tab.CQ(ja.J, vr)
		} else {
			cj, qj = ja.P.JunctionCQ(ja.J, vr)
		}
		c += cj
		if ja.P.Pol == chainPol {
			q += qj
		} else {
			q -= qj
		}
	}
	return c, q
}

// Secant evaluates the effective (charge-based) capacitance ΔQ/ΔV over a
// folded voltage excursion from v1, where the oriented charge is q1 (from
// CQ), to v2 ≠ v1. It makes the endpoint of a constant-capacitance region
// exact even though the junction capacitance varies across the region, and
// costs one junction evaluation, at v2.
func (nc *NodeCap) Secant(v1, q1, v2, vdd float64, chainPol mos.Polarity) float64 {
	_, q2 := nc.CQ(v2, vdd, chainPol)
	return nc.Fixed + math.Abs((q2-q1)/(v2-v1))
}

func unfold(vFolded, vdd float64, chainPol mos.Polarity) float64 {
	if chainPol == mos.PMOS {
		return vdd - vFolded
	}
	return vFolded
}

func reverseBias(p *mos.Params, vUnfolded, vdd float64) float64 {
	if p.Pol == mos.PMOS {
		return vdd - vUnfolded
	}
	return vUnfolded
}

// Chain is the QWM input: a series path of K transistors (and optional
// wires) from a rail to an output node, with per-node capacitances and
// initial voltages. Element i connects node i (lower, rail side) and node
// i+1 (upper); node 0 is the rail (folded 0 V) and node M (M = len(Elems))
// is the output.
type Chain struct {
	// Pol is the polarity of the path transistors; PMOS chains are analyzed
	// folded.
	Pol mos.Polarity
	VDD float64
	// Elems from the rail to the output.
	Elems []*Elem
	// Caps[k-1] is node k's capacitance (k = 1..M).
	Caps []NodeCap
	// V0[k-1] is node k's initial *folded* voltage (k = 1..M). For the
	// precharged-discharge scenario these are all VDD.
	V0 []float64
}

// M returns the number of chain elements (= number of non-rail nodes).
func (ch *Chain) M() int { return len(ch.Elems) }

// Transistors returns the number of transistor elements — the paper's K.
func (ch *Chain) Transistors() int {
	k := 0
	for _, e := range ch.Elems {
		if !e.IsWire() {
			k++
		}
	}
	return k
}

// Validate checks structural invariants before evaluation.
func (ch *Chain) Validate() error {
	m := ch.M()
	if m == 0 {
		return fmt.Errorf("qwm: empty chain")
	}
	if len(ch.Caps) != m || len(ch.V0) != m {
		return fmt.Errorf("qwm: chain with %d elements needs %d caps and initial voltages (have %d, %d)",
			m, m, len(ch.Caps), len(ch.V0))
	}
	if ch.VDD <= 0 {
		return fmt.Errorf("qwm: VDD must be positive")
	}
	k := 0
	for i, e := range ch.Elems {
		if e.IsWire() {
			if e.R <= 0 {
				return fmt.Errorf("qwm: wire element %d with non-positive resistance", i)
			}
			continue
		}
		k++
		if e.W <= 0 {
			return fmt.Errorf("qwm: transistor element %d with non-positive width", i)
		}
		if e.Gate == nil {
			return fmt.Errorf("qwm: transistor element %d without gate waveform", i)
		}
	}
	if k == 0 {
		return fmt.Errorf("qwm: chain has no transistors")
	}
	for i, c := range ch.Caps {
		if c.At(ch.V0[i], ch.VDD, ch.Pol) <= 0 {
			return fmt.Errorf("qwm: node %d has non-positive capacitance", i+1)
		}
	}
	return nil
}

// FoldWave wraps an unfolded waveform as its folded counterpart
// v′(t) = VDD − v(t); used for PMOS chain gate inputs.
type FoldWave struct {
	W   wave.Waveform
	VDD float64
}

// Eval implements wave.Waveform.
func (f FoldWave) Eval(t float64) float64 { return f.VDD - f.W.Eval(t) }

// Span implements wave.Waveform.
func (f FoldWave) Span() (float64, float64) { return f.W.Span() }

// Crossing implements wave.Crosser when the wrapped waveform does, by
// folding the level and flipping the direction.
func (f FoldWave) Crossing(level float64, rising bool) (float64, bool) {
	cr, ok := f.W.(wave.Crosser)
	if !ok {
		return 0, false
	}
	return cr.Crossing(f.VDD-level, !rising)
}

// unfoldAll unfolds every node waveform of a chain. For a PMOS chain the
// unfolded segments of all nodes share one slab.
func unfoldAll(ps []*wave.PWQ, vdd float64, pol mos.Polarity) []*wave.PWQ {
	out := make([]*wave.PWQ, len(ps))
	if pol == mos.NMOS {
		copy(out, ps)
		return out
	}
	n := 0
	for _, p := range ps {
		n += len(p.Segs)
	}
	pw := make([]wave.PWQ, len(ps))
	slab := make([]wave.QuadSeg, n)
	for i, p := range ps {
		segs := slab[:len(p.Segs):len(p.Segs)]
		slab = slab[len(p.Segs):]
		for j, s := range p.Segs {
			segs[j] = wave.QuadSeg{T0: s.T0, T1: s.T1, V0: vdd - s.V0, S: -s.S, A: -s.A}
		}
		pw[i].Segs = segs
		out[i] = &pw[i]
	}
	return out
}
