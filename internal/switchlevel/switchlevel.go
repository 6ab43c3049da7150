// Package switchlevel implements the Crystal/IRSIM-class baseline from the
// paper's related work (§II): each conducting transistor is replaced by an
// effective switch resistance, the charge/discharge path becomes an RC
// tree, and the delay estimate is the Elmore metric. Fast and crude — the
// accuracy gap versus QWM and SPICE on the same workloads is exactly the
// motivation for transistor-level waveform methods.
package switchlevel

import (
	"fmt"

	"qwm/internal/awe"
	"qwm/internal/circuit"
	"qwm/internal/mos"
)

// EffectiveResistance returns the switch-level resistance of a device of
// width w: the classic large-signal average of VDD/I across the output
// swing, R ≈ (3/4)·VDD / Idsat(Vgs = Vds = VDD), which folds the
// saturation-to-triode trajectory into one number.
func EffectiveResistance(p *mos.Params, tech *mos.Tech, w, l float64) float64 {
	var iv mos.IV
	if p.Pol == mos.PMOS {
		iv = p.Ids(w, l, 0, 0, tech.VDD, tech.VDD)
	} else {
		iv = p.Ids(w, l, tech.VDD, tech.VDD, 0, 0)
	}
	i := iv.I
	if i < 0 {
		i = -i
	}
	if i <= 0 {
		return 1e12
	}
	return 0.75 * tech.VDD / i
}

// Delay estimates the 50 % propagation delay to out along path, a series
// path of stage st with the explicit node loads, by reducing the path to an
// RC tree and evaluating the Elmore metric scaled by ln 2 (the single-pole
// 50 % point).
func Delay(st *circuit.Stage, path *circuit.Path, out string, loads map[string]float64, tech *mos.Tech) (float64, error) {
	tree := awe.NewRCTree("rail")
	prev := "rail"
	for _, pe := range path.Elems {
		var r float64
		switch pe.Edge.Kind {
		case circuit.KindWire:
			r = pe.Edge.R
		case circuit.KindNMOS:
			r = EffectiveResistance(&tech.N, tech, pe.Edge.W, pe.Edge.L)
		case circuit.KindPMOS:
			r = EffectiveResistance(&tech.P, tech, pe.Edge.W, pe.Edge.L)
		default:
			return 0, fmt.Errorf("switchlevel: unsupported element kind %v", pe.Edge.Kind)
		}
		name := pe.Upper
		if err := tree.AddNode(name, prev, r, nodeCap(st, loads, tech, name)); err != nil {
			return 0, err
		}
		prev = name
	}
	d, err := tree.Elmore(circuit.CanonName(out))
	if err != nil {
		return 0, err
	}
	// Elmore is the first moment; for the 50 % point of an RC-dominated
	// response, scale by ln 2 as for a single pole.
	return d * 0.69314718056, nil
}

// nodeCap sums the explicit loads plus the parasitics of every device
// terminal on the node — the QWM builder's inventory, linearized with each
// junction at mid-swing bias (switch-level models are linear).
func nodeCap(st *circuit.Stage, loads map[string]float64, tech *mos.Tech, node string) float64 {
	c := loads[node]
	for _, t := range st.AppendTerminals(nil, tech, node) {
		c += t.P.JunctionCap(t.Junc, tech.VDD/2)
		c += t.Fixed
	}
	return c
}
