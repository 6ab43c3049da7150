package qwm

import (
	"fmt"

	"qwm/internal/circuit"
	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/wave"
)

// BuildInput collects everything needed to turn a stage path into a QWM
// chain: the characterized device library, the path and its surrounding
// stage (for off-path parasitics), the input waveforms, explicit loads, and
// optional initial conditions.
type BuildInput struct {
	Tech  *mos.Tech
	Lib   *devmodel.Library
	Stage *circuit.Stage
	Path  *circuit.Path
	// Inputs maps gate nets to their (unfolded) waveforms. Every transistor
	// on the path must have one; off-path transistors are only capacitance.
	Inputs map[string]wave.Waveform
	// Loads maps node names to extra fixed capacitance (explicit load caps,
	// wire capacitance, fanout gate capacitance).
	Loads map[string]float64
	// V0 maps node names to unfolded initial voltages. Nodes not listed
	// start precharged (at VDD for a discharge path, at 0 for a charge
	// path) — the worst-case STA scenario of paper Fig. 6.
	V0 map[string]float64
	// Analytic, when true, bypasses the characterized table and queries the
	// golden model directly (the table-vs-analytic ablation).
	Analytic bool
}

// Build assembles the QWM chain for a stage path. All transistors on the
// path must share one polarity consistent with the rail (NMOS to ground,
// PMOS to VDD).
func Build(bi BuildInput) (*Chain, error) {
	if bi.Tech == nil || bi.Path == nil || bi.Stage == nil {
		return nil, fmt.Errorf("qwm: Build requires Tech, Stage and Path")
	}
	if bi.Lib == nil && !bi.Analytic {
		return nil, fmt.Errorf("qwm: Build requires a device library (or Analytic mode)")
	}
	pol, err := pathPolarity(bi.Path)
	if err != nil {
		return nil, err
	}
	vdd := bi.Tech.VDD
	// One slab each for the elements, node capacitances, initial voltages
	// and folded gates; a node's junctions share a slab of two slots, one per
	// polarity's parameters, the most addJunction ever folds them into.
	m := len(bi.Path.Elems)
	elems := make([]Elem, m)
	ch := &Chain{Pol: pol, VDD: vdd, Elems: make([]*Elem, m), Caps: make([]NodeCap, m), V0: make([]float64, m)}
	var folds []FoldWave
	if pol == mos.PMOS {
		folds = make([]FoldWave, m)
	}

	model := func(l float64) (devmodel.IVModel, error) {
		p := &bi.Tech.N
		if pol == mos.PMOS {
			p = &bi.Tech.P
		}
		if bi.Analytic {
			return devmodel.NewAnalytic(p, bi.Tech, l), nil
		}
		return bi.Lib.Table(pol, l)
	}

	for i, pe := range bi.Path.Elems {
		ch.Elems[i] = &elems[i]
		edge := pe.Edge
		if edge.Kind == circuit.KindWire {
			elems[i] = Elem{R: edge.R}
			continue
		}
		mdl, err := model(edge.L)
		if err != nil {
			return nil, err
		}
		g, ok := bi.Inputs[edge.Gate]
		if !ok {
			return nil, fmt.Errorf("qwm: no input waveform for gate net %q", edge.Gate)
		}
		if pol == mos.PMOS {
			folds[i] = FoldWave{W: g, VDD: vdd}
			g = &folds[i]
		}
		elems[i] = Elem{Model: mdl, W: edge.W, Gate: g}
	}

	// In table mode junction C and Q come from the library as well, when it
	// was characterized for this technology's parameters.
	var jtab [2]*devmodel.JunctionTable // indexed by mos.Polarity
	if !bi.Analytic {
		for pol, p := range [2]*mos.Params{&bi.Tech.N, &bi.Tech.P} {
			if t := bi.Lib.Junction(mos.Polarity(pol)); *t.Params() == *p {
				jtab[pol] = t
			}
		}
	}

	// Per-node capacitance: every device terminal on the node, on-path and
	// off-path alike, contributes its junction (voltage dependent) and its
	// fixed overlap and channel share. Explicit loads are added as fixed.
	// Node k (1-based) is Elems[k-1].Upper.
	junctions := make([]JunctionAt, 2*m)
	var buf [8]circuit.Terminal // a node rarely has more; they spill to the heap
	terms := buf[:0]
	for i, pe := range bi.Path.Elems {
		name := pe.Upper
		nc := &ch.Caps[i]
		*nc = NodeCap{Fixed: bi.Loads[name], Junctions: junctions[2*i : 2*i : 2*i+2]}
		terms = bi.Stage.AppendTerminals(terms[:0], bi.Tech, name)
		for _, t := range terms {
			nc.addJunction(t.P, t.Junc, jtab[t.P.Pol])
			nc.Fixed += t.Fixed
		}

		v0 := vdd // folded precharge default
		if uv, ok := bi.V0[name]; ok {
			if pol == mos.PMOS {
				v0 = vdd - uv
			} else {
				v0 = uv
			}
		}
		ch.V0[i] = v0
	}
	return ch, ch.Validate()
}

func pathPolarity(p *circuit.Path) (mos.Polarity, error) {
	want := mos.NMOS
	if circuit.CanonName(p.Rail) == circuit.SupplyNode {
		want = mos.PMOS
	}
	for _, pe := range p.Elems {
		switch pe.Edge.Kind {
		case circuit.KindWire:
		case circuit.KindNMOS:
			if want != mos.NMOS {
				return 0, fmt.Errorf("qwm: NMOS device on a pull-up path")
			}
		case circuit.KindPMOS:
			if want != mos.PMOS {
				return 0, fmt.Errorf("qwm: PMOS device on a pull-down path")
			}
		default:
			return 0, fmt.Errorf("qwm: unsupported path element kind %v", pe.Edge.Kind)
		}
	}
	return want, nil
}
