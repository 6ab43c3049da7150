package circuit

import "qwm/internal/mos"

// Terminal is one device channel terminal on a stage node and the charge it
// puts there: the paper's Eq. 1 charges a path node with the junction,
// overlap and channel capacitance of every device touching it
// (Definition 2). Every timing tier reads a node's parasitics from
// Stage.AppendTerminals, so they all see the same devices and junctions.
type Terminal struct {
	Edge *StageEdge  // the device
	P    *mos.Params // its polarity's model parameters
	// Junc is the terminal's diffusion junction: the transistor's AD/PD
	// (drain) or AS/PS (source) when given, else the geometry W implies.
	Junc mos.Junction
	// Fixed is the terminal's bias-independent capacitance: the gate
	// overlap plus the source half of the channel capacitance.
	Fixed float64
}

// AppendTerminals appends to dst every device channel terminal on node, in
// stage-edge order, and returns the extended slice. Wires have none; a
// device with both channel ends on node is listed once, with its drain
// junction.
func (st *Stage) AppendTerminals(dst []Terminal, tech *mos.Tech, node string) []Terminal {
	for _, e := range st.Edges {
		if e.Kind != KindWire && (e.Src == node || e.Snk == node) {
			dst = append(dst, e.Terminal(tech, node))
		}
	}
	return dst
}

// Terminal returns transistor edge e's channel terminal on node, which must
// be one of e's channel ends.
func (e *StageEdge) Terminal(tech *mos.Tech, node string) Terminal {
	p := &tech.N
	if e.Kind == KindPMOS {
		p = &tech.P
	}
	var j mos.Junction
	if d := e.Ref; d != nil {
		if d.Drain == node {
			j = d.DrainJunc
		} else {
			j = d.SourceJunc
		}
	}
	if j == (mos.Junction{}) {
		j = p.DefaultJunction(e.W)
	}
	srcHalf, _ := p.ChannelCapSplit(e.W, e.L)
	return Terminal{Edge: e, P: p, Junc: j, Fixed: p.OverlapCap(e.W) + srcHalf}
}
