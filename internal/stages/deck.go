package stages

import (
	"fmt"

	"qwm/internal/circuit"
	"qwm/internal/netlist"
	"qwm/internal/wave"
)

// FromDeck converts a parsed SPICE deck into a Workload for the given
// output node and rail, wiring source waveforms to gate nets, explicit
// grounded capacitors to node loads, and .ic values to the shared initial
// condition. The switching instant is the earliest vdd/2 crossing of any
// input source (0 when none switch).
func FromDeck(d *netlist.Deck, output, rail string, vdd, tstop float64) (*Workload, error) {
	output = circuit.CanonName(output)
	rail = circuit.CanonName(rail)
	n := d.Netlist

	inputs := map[string]wave.Waveform{}
	for _, v := range n.VSources {
		if v.B != circuit.GroundNode {
			return nil, fmt.Errorf("stages: source %s is not ground-referenced", v.Name)
		}
		if v.Wave == nil {
			inputs[v.A] = wave.DC(0)
			continue
		}
		inputs[v.A] = v.Wave
	}

	loads := map[string]float64{}
	for _, c := range n.Capacitors {
		switch {
		case c.B == circuit.GroundNode:
			loads[c.A] += c.C
		case c.A == circuit.GroundNode:
			loads[c.B] += c.C
		default:
			// Floating caps load both ends (worst-case grounded equivalent).
			loads[c.A] += c.C
			loads[c.B] += c.C
		}
	}

	switchAt := 0.0
	found := false
	for _, w := range inputs {
		cr, ok := w.(wave.Crosser)
		if !ok {
			continue
		}
		for _, rising := range []bool{true, false} {
			if tc, hit := cr.Crossing(vdd/2, rising); hit && (!found || tc < switchAt) {
				switchAt, found = tc, true
			}
		}
	}
	if tstop == 0 {
		tstop = d.TranStop
	}
	if tstop == 0 {
		tstop = 5e-9
	}

	wkl := &Workload{
		Name:     d.Title,
		Netlist:  n,
		Output:   output,
		Rail:     rail,
		Inputs:   inputs,
		SwitchAt: switchAt,
		Loads:    loads,
		IC:       d.IC,
		TStop:    tstop,
		Rising:   rail == circuit.SupplyNode,
	}
	return wkl, wkl.finish()
}
