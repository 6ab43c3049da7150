package stages

import (
	"fmt"

	"qwm/internal/mos"
)

// StackSpec describes a generalized series charge/discharge path: per-device
// widths AND lengths, either polarity, explicit capacitance on every
// internal node, and an optional input ramp. Every gate and stack generator
// builds from one; CustomStack exposes all of it, the randomized space the
// verify harness samples (stack depths 1–10, mixed geometry, node caps).
type StackSpec struct {
	// PMOS selects a charging PMOS path from VDD (output rises); the
	// default is a discharging NMOS path from ground (output falls).
	PMOS bool
	// Widths are the per-device channel widths, rail-side first. The stack
	// depth is len(Widths).
	Widths []float64
	// Lengths are the per-device channel lengths; nil means LMin for every
	// device.
	Lengths []float64
	// NodeCaps holds explicit grounded capacitance per internal node: entry
	// i loads the node above device i (the last entry therefore adds to the
	// output on top of CL). nil means no internal caps.
	NodeCaps []float64
	// CL is the explicit output load.
	CL float64
	// At is the switching instant of the rail-side gate.
	At float64
	// InSlew, when positive, drives the switching gate with a ramp whose
	// 10–90 % transition time is InSlew instead of an ideal step (the full
	// ramp spans 1.25 × InSlew; see circuit.SwitchingInput).
	InSlew float64
}

// CustomStack builds the workload for a StackSpec: the SPICE netlist with
// sources, the extracted stage and longest path, the per-node load map both
// engines share, and the worst-case initial condition (internal nodes
// precharged for NMOS, pre-discharged for PMOS).
func CustomStack(tech *mos.Tech, sp StackSpec) (*Workload, error) {
	name := "nstack"
	if sp.PMOS {
		name = "pstack"
	}
	k := len(sp.Widths)
	return buildSeries(tech, sp, 0, fmt.Sprintf("%s%d", name, k), float64(k)*2.5e-9+2.5*sp.InSlew)
}
