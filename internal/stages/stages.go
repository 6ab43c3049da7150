// Package stages generates the benchmark circuits of the paper's evaluation:
// minimum-size CMOS gates (Table I), randomly sized NMOS transistor stacks
// (Table II), the 6-transistor Manchester-carry-chain worst path (Figs. 7
// and 9), and the wire-loaded memory decoder tree (Figs. 3 and 10). Each
// workload carries everything both engines need — the SPICE netlist, the
// extracted stage and worst path, input waveforms, loads, and initial
// conditions — so QWM and the baseline analyze the identical problem.
package stages

import (
	"fmt"
	"math/rand"

	"qwm/internal/circuit"
	"qwm/internal/mos"
	"qwm/internal/wave"
)

// Workload is one benchmark circuit instance plus its stimulus.
type Workload struct {
	Name    string
	Netlist *circuit.Netlist
	Stage   *circuit.Stage
	Path    *circuit.Path
	Output  string
	Rail    string
	// Inputs maps gate nets to waveforms (also present as netlist sources).
	Inputs map[string]wave.Waveform
	// SwitchAt is the input switching instant delays are measured from.
	SwitchAt float64
	// Loads is extra fixed capacitance per node for the QWM chain builder
	// (the same capacitors appear in the netlist).
	Loads map[string]float64
	// IC is the shared initial condition (unfolded voltages).
	IC map[string]float64
	// TStop is the suggested transient span.
	TStop float64
	// Rising reports the output transition direction.
	Rising bool
}

// finish extracts the stage and worst path and validates the netlist.
func (w *Workload) finish(observe ...string) error {
	if err := w.Netlist.Validate(); err != nil {
		return err
	}
	stages := circuit.ExtractStages(w.Netlist, append([]string{w.Output}, observe...))
	for _, st := range stages {
		for _, o := range st.Outputs {
			if o == circuit.CanonName(w.Output) {
				w.Stage = st
			}
		}
	}
	if w.Stage == nil {
		return fmt.Errorf("stages: output %q not found in any extracted stage", w.Output)
	}
	p, err := circuit.LongestPath(w.Stage, w.Output, w.Rail)
	if err != nil {
		return err
	}
	w.Path = p
	return nil
}

// Inverter builds a minimum-ish CMOS inverter with load cl, switching at
// at seconds (falling output).
func Inverter(tech *mos.Tech, wn, wp, cl, at float64) (*Workload, error) {
	n := &circuit.Netlist{}
	in := wave.Step{At: at, Low: 0, High: tech.VDD}
	n.AddVSource("vvdd", "vdd", "0", wave.DC(tech.VDD))
	n.AddVSource("vin", "in", "0", in)
	n.AddTransistor(&circuit.Transistor{Name: "mn", Kind: circuit.KindNMOS, Drain: "out", Gate: "in", Source: "0", Body: "0", W: wn, L: tech.LMin})
	n.AddTransistor(&circuit.Transistor{Name: "mp", Kind: circuit.KindPMOS, Drain: "out", Gate: "in", Source: "vdd", Body: "vdd", W: wp, L: tech.LMin})
	n.AddCapacitor("cl", "out", "0", cl)
	w := &Workload{
		Name:     "inv",
		Netlist:  n,
		Output:   "out",
		Rail:     circuit.GroundNode,
		Inputs:   map[string]wave.Waveform{"in": in},
		SwitchAt: at,
		Loads:    map[string]float64{"out": cl},
		IC:       map[string]float64{"out": tech.VDD},
		TStop:    2e-9,
	}
	return w, w.finish()
}

// NAND builds an n-input NAND gate: n series NMOS, n parallel PMOS. The
// bottom (rail-side) NMOS input switches; the others are held high, so the
// worst-case falling transition discharges the whole precharged stack.
func NAND(tech *mos.Tech, nIn int, wn, wp, cl, at float64) (*Workload, error) {
	if nIn < 2 {
		return nil, fmt.Errorf("stages: NAND needs at least 2 inputs")
	}
	n := &circuit.Netlist{}
	sw := wave.Step{At: at, Low: 0, High: tech.VDD}
	n.AddVSource("vvdd", "vdd", "0", wave.DC(tech.VDD))
	n.AddVSource("vin0", "in0", "0", sw)
	inputs := map[string]wave.Waveform{"in0": sw}
	ic := map[string]float64{}
	for i := 1; i < nIn; i++ {
		name := fmt.Sprintf("in%d", i)
		n.AddVSource("v"+name, name, "0", wave.DC(tech.VDD))
		inputs[name] = wave.DC(tech.VDD)
	}
	// NMOS stack from ground: in0 at the bottom.
	prev := "0"
	for i := 0; i < nIn; i++ {
		upper := fmt.Sprintf("x%d", i+1)
		if i == nIn-1 {
			upper = "out"
		}
		n.AddTransistor(&circuit.Transistor{
			Name: fmt.Sprintf("mn%d", i), Kind: circuit.KindNMOS,
			Drain: upper, Gate: fmt.Sprintf("in%d", i), Source: prev, Body: "0",
			W: wn, L: tech.LMin,
		})
		ic[upper] = tech.VDD // precharged worst case
		prev = upper
	}
	for i := 0; i < nIn; i++ {
		n.AddTransistor(&circuit.Transistor{
			Name: fmt.Sprintf("mp%d", i), Kind: circuit.KindPMOS,
			Drain: "out", Gate: fmt.Sprintf("in%d", i), Source: "vdd", Body: "vdd",
			W: wp, L: tech.LMin,
		})
	}
	n.AddCapacitor("cl", "out", "0", cl)
	w := &Workload{
		Name:     fmt.Sprintf("nand%d", nIn),
		Netlist:  n,
		Output:   "out",
		Rail:     circuit.GroundNode,
		Inputs:   inputs,
		SwitchAt: at,
		Loads:    map[string]float64{"out": cl},
		IC:       ic,
		TStop:    3e-9,
	}
	return w, w.finish()
}

// NOR builds an n-input NOR gate: n series PMOS from VDD, n parallel NMOS
// to ground. The worst-case rising transition charges the pre-discharged
// PMOS stack when the supply-side input falls (the others are already low).
func NOR(tech *mos.Tech, nIn int, wn, wp, cl, at float64) (*Workload, error) {
	if nIn < 2 {
		return nil, fmt.Errorf("stages: NOR needs at least 2 inputs")
	}
	n := &circuit.Netlist{}
	sw := wave.Step{At: at, Low: tech.VDD, High: 0} // falling input
	n.AddVSource("vvdd", "vdd", "0", wave.DC(tech.VDD))
	n.AddVSource("vin0", "in0", "0", sw)
	inputs := map[string]wave.Waveform{"in0": sw}
	ic := map[string]float64{}
	for i := 1; i < nIn; i++ {
		name := fmt.Sprintf("in%d", i)
		n.AddVSource("v"+name, name, "0", wave.DC(0))
		inputs[name] = wave.DC(0)
	}
	// PMOS stack from VDD: in0 at the top (supply side).
	prev := "vdd"
	for i := 0; i < nIn; i++ {
		lower := fmt.Sprintf("y%d", i+1)
		if i == nIn-1 {
			lower = "out"
		}
		n.AddTransistor(&circuit.Transistor{
			Name: fmt.Sprintf("mp%d", i), Kind: circuit.KindPMOS,
			Drain: lower, Gate: fmt.Sprintf("in%d", i), Source: prev, Body: "vdd",
			W: wp, L: tech.LMin,
		})
		ic[lower] = 0 // pre-discharged worst case
		prev = lower
	}
	for i := 0; i < nIn; i++ {
		n.AddTransistor(&circuit.Transistor{
			Name: fmt.Sprintf("mn%d", i), Kind: circuit.KindNMOS,
			Drain: "out", Gate: fmt.Sprintf("in%d", i), Source: "0", Body: "0",
			W: wn, L: tech.LMin,
		})
	}
	n.AddCapacitor("cl", "out", "0", cl)
	w := &Workload{
		Name:     fmt.Sprintf("nor%d", nIn),
		Netlist:  n,
		Output:   "out",
		Rail:     circuit.SupplyNode,
		Inputs:   inputs,
		SwitchAt: at,
		Loads:    map[string]float64{"out": cl},
		IC:       ic,
		TStop:    float64(nIn) * 2.5e-9,
		Rising:   true,
	}
	return w, w.finish()
}

// Stack builds a pure NMOS discharge stack with the given widths (bottom
// first) and an output load — the paper's Table II workload shape. All
// internal nodes start precharged to VDD; the bottom gate switches at `at`.
func Stack(tech *mos.Tech, widths []float64, cl, at float64) (*Workload, error) {
	k := len(widths)
	if k < 1 {
		return nil, fmt.Errorf("stages: stack needs at least one transistor")
	}
	n := &circuit.Netlist{}
	sw := wave.Step{At: at, Low: 0, High: tech.VDD}
	n.AddVSource("vvdd", "vdd", "0", wave.DC(tech.VDD))
	n.AddVSource("vin0", "in0", "0", sw)
	inputs := map[string]wave.Waveform{"in0": sw}
	ic := map[string]float64{}
	prev := "0"
	for i, wd := range widths {
		upper := fmt.Sprintf("x%d", i+1)
		if i == k-1 {
			upper = "out"
		}
		gate := fmt.Sprintf("in%d", i)
		if i > 0 {
			n.AddVSource("v"+gate, gate, "0", wave.DC(tech.VDD))
			inputs[gate] = wave.DC(tech.VDD)
		}
		n.AddTransistor(&circuit.Transistor{
			Name: fmt.Sprintf("mn%d", i), Kind: circuit.KindNMOS,
			Drain: upper, Gate: gate, Source: prev, Body: "0",
			W: wd, L: tech.LMin,
		})
		ic[upper] = tech.VDD
		prev = upper
	}
	n.AddCapacitor("cl", "out", "0", cl)
	w := &Workload{
		Name:     fmt.Sprintf("stack%d", k),
		Netlist:  n,
		Output:   "out",
		Rail:     circuit.GroundNode,
		Inputs:   inputs,
		SwitchAt: at,
		Loads:    map[string]float64{"out": cl},
		IC:       ic,
		TStop:    float64(k) * 1.5e-9,
	}
	return w, w.finish()
}

// RandomStack builds a K-transistor stack with deterministic pseudo-random
// widths and load (paper Table II: "randomly chosen transistor widths").
func RandomStack(tech *mos.Tech, k int, seed int64) (*Workload, error) {
	r := rand.New(rand.NewSource(seed))
	widths := make([]float64, k)
	for i := range widths {
		widths[i] = (0.8 + 3.2*r.Float64()) * 1e-6
	}
	cl := (5 + 20*r.Float64()) * 1e-15
	w, err := Stack(tech, widths, cl, 0)
	if err != nil {
		return nil, err
	}
	w.Name = fmt.Sprintf("stack%d-s%d", k, seed)
	return w, nil
}

// TableI builds the paper's Table I circuits: the minimum-size inverter and
// 2-, 3- and 4-input NANDs (0.8 µm NMOS, 1.6 µm PMOS, 15 fF load).
func TableI(tech *mos.Tech) ([]*Workload, error) {
	inv, err := Inverter(tech, 0.8e-6, 1.6e-6, 15e-15, 0)
	if err != nil {
		return nil, err
	}
	ws := []*Workload{inv}
	for _, n := range []int{2, 3, 4} {
		g, err := NAND(tech, n, 0.8e-6, 1.6e-6, 15e-15, 0)
		if err != nil {
			return nil, err
		}
		ws = append(ws, g)
	}
	return ws, nil
}

// TableII builds the paper's Table II circuits: random stacks of length
// 5–10, three width configurations each, named "K/cktN".
func TableII(tech *mos.Tech) ([]*Workload, error) {
	var ws []*Workload
	for k := 5; k <= 10; k++ {
		for cfg := 0; cfg < 3; cfg++ {
			w, err := RandomStack(tech, k, int64(k*10+cfg))
			if err != nil {
				return nil, err
			}
			w.Name = fmt.Sprintf("%d/ckt%d", k, cfg+1)
			ws = append(ws, w)
		}
	}
	return ws, nil
}

// CarryChainStack builds the 6-NMOS stack of the Manchester carry chain's
// longest path (paper Figs. 7 and 9): uniform 2 µm devices with a modest
// output load, all nodes precharged by the chain's φ precharge devices.
func CarryChainStack(tech *mos.Tech) (*Workload, error) {
	widths := []float64{2e-6, 2e-6, 2e-6, 2e-6, 2e-6, 2e-6}
	w, err := Stack(tech, widths, 12e-15, 0)
	if err != nil {
		return nil, err
	}
	w.Name = "carry6"
	return w, nil
}
