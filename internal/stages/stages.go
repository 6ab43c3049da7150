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

// buildSeries builds the workload shape every reference gate and stack
// shares: the series path of sp from its rail to "out", devices rail side
// first over internal nodes x1, x2, …, driven by circuit.SwitchingInput —
// gate in0 switches, in1, in2, … are held on, every path node starts at the
// on-level — with sp's node caps and output load. A positive pull adds the
// complementary network: one device of width pull per path gate, in
// parallel from the other rail to "out". Devices are named mn0, mn1, … or
// mp0, mp1, … by polarity. Each element kind is added in a fixed order —
// vvdd, vin0, the held inputs; path devices rail side first, then the
// pull devices; node caps in path order, then cl — which fixes the
// simulator's element order.
func buildSeries(tech *mos.Tech, sp StackSpec, pull float64, name string, tstop float64) (*Workload, error) {
	k := len(sp.Widths)
	if k < 1 {
		return nil, fmt.Errorf("stages: %s has no transistors", name)
	}
	if sp.Lengths != nil && len(sp.Lengths) != k {
		return nil, fmt.Errorf("stages: %d lengths for %d widths", len(sp.Lengths), k)
	}
	if sp.NodeCaps != nil && len(sp.NodeCaps) != k {
		return nil, fmt.Errorf("stages: %d node caps for %d devices", len(sp.NodeCaps), k)
	}
	kind, pullKind := circuit.KindNMOS, circuit.KindPMOS
	rail, other := circuit.GroundNode, circuit.SupplyNode
	prefix, pullPrefix := "mn", "mp"
	if sp.PMOS {
		kind, pullKind = pullKind, kind
		rail, other = other, rail
		prefix, pullPrefix = pullPrefix, prefix
	}
	sw, on, ref := circuit.SwitchingInput(tech.VDD, rail, sp.At, sp.InSlew)

	n := &circuit.Netlist{}
	n.AddVSource("vvdd", "vdd", "0", wave.DC(tech.VDD))
	inputs := make(map[string]wave.Waveform, k)
	gates := make([]string, k)
	for i := range gates {
		gates[i] = fmt.Sprintf("in%d", i)
		in := wave.Waveform(wave.DC(on))
		if i == 0 {
			in = sw
		}
		n.AddVSource("v"+gates[i], gates[i], "0", in)
		inputs[gates[i]] = in
	}
	ic := map[string]float64{}
	loads := map[string]float64{}
	prev := rail
	for i, wd := range sp.Widths {
		upper := fmt.Sprintf("x%d", i+1)
		if i == k-1 {
			upper = "out"
		}
		l := tech.LMin
		if sp.Lengths != nil {
			l = sp.Lengths[i]
		}
		n.AddTransistor(&circuit.Transistor{
			Name: fmt.Sprintf("%s%d", prefix, i), Kind: kind,
			Drain: upper, Gate: gates[i], Source: prev, Body: rail,
			W: wd, L: l,
		})
		ic[upper] = on
		if sp.NodeCaps != nil && sp.NodeCaps[i] > 0 {
			n.AddCapacitor(fmt.Sprintf("cn%d", i), upper, "0", sp.NodeCaps[i])
			loads[upper] += sp.NodeCaps[i]
		}
		prev = upper
	}
	if pull > 0 {
		for i, g := range gates {
			n.AddTransistor(&circuit.Transistor{
				Name: fmt.Sprintf("%s%d", pullPrefix, i), Kind: pullKind,
				Drain: "out", Gate: g, Source: other, Body: other,
				W: pull, L: tech.LMin,
			})
		}
	}
	if sp.CL > 0 {
		n.AddCapacitor("cl", "out", "0", sp.CL)
		loads["out"] += sp.CL
	}
	w := &Workload{
		Name:     name,
		Netlist:  n,
		Output:   "out",
		Rail:     rail,
		Inputs:   inputs,
		SwitchAt: ref,
		Loads:    loads,
		IC:       ic,
		TStop:    tstop,
		Rising:   sp.PMOS,
	}
	return w, w.finish()
}

// uniform returns n copies of w.
func uniform(w float64, n int) []float64 {
	ws := make([]float64, n)
	for i := range ws {
		ws[i] = w
	}
	return ws
}

// Inverter builds a CMOS inverter with load cl whose input rises at at
// seconds (falling output).
func Inverter(tech *mos.Tech, wn, wp, cl, at float64) (*Workload, error) {
	return buildSeries(tech, StackSpec{Widths: []float64{wn}, CL: cl, At: at}, wp, "inv", 2e-9)
}

// NAND builds an n-input NAND gate: n series NMOS, n parallel PMOS. The
// bottom (rail-side) NMOS input switches; the others are held high, so the
// worst-case falling transition discharges the whole precharged stack.
func NAND(tech *mos.Tech, nIn int, wn, wp, cl, at float64) (*Workload, error) {
	if nIn < 2 {
		return nil, fmt.Errorf("stages: NAND needs at least 2 inputs")
	}
	return buildSeries(tech, StackSpec{Widths: uniform(wn, nIn), CL: cl, At: at}, wp, fmt.Sprintf("nand%d", nIn), 3e-9)
}

// NOR builds an n-input NOR gate: n series PMOS from VDD, n parallel NMOS
// to ground. The worst-case rising transition charges the pre-discharged
// PMOS stack when the supply-side input falls (the others are already low).
func NOR(tech *mos.Tech, nIn int, wn, wp, cl, at float64) (*Workload, error) {
	if nIn < 2 {
		return nil, fmt.Errorf("stages: NOR needs at least 2 inputs")
	}
	return buildSeries(tech, StackSpec{PMOS: true, Widths: uniform(wp, nIn), CL: cl, At: at}, wn, fmt.Sprintf("nor%d", nIn), float64(nIn)*2.5e-9)
}

// Stack builds a pure NMOS discharge stack with the given widths (bottom
// first) and an output load — the paper's Table II workload shape. All
// internal nodes start precharged to VDD; the bottom gate switches at `at`.
func Stack(tech *mos.Tech, widths []float64, cl, at float64) (*Workload, error) {
	return buildSeries(tech, StackSpec{Widths: widths, CL: cl, At: at}, 0, fmt.Sprintf("stack%d", len(widths)), float64(len(widths))*1.5e-9)
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
