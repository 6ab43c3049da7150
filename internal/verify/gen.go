// Package verify is the differential-verification subsystem: it generates
// seed-reproducible random stage netlists and cross-checks the QWM timing
// engine three ways — per-stage delay/slew against the in-repo SPICE-class
// transient baseline (the paper's own validation methodology), cached
// against uncached full sta.AnalyzeContext runs, and serial against
// parallel runs. The generated shapes include shared-identity/different-load
// instances specifically built to trip cache-aliasing bugs: a cache key that
// omits any timing-relevant input (as the load map once was) fails the
// harness immediately instead of silently corrupting downstream arrivals.
package verify

import (
	"fmt"
	"math/rand"

	"qwm/internal/circuit"
	"qwm/internal/mos"
	"qwm/internal/sta"
	"qwm/internal/stages"
)

// StageCase is one generated single-stage differential case: a random
// series stack evaluated by both QWM and SPICE under identical devices,
// stimulus, loads and initial conditions.
type StageCase struct {
	Name string
	K    int
	W    *stages.Workload
}

// GenStageCase draws one random stack from r: depth 1–10, NMOS or PMOS
// path, randomized W (and, half the time, per-device L), explicit caps on a
// random subset of internal nodes, a random output load, and occasionally a
// ramped input edge. Identical (tech, r-state) always yields the identical
// case — the harness is seed-reproducible end to end.
func GenStageCase(tech *mos.Tech, r *rand.Rand, i int) (*StageCase, error) {
	k := 1 + r.Intn(10)
	pmos := r.Float64() < 0.4

	widths := make([]float64, k)
	for j := range widths {
		if pmos {
			widths[j] = (1.6 + 4.8*r.Float64()) * 1e-6
		} else {
			widths[j] = (0.8 + 3.2*r.Float64()) * 1e-6
		}
	}
	var lengths []float64
	if r.Float64() < 0.5 {
		lengths = make([]float64, k)
		for j := range lengths {
			lengths[j] = tech.LMin * (1 + 0.6*r.Float64())
		}
	}
	nodeCaps := make([]float64, k)
	for j := range nodeCaps {
		if r.Float64() < 0.4 {
			nodeCaps[j] = (0.3 + 2.7*r.Float64()) * 1e-15
		}
	}
	cl := (2 + 20*r.Float64()) * 1e-15
	inSlew := 0.0
	if r.Float64() < 0.3 {
		inSlew = (20 + 100*r.Float64()) * 1e-12
	}

	w, err := stages.CustomStack(tech, stages.StackSpec{
		PMOS: pmos, Widths: widths, Lengths: lengths,
		NodeCaps: nodeCaps, CL: cl, InSlew: inSlew,
	})
	if err != nil {
		return nil, err
	}
	c := &StageCase{Name: fmt.Sprintf("case%03d-%s", i, w.Name), K: k, W: w}
	return c, nil
}

// AnalyzeCase is one generated multi-stage netlist for the full-Analyze
// differentials (cached-vs-uncached and serial-vs-parallel): a driver chain
// fanning out into geometrically identical gates with different loads.
type AnalyzeCase struct {
	Name    string
	Netlist *circuit.Netlist
	Primary map[string]sta.Arrival
	Outputs []string
}

// treeParams are the structural knobs of one fanout tree, drawn separately
// from the load values so sibling pairs can share identity but not loads.
type treeParams struct {
	depth   int // root inverter chain length (1–3)
	fan     int // identical fanout inverters (2–4)
	wn, wp  float64
	arrival float64
	slew    float64
}

func drawTreeParams(r *rand.Rand) treeParams {
	return treeParams{
		depth:   1 + r.Intn(3),
		fan:     2 + r.Intn(3),
		wn:      (0.9 + 1.6*r.Float64()) * 1e-6,
		wp:      (1.8 + 3.2*r.Float64()) * 1e-6,
		arrival: r.Float64() * 120e-12,
		slew:    r.Float64() * 90e-12,
	}
}

// buildTree constructs the fanout-tree netlist for p with the given
// per-branch output loads (len == p.fan). Node names depend only on p, so
// two trees with equal p and different loads are structurally identical
// stages driving different fanout — the aliasing-bug shape.
func buildTree(tech *mos.Tech, p treeParams, loads []float64) *AnalyzeCase {
	nl := &circuit.Netlist{}
	addInv := func(tag, in, out string, wn, wp float64) {
		nl.AddTransistor(&circuit.Transistor{Name: "mn" + tag, Kind: circuit.KindNMOS, Drain: out, Gate: in, Source: "0", Body: "0", W: wn, L: tech.LMin})
		nl.AddTransistor(&circuit.Transistor{Name: "mp" + tag, Kind: circuit.KindPMOS, Drain: out, Gate: in, Source: "vdd", Body: "vdd", W: wp, L: tech.LMin})
	}
	prev := "in0"
	for d := 0; d < p.depth; d++ {
		out := fmt.Sprintf("t%d", d+1)
		addInv(fmt.Sprintf("d%d", d), prev, out, p.wn, p.wp)
		prev = out
	}
	outs := make([]string, p.fan)
	for f := 0; f < p.fan; f++ {
		out := fmt.Sprintf("o%d", f+1)
		addInv(fmt.Sprintf("f%d", f), prev, out, p.wn, p.wp)
		nl.AddCapacitor(fmt.Sprintf("c%d", f+1), out, "0", loads[f])
		outs[f] = out
	}
	return &AnalyzeCase{
		Netlist: nl,
		Primary: map[string]sta.Arrival{"in0": {
			Rise: p.arrival, Fall: p.arrival,
			RiseSlew: p.slew, FallSlew: p.slew,
		}},
		Outputs: outs,
	}
}

// GenAnalyzeCase draws a fanout tree whose identical sibling gates carry
// distinct random loads spanning 1–60 fF.
func GenAnalyzeCase(tech *mos.Tech, r *rand.Rand, i int) *AnalyzeCase {
	p := drawTreeParams(r)
	loads := make([]float64, p.fan)
	for j := range loads {
		loads[j] = (1 + 59*r.Float64()) * 1e-15
	}
	c := buildTree(tech, p, loads)
	c.Name = fmt.Sprintf("tree%03d-d%d-f%d", i, p.depth, p.fan)
	return c
}

// SiblingPair is two netlists with identical structure and node names whose
// only difference is the fanout loads — the exact shape that aliased under
// a load-blind delay-cache key when analyzed back to back on one shared
// analyzer.
type SiblingPair struct {
	Name     string
	A, B     *AnalyzeCase
	LoadA    float64
	LoadB    float64
	Distinct bool // loads differ enough that arrivals must differ
}

// GenSiblingPair draws one structure and two load assignments: A uses light
// loads, B scales every branch load by 8–40×.
func GenSiblingPair(tech *mos.Tech, r *rand.Rand, i int) *SiblingPair {
	p := drawTreeParams(r)
	light := make([]float64, p.fan)
	heavy := make([]float64, p.fan)
	scale := 8 + 32*r.Float64()
	for j := range light {
		light[j] = (1 + 4*r.Float64()) * 1e-15
		heavy[j] = light[j] * scale
	}
	a := buildTree(tech, p, light)
	b := buildTree(tech, p, heavy)
	name := fmt.Sprintf("pair%03d-d%d-f%d", i, p.depth, p.fan)
	a.Name, b.Name = name+"-light", name+"-heavy"
	return &SiblingPair{Name: name, A: a, B: b, LoadA: light[0], LoadB: heavy[0], Distinct: true}
}
