// Package spice is the baseline transient simulator this reproduction
// measures QWM against — the stand-in for Hspice. It assembles a
// modified-nodal-analysis system over the golden mos device model and
// integrates it with trapezoidal companion models, at a fixed step or under
// local-truncation-error step control, running damped Newton–Raphson at
// every time point (the expensive inner loop the paper's method
// eliminates).
package spice

import (
	"fmt"
	"math"

	"qwm/internal/circuit"
	"qwm/internal/la"
	"qwm/internal/mos"
	"qwm/internal/wave"
)

// Newton settings of every transient time point.
const (
	maxNR = 60    // iterations per time point
	gmin  = 1e-12 // convergence-aid conductance from every node to ground (S)
)

// Options configures a fixed-step transient analysis.
type Options struct {
	TStop float64
	Step  float64
	// IC, when non-nil, supplies initial node voltages ("use initial
	// conditions" mode). Nodes driven by sources take the source value at
	// t = 0; remaining unspecified nodes start at 0. When nil, a DC
	// operating point at t = 0 provides the start state.
	IC map[string]float64
	// RecordNodes limits which node waveforms are stored (nil = all).
	RecordNodes []string
}

// Stats reports the work a transient analysis performed.
type Stats struct {
	Steps        int
	NRIterations int
	NonConverged int // time points where NR hit its iteration budget
}

// Result holds the sampled node waveforms of a transient analysis.
type Result struct {
	T     []float64
	V     map[string][]float64
	Stats Stats
}

// Waveform returns the PWL waveform of a node (which must have been
// recorded).
func (r *Result) Waveform(node string) (*wave.PWL, error) {
	node = circuit.CanonName(node)
	v, ok := r.V[node]
	if !ok {
		return nil, fmt.Errorf("spice: node %q not recorded", node)
	}
	return wave.NewPWL(r.T, v)
}

// Simulator is a compiled netlist ready for analysis.
type Simulator struct {
	nodeNames []string
	idx       map[string]int
	n         int // total unknowns: nodes + source branches
	elems     []element
	charges   []*chargeElem // the elements carrying integration history
	vdd       float64
}

// New compiles a netlist against a technology. Every transistor contributes
// its junction charges (drain/source to body), gate overlap capacitances,
// and a split intrinsic channel capacitance — the voltage-dependent
// parasitics of the paper's Definition 2.
func New(n *circuit.Netlist, tech *mos.Tech) (*Simulator, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{idx: map[string]int{circuit.GroundNode: -1}, vdd: tech.VDD}
	for _, name := range n.Nodes() {
		if name == circuit.GroundNode {
			continue
		}
		s.idx[name] = len(s.nodeNames)
		s.nodeNames = append(s.nodeNames, name)
	}
	br := len(s.nodeNames)
	for _, v := range n.VSources {
		s.elems = append(s.elems, &vsrcElem{a: s.idx[v.A], b: s.idx[v.B], br: br, wave: v.Wave})
		br++
	}
	s.n = br

	for _, r := range n.Resistors {
		s.elems = append(s.elems, &resistorElem{a: s.idx[r.A], b: s.idx[r.B], g: 1 / r.R})
	}
	for _, c := range n.Capacitors {
		s.addCharge(s.idx[c.A], s.idx[c.B], linearQ(c.C))
	}
	for _, t := range n.Transistors {
		p := &tech.N
		if t.Kind == circuit.KindPMOS {
			p = &tech.P
		}
		d, g, src, b := s.idx[t.Drain], s.idx[t.Gate], s.idx[t.Source], s.idx[t.Body]
		s.elems = append(s.elems, &mosElem{d: d, g: g, s: src, b: b, p: p, w: t.W, l: t.L})
		dj := t.DrainJunc
		if dj == (mos.Junction{}) {
			dj = p.DefaultJunction(t.W)
		}
		sj := t.SourceJunc
		if sj == (mos.Junction{}) {
			sj = p.DefaultJunction(t.W)
		}
		s.addCharge(d, b, junctionQ(p, dj))
		s.addCharge(src, b, junctionQ(p, sj))
		s.addCharge(g, d, linearQ(p.OverlapCap(t.W)))
		s.addCharge(g, src, linearQ(p.CGSO*t.W))
		cs, cd := p.ChannelCapSplit(t.W, t.L)
		s.addCharge(g, src, linearQ(cs))
		s.addCharge(g, d, linearQ(cd))
	}
	return s, nil
}

// addCharge appends a charge element between nodes a and b.
func (s *Simulator) addCharge(a, b int, qfn func(float64) (float64, float64)) {
	e := &chargeElem{a: a, b: b, qfn: qfn}
	s.elems = append(s.elems, e)
	s.charges = append(s.charges, e)
}

// newCtx returns a Newton context sized for the simulator's unknowns.
func (s *Simulator) newCtx() *ctx {
	return &ctx{x: make([]float64, s.n), f: make([]float64, s.n), jac: la.NewMatrix(s.n, s.n)}
}

// assemble zeroes and fills the residual and Jacobian at iterate x.
func (s *Simulator) assemble(c *ctx, gmin float64) {
	for i := range c.f {
		c.f[i] = 0
	}
	c.jac.Zero()
	for _, e := range s.elems {
		e.stamp(c)
	}
	for i := 0; i < len(s.nodeNames); i++ {
		c.f[i] += gmin * c.x[i]
		c.jac.Add(i, i, gmin)
	}
}

// solvePoint runs damped Newton at one evaluation context, starting from the
// values already in c.x. It returns the iteration count and whether the
// point converged.
func (s *Simulator) solvePoint(c *ctx, gmin float64, maxNR int) (int, bool) {
	prob := la.NewtonProblem{
		N: s.n,
		Eval: func(x, f []float64, jac *la.Matrix) {
			cc := *c
			cc.x, cc.f, cc.jac = x, f, jac
			s.assemble(&cc, gmin)
		},
		FTol:    1e-9,
		XTol:    1e-12,
		MaxIter: maxNR,
		Damping: true,
		Clamp: func(x []float64) {
			lo, hi := -2.0, s.vdd+2.0
			for i := 0; i < len(s.nodeNames); i++ {
				if x[i] < lo {
					x[i] = lo
				}
				if x[i] > hi {
					x[i] = hi
				}
			}
		},
	}
	res, err := la.SolveNewton(prob, c.x)
	if err != nil {
		return res.Iterations, false
	}
	copy(c.x, res.X)
	return res.Iterations, res.Converged
}

// DCOp computes the DC operating point with sources evaluated at time t.
func (s *Simulator) DCOp(t float64) (map[string]float64, error) {
	c := s.newCtx()
	c.t, c.dc = t, true
	s.seedFromSources(c.x, t)
	// Gmin stepping: start with a heavy convergence aid and relax it.
	for _, gmin := range []float64{1e-3, 1e-6, 1e-9, 1e-12} {
		if _, ok := s.solvePoint(c, gmin, 80); !ok && gmin == 1e-12 {
			return nil, fmt.Errorf("spice: DC operating point did not converge")
		}
	}
	out := map[string]float64{circuit.GroundNode: 0}
	for i, name := range s.nodeNames {
		out[name] = c.x[i]
	}
	return out, nil
}

// seedFromSources sets source-driven node voltages (relative to ground) as
// the initial Newton guess.
func (s *Simulator) seedFromSources(x []float64, t float64) {
	for _, e := range s.elems {
		if v, ok := e.(*vsrcElem); ok && v.b == -1 && v.a >= 0 {
			x[v.a] = v.value(t)
		}
	}
}

// transient is one transient analysis in progress: the Newton context at
// the newest accepted time point and the result recorded so far.
type transient struct {
	s   *Simulator
	c   *ctx
	res *Result
	rec []int // indices of the recorded nodes
}

// start is the set-up both steppers share. It builds the Newton context at
// the initial state (the IC over the source-driven values when ic is
// non-nil, else the DC operating point at t = 0) with step h, initialises
// every charge history there, and records the t = 0 sample.
func (s *Simulator) start(ic map[string]float64, record []string, h float64) (*transient, error) {
	c := s.newCtx()
	if ic != nil {
		s.seedFromSources(c.x, 0)
		for name, v := range ic {
			if i, ok := s.idx[circuit.CanonName(name)]; ok && i >= 0 {
				c.x[i] = v
			}
		}
	} else {
		op, err := s.DCOp(0)
		if err != nil {
			return nil, err
		}
		for i, name := range s.nodeNames {
			c.x[i] = op[name]
		}
	}
	c.h = h
	for _, e := range s.charges {
		e.initState(c)
	}
	tr := &transient{s: s, c: c, res: &Result{V: map[string][]float64{}}}
	want := map[string]bool{}
	for _, n := range record {
		want[circuit.CanonName(n)] = true
	}
	for i, name := range s.nodeNames {
		if record == nil || want[name] {
			tr.rec = append(tr.rec, i)
		}
	}
	tr.push()
	return tr, nil
}

// push records the current state as the sample at c.t.
func (tr *transient) push() {
	tr.res.T = append(tr.res.T, tr.c.t)
	for _, i := range tr.rec {
		name := tr.s.nodeNames[i]
		tr.res.V[name] = append(tr.res.V[name], tr.c.x[i])
	}
}

// solve runs Newton at the time point c.t from the values in c.x, counting
// its iterations, and reports whether it converged.
func (tr *transient) solve() bool {
	iters, ok := tr.s.solvePoint(tr.c, gmin, maxNR)
	tr.res.Stats.NRIterations += iters
	return ok
}

// accept takes the solved point as the next time point: every charge
// history advances to it and it is recorded.
func (tr *transient) accept() {
	for _, e := range tr.s.charges {
		e.accept(tr.c)
	}
	tr.res.Stats.Steps++
	tr.push()
}

// Transient runs a fixed-step transient analysis.
func (s *Simulator) Transient(o Options) (*Result, error) {
	if o.Step <= 0 || o.TStop <= 0 {
		return nil, fmt.Errorf("spice: Step and TStop must be positive")
	}
	tr, err := s.start(o.IC, o.RecordNodes, o.Step)
	if err != nil {
		return nil, err
	}
	// The grid is uniform; TStop is rounded to the nearest whole step so the
	// companion models always see a constant h.
	steps := int(math.Round(o.TStop / o.Step))
	if steps < 1 {
		steps = 1
	}
	for k := 1; k <= steps; k++ {
		tr.c.t = float64(k) * o.Step
		if !tr.solve() {
			tr.res.Stats.NonConverged++
		}
		tr.accept()
	}
	return tr.res, nil
}
