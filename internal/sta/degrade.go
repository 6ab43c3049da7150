package sta

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"qwm/internal/circuit"
	"qwm/internal/faultinject"
	"qwm/internal/qwm"
	"qwm/internal/reduce"
	"qwm/internal/spice"
	"qwm/internal/switchlevel"
	"qwm/internal/wave"
)

// Tier identifies the rung of the degradation ladder that produced a
// stage-direction timing. Lower tiers are more accurate; higher tiers trade
// accuracy for robustness and carry a conservative guard-band so a degraded
// delay is never optimistic relative to the clean QWM answer.
type Tier uint8

const (
	// TierQWM is the paper's solver: piecewise-quadratic waveform matching
	// with the joint Newton iteration (plus its built-in bisection rescue
	// per region). No guard-band — this is the reference answer.
	TierQWM Tier = iota
	// TierSpice rebuilds the worst path as a small transistor netlist and
	// integrates it with the adaptive (LTE-controlled) trapezoidal
	// transient of internal/spice. Slowest numerical tier, different
	// algorithm family — a QWM-specific failure mode cannot recur here.
	// Guard-band 1.25x.
	TierSpice
	// TierBound is the last resort: the switch-level RC bound
	// (switchlevel.PathBound, Elmore x ln2 x 3). Purely structural — no
	// iteration, no convergence, cannot fail on a valid path — and
	// intentionally pessimistic.
	TierBound
	// NumTiers bounds the tier enum; not a tier itself.
	NumTiers
)

var tierNames = [NumTiers]string{
	TierQWM:   "qwm",
	TierSpice: "spice",
	TierBound: "rc-bound",
}

// String returns the canonical tier name.
func (t Tier) String() string {
	if t < NumTiers {
		return tierNames[t]
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// guardSpice is the spice tier's conservative guard-band. A degraded tier
// must never report a delay below the clean QWM answer it replaces (the
// chaos harness asserts this), so the spice delay is moved later by a
// quarter of its magnitude and its slew widened by the same factor: the
// adaptive transient agrees with QWM to the paper's ~2 % accuracy. The RC
// bound carries its own 3x factor inside switchlevel.PathBound.
const guardSpice = 1.25

// EvalBudget bounds each stage-direction evaluation of an Analyze. The zero
// value means unlimited. Exhausting a budget aborts the running tier with
// ErrBudgetExceeded and escalates the ladder; it never fails the Analyze.
type EvalBudget struct {
	// NRIters caps the total Newton iterations one QWM evaluation may
	// spend (joint and inner solves combined).
	NRIters int
	// Wall caps one QWM evaluation's wall-clock time, checked at region
	// boundaries. Wall budgets are inherently racy with scheduling — use
	// NRIters when determinism across runs matters.
	Wall time.Duration
}

// spiceNRBudget caps the SPICE tier's Newton iterations per evaluation
// (see evalSpicePath).
const spiceNRBudget = 10000

// evalLadder resolves one stage-direction timing through the degradation
// ladder. Structural failures (no conducting path to the rail) return
// immediately without escalation — no solver can conjure a path that does
// not exist. Numerical failures, budget aborts and recovered panics
// escalate tier by tier; only if every tier fails (which requires a
// structurally unsupported path, since TierBound is iteration-free) does
// the direction come back failed.
//
// faultKey is the direction's cache key in hex ("" without a FaultPlan):
// deterministic, schedule- and worker-independent, which is what makes
// seeded fault injection reproducible at any Workers setting.
func (a *Analyzer) evalLadder(st *circuit.Stage, out, rail string, loads map[string]float64, inSlew float64, faultKey string) dirTiming {
	path, err := circuit.LongestPath(st, out, rail)
	if err != nil {
		// Structural: the stage genuinely has no path to this rail (e.g. a
		// pass-gate structure). Not a solver failure; do not escalate.
		return dirTiming{errMsg: err.Error()}
	}

	var t dirTiming
	// Model-order-reduction pre-pass: collapse long series RC runs (and,
	// when opted in, off-path leaf subtrees) before ANY tier sees the path,
	// so QWM, the spice rebuild and the RC bound all work on the same
	// reduced network. Downstream of the cache key on purpose — the key
	// carries Reduction.Signature(), so reduced entries can never alias
	// unreduced ones, and the rewrite itself is a pure function of
	// (stage, path, loads, config).
	path, loads, rst := reduce.Path(st, path, loads, a.cfg.Reduction)
	t.reduced = rst.NodesRemoved
	var errs strings.Builder
	for tier := TierQWM; tier < NumTiers; tier++ {
		r, err := a.runTier(tier, st, out, rail, path, loads, inSlew, faultKey, &t)
		addStats(&t.stats, r.stats)
		if err == nil {
			t.delay, t.slew = r.delay, r.slew
			t.slewFellBack = r.slewFellBack
			t.ok = true
			t.tier = tier
			return t
		}
		if errs.Len() > 0 {
			errs.WriteString("; ")
		}
		fmt.Fprintf(&errs, "%s: %v", tier, err)
	}
	t.errMsg = "all tiers failed: " + errs.String()
	return t
}

// runTier executes one rung of the ladder with panic isolation: any panic
// raised inside the tier (a solver bug, or the faultinject.Panic class) is
// converted to an ErrPanicRecovered-wrapped error at this boundary, so the
// worker goroutine survives, the single-flight cache entry completes, and
// the ladder escalates exactly as for an ordinary tier failure.
func (a *Analyzer) runTier(tier Tier, st *circuit.Stage, out, rail string, path *circuit.Path, loads map[string]float64, inSlew float64, faultKey string, t *dirTiming) (res dirResult, err error) {
	// Only the fault injector reads the per-tier key; a nil injector never
	// fires, so the key is built only when a fault plan is set.
	var key string
	if a.cfg.FaultPlan != nil {
		key = faultKey + "|tier" + strconv.Itoa(int(tier))
	}
	defer func() {
		if p := recover(); p != nil {
			t.panics++
			res = dirResult{}
			err = fmt.Errorf("%w: %v", ErrPanicRecovered, p)
		}
	}()
	// Fault site: a synthetic panic inside the tier evaluation. Armed for
	// the numerical tiers only — TierBound is the ladder's floor and must
	// stay unconditionally reliable, injected chaos included.
	if tier < TierBound && a.cfg.FaultPlan.Fire(faultinject.Panic, key) {
		panic(fmt.Sprintf("faultinject: synthetic panic in %s evaluation", tier))
	}

	switch tier {
	case TierQWM:
		// Fault site: an injected budget exhaustion, as a too-small
		// Config.Budget would produce. Tier 0 only: a budget-driven abort
		// escalates to the spice tier.
		if a.cfg.FaultPlan.Fire(faultinject.BudgetExhaustion, key) {
			return dirResult{}, fmt.Errorf("%w: injected budget exhaustion (faultinject)", ErrBudgetExceeded)
		}
		return a.evalQWMPath(st, path, out, rail, loads, inSlew, qwm.Options{
			NRBudget:   a.cfg.Budget.NRIters,
			WallBudget: a.cfg.Budget.Wall,
			Fault:      a.cfg.FaultPlan,
			FaultKey:   key,
		})
	case TierSpice:
		r, err := a.evalSpicePath(st, path, out, rail, loads, inSlew)
		if err != nil {
			return r, err
		}
		// Later by a quarter of the magnitude, so a negative delay (the
		// output crossing before a slow input does) is not made earlier;
		// for d >= 0 this is d*guardSpice to the bit.
		r.delay += (guardSpice - 1) * math.Abs(r.delay)
		r.slew *= guardSpice
		return r, nil
	case TierBound:
		return a.evalBoundPath(st, path, out, loads, inSlew)
	}
	return dirResult{}, fmt.Errorf("sta: unknown tier %d", tier)
}

// addStats folds one tier attempt's solver accounting into the direction's
// running total, so a degraded direction reports the full cost of every
// attempt, not just the tier that finally answered.
func addStats(dst *qwm.Stats, s qwm.Stats) {
	dst.Regions += s.Regions
	dst.NRIters += s.NRIters
	dst.DenseFallbacks += s.DenseFallbacks
	dst.CapResolves += s.CapResolves
}

// pathInputs assigns a waveform to every gate along the path: the first
// transistor's gate gets the switching stimulus, every other gate is held
// at the conducting level.
func pathInputs(path *circuit.Path, sw wave.Waveform, onLevel float64) map[string]wave.Waveform {
	inputs := map[string]wave.Waveform{}
	first := true
	for _, pe := range path.Elems {
		if pe.Edge.Kind == circuit.KindWire {
			continue
		}
		if first {
			inputs[pe.Edge.Gate] = sw
			first = false
			continue
		}
		if _, dup := inputs[pe.Edge.Gate]; !dup {
			inputs[pe.Edge.Gate] = wave.DC(onLevel)
		}
	}
	return inputs
}

// spiceRename builds the canonical node-renaming map for the TierSpice
// sub-netlist: rails keep their names, path channel nodes become "n%d" in
// path order, gate nets become "g%d" by order of first appearance along the
// path, and off-path load nodes become "z%d" in (value, name)-sorted order —
// the name tie-break is safe because equal-value isolated grounded caps are
// interchangeable. It returns the map plus the original path-node and
// off-path node lists in canonical order, so callers can register caps in a
// name-independent sequence.
//
// The rename keeps a timing independent of what the nets are called.
// spice.New indexes the MNA matrix by SORTED node name, so without it two
// stages that differ only in their net names built matrices with different
// elimination orders and produced different floats: renaming a net could
// move a spice-tier arrival, which the QWM tiers never do.
func spiceRename(path *circuit.Path, loads map[string]float64) (ren map[string]string, pathNodes, offNodes []string) {
	ren = map[string]string{
		circuit.GroundNode: circuit.GroundNode,
		circuit.SupplyNode: circuit.SupplyNode,
	}
	for i, pe := range path.Elems {
		if i == 0 {
			if _, ok := ren[pe.Lower]; !ok {
				ren[pe.Lower] = "n" + fmt.Sprint(len(pathNodes))
				pathNodes = append(pathNodes, pe.Lower)
			}
		}
		if _, ok := ren[pe.Upper]; !ok {
			ren[pe.Upper] = "n" + fmt.Sprint(len(pathNodes))
			pathNodes = append(pathNodes, pe.Upper)
		}
	}
	gi := 0
	for _, pe := range path.Elems {
		if pe.Edge.Kind == circuit.KindWire {
			continue
		}
		if _, ok := ren[pe.Edge.Gate]; !ok {
			ren[pe.Edge.Gate] = "g" + fmt.Sprint(gi)
			gi++
		}
	}
	for node := range loads {
		if _, ok := ren[node]; !ok {
			offNodes = append(offNodes, node)
		}
	}
	sort.Slice(offNodes, func(i, j int) bool {
		ci, cj := loads[offNodes[i]], loads[offNodes[j]]
		if ci != cj {
			return ci < cj
		}
		return offNodes[i] < offNodes[j]
	})
	for i, node := range offNodes {
		ren[node] = "z" + fmt.Sprint(i)
	}
	return ren, pathNodes, offNodes
}

// evalSpicePath is the TierSpice evaluation: the worst path is rebuilt as a
// self-contained transistor netlist — path devices, the worst-case gate
// stimulus, the fanout loads as explicit capacitors, rail sources, and the
// precharged initial condition — and integrated with the LTE-controlled
// adaptive trapezoidal transient. A different algorithm family than QWM, so
// the Newton failure that brought the ladder here cannot recur.
//
// Every node of the sub-netlist carries a canonical name (see spiceRename)
// and every element is registered in canonical path order, so the result is
// a pure function of the path/load structure — two stages that differ only
// in their net names evaluate bit-identically.
func (a *Analyzer) evalSpicePath(st *circuit.Stage, path *circuit.Path, out, rail string, loads map[string]float64, inSlew float64) (dirResult, error) {
	vdd := a.tech.VDD
	sw, onLevel, tIn := circuit.SwitchingInput(vdd, rail, 0, inSlew)
	rising := rail == circuit.SupplyNode

	ren, pathNodes, offNodes := spiceRename(path, loads)
	rout, ok := ren[out]
	if !ok {
		return dirResult{}, fmt.Errorf("sta: spice tier: output %q not on evaluated path", out)
	}

	n := &circuit.Netlist{}
	n.AddVSource("vvdd", circuit.SupplyNode, circuit.GroundNode, wave.DC(vdd))
	// Gate stimuli in path order (first conducting gate switches, the rest
	// are held at the on-level): ranging over the pathInputs map here was a
	// latent nondeterminism — registration order fed the matrix node order.
	first := true
	gateDone := map[string]bool{}
	for _, pe := range path.Elems {
		if pe.Edge.Kind == circuit.KindWire || gateDone[pe.Edge.Gate] {
			continue
		}
		gateDone[pe.Edge.Gate] = true
		w := wave.Waveform(wave.DC(onLevel))
		if first {
			w, first = sw, false
		}
		g := ren[pe.Edge.Gate]
		n.AddVSource("v"+g, g, circuit.GroundNode, w)
	}
	// Path transistors carry their own junctions, oriented to the renamed
	// drain (upper) and source (lower) ends.
	ic := map[string]float64{}
	for i, pe := range path.Elems {
		e := pe.Edge
		switch e.Kind {
		case circuit.KindWire:
			n.AddResistor(fmt.Sprintf("r%d", i), ren[pe.Lower], ren[pe.Upper], e.R)
		case circuit.KindNMOS, circuit.KindPMOS:
			body := circuit.GroundNode
			if e.Kind == circuit.KindPMOS {
				body = circuit.SupplyNode
			}
			n.AddTransistor(&circuit.Transistor{
				Name: fmt.Sprintf("m%d", i), Kind: e.Kind,
				Drain: ren[pe.Upper], Gate: ren[e.Gate], Source: ren[pe.Lower],
				Body: body, W: e.W, L: e.L,
				DrainJunc:  e.Terminal(a.tech, pe.Upper).Junc,
				SourceJunc: e.Terminal(a.tech, pe.Lower).Junc,
			})
		default:
			return dirResult{}, fmt.Errorf("sta: spice tier: unsupported element kind %v", e.Kind)
		}
		ic[ren[pe.Upper]] = onLevel // precharged (discharge) or pre-discharged (charge)
	}
	// Load caps in canonical order: path nodes in path order, then off-path
	// nodes in their value-sorted order.
	ci := 0
	for _, node := range pathNodes {
		if c := loads[node]; c > 0 {
			n.AddCapacitor(fmt.Sprintf("cl%d", ci), ren[node], circuit.GroundNode, c)
			ci++
		}
	}
	for _, node := range offNodes {
		if c := loads[node]; c > 0 {
			n.AddCapacitor(fmt.Sprintf("cl%d", ci), ren[node], circuit.GroundNode, c)
			ci++
		}
	}
	// Off-path device parasitics: QWM charges every path node with ALL
	// the stage's device terminals on it, the complementary rail's drains
	// included. The sub-netlist only instantiates the path devices (whose
	// parasitics the simulator models itself), so every other terminal is
	// lumped here at the mid-swing linearization point, as the switch-level
	// model does; omitting them made the spice tier under-predict by the
	// missing capacitance ratio and defeat the guard-band.
	onPath := map[*circuit.StageEdge]bool{}
	for _, pe := range path.Elems {
		onPath[pe.Edge] = true
	}
	var terms []circuit.Terminal
	for _, node := range pathNodes {
		terms = st.AppendTerminals(terms[:0], a.tech, node)
		for _, t := range terms {
			if onPath[t.Edge] {
				continue
			}
			c := t.P.JunctionCap(t.Junc, vdd/2) + t.Fixed
			n.AddCapacitor(fmt.Sprintf("cp%d", ci), ren[node], circuit.GroundNode, c)
			ci++
		}
	}

	sim, err := spice.New(n, a.tech)
	if err != nil {
		return dirResult{}, fmt.Errorf("sta: spice tier: %w", err)
	}
	// Span: the full input ramp plus the stage's RC bound, at least 2 ns, so
	// the 50 % crossing of a slow stage (a heavy load on a weak driver)
	// falls inside it; the bound is iteration-free and never optimistic.
	// HMax keeps coarse late-tail steps from blurring the measured edge. It
	// grows with the span past 5 ns, so the step count stays near 1000
	// whatever the span: a microsecond ramp from a pathologically slow
	// upstream stage otherwise took a million 5 ps steps (the LTE control
	// still shortens steps around the edge). The Newton budget bounds what
	// is left — absurd device geometry whose steps keep failing — and
	// escalates it to the bound tier; healthy stages use under a thousand
	// iterations. A path the bound cannot size keeps the 2 ns span.
	span := 2e-9
	if b, err := switchlevel.PathBound(st, path, out, loads, a.tech); err == nil {
		span = max(span, b)
	}
	tstop := 1.25*inSlew + span
	res, err := sim.TransientAdaptive(spice.AdaptiveOptions{
		TStop:       tstop,
		HMax:        max(5e-12, tstop/1000),
		MaxNRIters:  spiceNRBudget,
		IC:          ic,
		RecordNodes: []string{rout},
	})
	if err != nil {
		return dirResult{}, fmt.Errorf("sta: spice tier: %w", err)
	}
	w, err := res.Waveform(rout)
	if err != nil {
		return dirResult{}, fmt.Errorf("sta: spice tier: %w", err)
	}
	d, err := wave.Delay50(w, tIn, vdd, rising)
	if err != nil {
		return dirResult{}, fmt.Errorf("sta: spice tier: %w", err)
	}
	slew, serr := wave.Slew(w, vdd, rising)
	if serr != nil || slew <= 0 {
		// The recorded transient ended before the 10/90 % points: substitute
		// the conservative estimate (fallbackSlew's last resort, which does
		// not assume a falling waveform).
		return dirResult{delay: d, slew: conservativeSlew(inSlew, d), slewFellBack: true}, nil
	}
	return dirResult{delay: d, slew: slew}, nil
}

// evalBoundPath is the TierBound evaluation: the conservative switch-level
// RC bound over the worst path. The slew is conservativeSlew of the (already
// guard-banded, at least 1 ps) delay — a transition cannot meaningfully
// outlast the RC bound that produced it.
func (a *Analyzer) evalBoundPath(st *circuit.Stage, path *circuit.Path, out string, loads map[string]float64, inSlew float64) (dirResult, error) {
	d, err := switchlevel.PathBound(st, path, out, loads, a.tech)
	if err != nil {
		return dirResult{}, fmt.Errorf("sta: bound tier: %w", err)
	}
	return dirResult{delay: d, slew: conservativeSlew(inSlew, d), slewFellBack: true}, nil
}
