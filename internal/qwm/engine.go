package qwm

import (
	"fmt"
	"math"
	"time"

	"qwm/internal/faultinject"
	"qwm/internal/wave"
)

// finalFractions are the folded output levels (as fractions of VDD) the
// final regions match at, after every transistor has turned on. The 50 %
// point is the delay measurement; the extra levels keep each region short
// enough for the linear-current assumption and extend the tail past the
// 10 % slew point.
var finalFractions = [...]float64{0.85, 0.7, 0.5, 0.3, 0.15, 0.08}

// Options tunes the QWM evaluation.
type Options struct {
	// MaxNR bounds Newton iterations per region (default 40).
	MaxNR int
	// UseDenseLU replaces the tridiagonal + Sherman–Morrison update with a
	// dense LU solve — the paper's §IV-B ablation ("tridiagonal method gives
	// almost twice speedup over LU decomposition").
	UseDenseLU bool
	// Horizon bounds the analysis time span (default 50 ns).
	Horizon float64
	// MaxRegions bounds the region count (default 12·K + 80).
	MaxRegions int
	// FreezeCaps keeps node capacitances at their region-start values (the
	// paper's simplified presentation). By default the engine re-solves each
	// region once with secant (charge-based) capacitances over the region's
	// voltage excursion, which removes the systematic junction-capacitance
	// bias. The second pass starts from the first pass's solution; on the
	// Table II 8-stack of BenchmarkAblationFreezeCaps it costs about 1.5×
	// the frozen run's time (293 vs 203 Newton iterations).
	FreezeCaps bool
	// LinearWaveform replaces the quadratic voltage model with a piecewise
	// LINEAR one (constant node current per region, matched at the critical
	// point) — the simpler member of the paper's waveform-model family, kept
	// as an ablation of the "art part" choice (§IV-A).
	LinearWaveform bool
	// NoSubdivision disables this implementation's region refinements (the
	// duration caps and output-excursion caps) and reverts to the paper's
	// plain scheme: exactly one region per turn-on plus one per final level.
	// Kept as an ablation — it is where the quadratic model's advantage over
	// the linear one shows.
	NoSubdivision bool
	// Events, when set, receives one structured Event per committed region
	// (see EventSink; PrintfSink recovers the old printf trace lines). A
	// nil sink costs nothing: no Event is constructed on the hot path.
	Events EventSink
	// ForceBisection skips the joint Newton guess ladder entirely and
	// solves every region with the robust bisection-on-τ′ fallback (inner α
	// solves at each trial point). Slower but hard to defeat — the second
	// rung of the sta degradation ladder uses it when the Newton path fails.
	ForceBisection bool
	// NRBudget caps the TOTAL Newton iterations across the whole evaluation
	// (all region solves, joint and inner). 0 means unlimited. Exceeding it
	// aborts with an error wrapping ErrBudgetExceeded. Iteration budgets are
	// deterministic: the same evaluation exceeds (or does not exceed) the
	// same budget at any worker count.
	NRBudget int
	// WallBudget caps the evaluation's wall-clock time, checked at region
	// boundaries (the per-region solves are short, so overshoot is bounded
	// by one region solve). 0 means unlimited. Exceeding it aborts with an
	// error wrapping ErrBudgetExceeded. Unlike NRBudget this is inherently
	// nondeterministic; use it as a safety net, not a reproducibility tool.
	WallBudget time.Duration
	// Fault, when non-nil, is consulted at the solver's fault-injection
	// sites (region-solve entry: faultinject.NRDivergence; the tridiagonal
	// linear solve: faultinject.PivotBreakdown) with FaultKey identifying
	// this evaluation. Nil costs one pointer check per site.
	Fault *faultinject.Injector
	// FaultKey identifies this evaluation to the fault injector; the sta
	// layer sets it to the delay-cache key plus the ladder tier so injection
	// decisions are per-(stage, direction, slew, load, tier) and therefore
	// schedule-independent.
	FaultKey string
}

func (o *Options) withDefaults(k int) Options {
	out := *o
	if out.MaxNR == 0 {
		out.MaxNR = 40
	}
	if out.Horizon == 0 {
		out.Horizon = 50e-9
	}
	if out.MaxRegions == 0 {
		// Turn-ons + level ladder + the geometric duration ramp on skewed
		// chains; region solves are O(K), so a generous budget is cheap.
		out.MaxRegions = 12*k + 80
	}
	return out
}

// Stats is the per-evaluation solver accounting: how many regions the
// transient decomposed into, the total Newton iterations across every
// region solve (joint and inner), how often the tridiagonal Thomas sweep
// broke down on a vanishing pivot and recovered through the dense-LU workspace, and
// how many secant-capacitance re-solves ran. All four are counted in the
// engine's pooled state, so instrumenting an evaluation allocates nothing.
type Stats struct {
	// Regions is the number of committed regions (turn-ons, level
	// crossings and time-capped subdivisions).
	Regions int
	// NRIters is the total Newton iterations across all region solves,
	// including the bisection fallback's inner α solves.
	NRIters int
	// DenseFallbacks counts Thomas-pivot breakdowns recovered by the
	// in-scratch dense LU solve (plus every solve when UseDenseLU is set).
	DenseFallbacks int
	// CapResolves counts secant-capacitance second passes (zero when
	// FreezeCaps is set).
	CapResolves int
}

// Result is a QWM evaluation outcome.
type Result struct {
	// Folded holds the piecewise-quadratic waveform of each chain node
	// (1..M) in folded coordinates.
	Folded []*wave.PWQ
	// Nodes holds the same waveforms unfolded to physical voltages.
	Nodes []*wave.PWQ
	// Output is Nodes[M-1], the chain output.
	Output *wave.PWQ
	// CriticalTimes are the region boundaries (the τ values of paper Fig. 9).
	CriticalTimes []float64
	// Stats is the solver accounting for this evaluation.
	Stats       Stats
	DeviceEvals int
	// TailTruncated reports that a deep-tail final region (below 0.35·VDD)
	// failed to converge and the waveform was truncated there; the 50 %
	// delay point is unaffected.
	TailTruncated bool
}

// Delay50 returns the 50 % propagation delay of the chain output relative
// to the switching instant tIn, measured on the folded (falling) waveform so
// both polarities share one code path.
func (r *Result) Delay50(tIn, vdd float64) (float64, error) {
	f := r.Folded[len(r.Folded)-1]
	tc, ok := f.Crossing(vdd/2, false)
	if !ok {
		return 0, fmt.Errorf("qwm: output never crossed 50%% within the evaluated span")
	}
	return tc - tIn, nil
}

// engine is the per-evaluation state. Its numeric buffers are views into a
// pooled solverScratch, so steady-state evaluation allocates only the
// result waveforms.
type engine struct {
	ch      *Chain
	o       Options
	m       int         // number of elements / non-rail nodes
	t       float64     // current region start time
	v       []float64   // folded node voltages, index 0..m (v[0] = rail = 0)
	cur     []float64   // node currents C·dV/dt, index 1..m (cur[0] unused)
	capn    []float64   // frozen node capacitances for the current region, 1..m
	qn      []float64   // oriented junction charges at the region start, 1..m
	segs    []*wave.PWQ // node waveforms; their segments share one slab
	segCap  int         // segments per node the slab holds
	front   int         // index of the first off transistor element; m when all on
	prevDur float64
	res     *Result
	scr     *solverScratch
	rs      regionSys // reused region-system header (one region at a time)

	// budgetHit is set by the Newton/inner solve loops when NRBudget runs
	// out; solveRegion and run translate it into an ErrBudgetExceeded
	// instead of misreporting the abort as a convergence failure.
	budgetHit bool
	// wallDeadline is the absolute WallBudget deadline (zero when
	// unlimited), checked at region boundaries.
	wallDeadline time.Time
}

// overBudget reports whether a budget abort is pending: the iteration
// budget was hit inside a solve, or the wall deadline has passed.
func (e *engine) overBudget() bool {
	if e.budgetHit {
		return true
	}
	if !e.wallDeadline.IsZero() && time.Now().After(e.wallDeadline) {
		return true
	}
	return false
}

// budgetErr formats the typed budget error for the current state.
func (e *engine) budgetErr() error {
	if e.budgetHit {
		return fmt.Errorf("%w: NR-iteration budget %d exhausted after %d regions",
			ErrBudgetExceeded, e.o.NRBudget, e.res.Stats.Regions)
	}
	return fmt.Errorf("%w: wall budget %v exhausted after %d regions",
		ErrBudgetExceeded, e.o.WallBudget, e.res.Stats.Regions)
}

// Evaluate runs piecewise quadratic waveform matching on a chain.
func Evaluate(ch *Chain, opts Options) (*Result, error) {
	e, err := newEngine(ch, opts)
	if err != nil {
		return nil, err
	}
	defer e.release()
	return e.run()
}

// newEngine validates the chain and borrows pooled scratch for it. The
// caller must call release when done (run's result does not reference the
// scratch).
func newEngine(ch *Chain, opts Options) (*engine, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	o := opts.withDefaults(ch.Transistors())
	m := ch.M()
	scr := scratchPool.Get().(*solverScratch)
	scr.ensure(m + 1)
	e := &engine{
		ch:   ch,
		o:    o,
		m:    m,
		v:    scr.v[:m+1],
		cur:  scr.cur[:m+1],
		capn: scr.capn[:m+1],
		qn:   scr.qn[:m+1],
		segs: make([]*wave.PWQ, m),
		res:  &Result{},
		scr:  scr,
	}
	e.v[0], e.cur[0], e.capn[0], e.qn[0] = 0, 0, 0, 0
	for k := 1; k <= m; k++ {
		e.v[k] = ch.V0[k-1]
		e.cur[k], e.capn[k], e.qn[k] = 0, 0, 0
		scr.capV[k] = math.NaN() // matches no voltage: the cache starts empty
	}
	// Every region appends one segment to every node, so all nodes share
	// one slab, sized for the turn-on regions plus a short final ladder
	// (wires add nodes, not regions); growSegs doubles it.
	pw := make([]wave.PWQ, m)
	for k := range pw {
		e.segs[k] = &pw[k]
	}
	segs := 2*ch.Transistors() + 16
	e.growSegs(segs)
	if o.WallBudget > 0 {
		e.wallDeadline = time.Now().Add(o.WallBudget)
	}
	e.res.CriticalTimes = append(make([]float64, 0, segs+1), 0)
	return e, nil
}

// release returns the engine's scratch to the shared pool. Idempotent.
func (e *engine) release() {
	if e.scr != nil {
		scratchPool.Put(e.scr)
		e.scr = nil
	}
}

// run executes the region loop. The returned Result owns its waveforms and
// stays valid after release.
func (e *engine) run() (*Result, error) {
	m, o := e.m, e.o
	ch := e.ch
	e.advanceFront()
	e.refreshCaps()
	e.refreshCurrents()

	// Turn-on regions: one per remaining off transistor.
	for e.front < m {
		if e.overBudget() {
			return nil, e.budgetErr()
		}
		if e.res.Stats.Regions >= o.MaxRegions {
			return nil, fmt.Errorf("%w: region limit %d exceeded", ErrNoConvergence, o.MaxRegions)
		}
		var tauP float64
		var alpha []float64
		var err error
		if e.front == 0 {
			// No active nodes: the first transistor waits for its gate.
			tauP, err = e.gateWait()
			if err != nil {
				return nil, err
			}
		} else {
			ev := e.turnOnEvent(e.front)
			// Subdivide long waits: a turn-on residual is negative until it
			// fires.
			var seed []float64
			var seedTau float64
			if !o.NoSubdivision {
				var capped bool
				var cerr error
				capped, seed, seedTau, cerr = e.timeCappedRegion(e.front, ev, func(fe float64) bool { return fe < 0 }, e.durCap())
				if cerr != nil {
					return nil, cerr
				}
				if capped {
					continue
				}
			}
			tauP, alpha, err = e.solveRegionSecant(e.front, ev, seed, seedTau)
			if err != nil {
				return nil, fmt.Errorf("qwm: region %d (turn-on of element %d): %w", e.res.Stats.Regions, e.front, err)
			}
		}
		if o.Events != nil {
			o.Events.Region(Event{Region: e.res.Stats.Regions, Kind: RegionTurnOn, Elem: e.front, Tau: tauP})
		}
		if err := e.commitRegion(tauP, alpha, e.front); err != nil {
			return nil, err
		}
		e.advanceFront()
		e.refreshCaps()
		e.refreshCurrents()
	}

	// Final regions: all transistors on; match at the requested output
	// levels. Three per-region limits keep the linear-current model honest:
	// the output swing is capped at 0.12·VDD and a 0.55× tail ratio
	// (internal quasi-static nodes wander off the physical solution branch
	// across large swings), and the region duration grows at most
	// geometrically from the previous region, so the fast equilibration
	// right after the last turn-on is resolved.
	for _, frac := range finalFractions {
		target := frac * ch.VDD
		// The slack must exceed the solver's event tolerance (1e-7·VDD).
		for e.v[m] > target+1e-5 {
			if e.overBudget() {
				return nil, e.budgetErr()
			}
			if e.res.Stats.Regions >= o.MaxRegions {
				return nil, fmt.Errorf("%w: region limit %d exceeded", ErrNoConvergence, o.MaxRegions)
			}
			sub := target
			var seed []float64
			var seedTau float64
			if !o.NoSubdivision {
				if lim := e.v[m] - 0.12*ch.VDD; sub < lim {
					sub = lim
				}
				if lim := e.v[m] * 0.55; sub < lim {
					sub = lim
				}
				// A cross residual is positive until the level is reached.
				var capped bool
				var cerr error
				capped, seed, seedTau, cerr = e.timeCappedRegion(m, e.crossEvent(sub), func(fe float64) bool { return fe > 0 }, e.durCap())
				if cerr != nil {
					return nil, cerr
				}
				if capped {
					continue
				}
			}
			tauP, alpha, err := e.solveRegionSecant(m, e.crossEvent(sub), seed, seedTau)
			if err != nil {
				if target < 0.35*ch.VDD && e.res.Stats.Regions > 0 && !e.budgetHit {
					// The delay point is already behind us; a stalled deep
					// tail truncates the waveform rather than failing the
					// whole evaluation.
					e.res.TailTruncated = true
					break
				}
				return nil, fmt.Errorf("qwm: final region to %.3g V: %w", sub, err)
			}
			if o.Events != nil {
				o.Events.Region(Event{Region: e.res.Stats.Regions, Kind: RegionCross, Target: sub, Tau: tauP})
			}
			if err := e.commitRegion(tauP, alpha, m); err != nil {
				return nil, err
			}
			e.refreshCaps()
			e.refreshCurrents()
		}
		if e.res.TailTruncated {
			break
		}
	}

	// Assemble result.
	e.res.Folded = e.segs
	e.res.Nodes = unfoldAll(e.segs, ch.VDD, ch.Pol)
	e.res.Output = e.res.Nodes[m-1]
	return e.res, nil
}

// --- chain state helpers ---

// elemJ returns the current through element i flowing from node i+1 (upper)
// down to node i (lower) at time t with the given terminal voltages, plus
// its derivatives with respect to the lower, upper and gate voltages.
func (e *engine) elemJ(i int, t, vLow, vUp float64) (j, dLow, dUp, dGate float64) {
	el := e.ch.Elems[i]
	if el.IsWire() {
		g := 1 / el.R
		return (vUp - vLow) * g, -g, g, 0
	}
	e.res.DeviceEvals++
	g := el.Gate.Eval(t)
	j, dvg, dvd, dvs := el.Model.IV(el.W, g, vUp, vLow)
	return j, dvs, dvd, dvg
}

// isOn reports whether transistor element i conducts at the current state:
// its folded gate drive meets the body-adjusted threshold of its lower node.
func (e *engine) isOn(i int) bool {
	el := e.ch.Elems[i]
	if el.IsWire() {
		return true
	}
	vLow := e.v[i]
	// The slack must exceed the region solver's event tolerance (1e-7·VDD)
	// or a solved turn-on could fail to advance the front.
	return el.Gate.Eval(e.t) >= vLow+el.Model.Threshold(vLow)-1e-5
}

// advanceFront extends the conducting prefix past every on element.
func (e *engine) advanceFront() {
	for e.front < e.m && e.isOn(e.front) {
		e.front++
	}
}

// refreshCaps freezes the node capacitances at the current voltages — the
// constant-parasitic-per-region assumption of §III-C — and keeps the
// region-start charges for the secant pass. A node whose voltage has not
// moved since its last evaluation (every inactive node above the front)
// reuses the cached C and Q.
func (e *engine) refreshCaps() {
	s := e.scr
	for k := 1; k <= e.m; k++ {
		if e.v[k] != s.capV[k] {
			s.capV[k] = e.v[k]
			s.capC[k], s.capQ[k] = e.ch.Caps[k-1].CQ(e.v[k], e.ch.VDD, e.ch.Pol)
		}
		e.capn[k], e.qn[k] = s.capC[k], s.capQ[k]
	}
}

// refreshCurrents re-derives the node currents from the device model at the
// current state (active nodes 1..front; element `front` carries no current).
func (e *engine) refreshCurrents() {
	jPrev := 0.0 // J through element k-1, starting with element 0 below node 1
	for k := 1; k <= e.m; k++ {
		if k > e.front {
			e.cur[k] = 0
			continue
		}
		var jBelow float64
		if k == 1 {
			jBelow, _, _, _ = e.elemJ(0, e.t, 0, e.v[1])
		} else {
			jBelow = jPrev
		}
		var jAbove float64
		if k < e.front {
			jAbove, _, _, _ = e.elemJ(k, e.t, e.v[k], e.v[k+1])
		}
		e.cur[k] = jAbove - jBelow
		jPrev = jAbove
	}
}

// growSegs moves every node's segments into a new slab of n segments per
// node. Each node's slice is capped at its share, so appends never spill
// into the next node's.
func (e *engine) growSegs(n int) {
	slab := make([]wave.QuadSeg, e.m*n)
	for k, p := range e.segs {
		base := k * n
		used := copy(slab[base:base+n], p.Segs)
		p.Segs = slab[base : base+used : base+n]
	}
	e.segCap = n
}

// commitRegion appends this region's quadratic segments and moves the state
// to τ′. The solver guarantees τ′ > τ, so a segment-append failure is a
// violated solver invariant; it used to panic (taking the whole Analyze —
// and, from a worker goroutine, the whole process — with it) and now
// returns a typed error wrapping ErrInternal that Evaluate propagates, so
// one broken evaluation degrades exactly one stage direction.
func (e *engine) commitRegion(tauP float64, alpha []float64, active int) error {
	delta := tauP - e.t
	if len(e.segs[0].Segs) == e.segCap {
		e.growSegs(2 * e.segCap)
	}
	for k := 1; k <= e.m; k++ {
		var a float64
		if k <= active && alpha != nil {
			a = alpha[k-1]
		}
		if e.o.LinearWaveform && k <= active && alpha != nil {
			// In the linear-waveform ablation the solved unknowns are the
			// constant region currents themselves.
			e.cur[k] = a
			a = 0
		}
		seg := wave.QuadSeg{
			T0: e.t, T1: tauP,
			V0: e.v[k],
			S:  e.cur[k] / e.capn[k],
			A:  a / e.capn[k],
		}
		if k > active {
			seg.S, seg.A = 0, 0
		}
		if err := e.segs[k-1].Append(seg); err != nil {
			return fmt.Errorf("%w: region %d segment for node %d: %v",
				ErrInternal, e.res.Stats.Regions, k, err)
		}
		e.v[k] = seg.EndValue()
		e.cur[k] += a * delta
	}
	e.t = tauP
	e.prevDur = delta
	e.res.Stats.Regions++
	e.res.CriticalTimes = append(e.res.CriticalTimes, tauP)
	return nil
}

// timeCappedRegion probes the region's event at τ′ = t + durCap by solving
// only the α subsystem there. If the event has not yet fired (per notFired
// on its residual), the fixed-duration region is committed and the caller
// loops — this subdivides long regions so the linear-current chord stays
// accurate through fast equilibration transients. The first return value
// reports whether a capped region was committed. When the probe converged
// with the event already fired, it returns the probe's α as a seed for the
// region solve, with τ′ interpolated linearly between the event residual at
// the region start and at the probe point. The error is non-nil only for a
// commit-invariant violation (ErrInternal).
func (e *engine) timeCappedRegion(L int, ev event, notFired func(float64) bool, durCap float64) (capped bool, seed []float64, seedTau float64, err error) {
	rs := e.newRegionSys(L, ev)
	alpha := e.scr.nextAlpha(L)
	for i := range alpha {
		alpha[i] = 0
	}
	if e.o.LinearWaveform {
		copy(alpha, e.cur[1:L+1])
	}
	tauP := e.t + durCap
	// The α-only probe keeps its own iteration floor so a throttled joint
	// Newton budget does not change the region structure.
	iter := e.o.MaxNR
	if iter < 30 {
		iter = 30
	}
	fe, ok := rs.solveAlphas(alpha, tauP, iter)
	if !ok {
		return false, nil, 0, nil
	}
	if !notFired(fe) {
		seedTau = tauP
		// At τ′ = t the state is the region start, so the residual there
		// needs no solve.
		if f0 := ev.value(e.t, e.v[L]); notFired(f0) {
			seedTau = e.t + durCap*f0/(f0-fe)
		}
		return false, alpha, seedTau, nil
	}
	if !e.o.FreezeCaps {
		// Secant-capacitance second pass, as in solveRegionSecant, started
		// from the probe's α.
		saved := e.secantCaps(L, alpha, durCap)
		alpha2 := e.scr.nextAlpha(L)
		copy(alpha2, alpha)
		if fe2, ok2 := rs.solveAlphas(alpha2, tauP, iter); ok2 && notFired(fe2) {
			alpha = alpha2
		} else {
			copy(e.capn, saved)
		}
	}
	if e.o.Events != nil {
		// ev.name() allocates its formatted string, so build it only when a
		// sink is attached.
		e.o.Events.Region(Event{Region: e.res.Stats.Regions, Kind: RegionTimeCap, Tau: tauP, Pending: ev.name()})
	}
	if err := e.commitRegion(tauP, alpha, L); err != nil {
		return false, nil, 0, err
	}
	e.refreshCaps()
	e.refreshCurrents()
	return true, nil, 0, nil
}

// endVoltage predicts node k's voltage after delta under the current
// waveform model with solved parameter x.
func (e *engine) endVoltage(k int, x, delta float64) float64 {
	if e.o.LinearWaveform {
		return e.v[k] + x*delta/e.capn[k]
	}
	return e.v[k] + (e.cur[k]*delta+0.5*x*delta*delta)/e.capn[k]
}

// secantCaps starts a secant-capacitance second pass: it replaces the
// frozen capacitances of nodes 1..L with their charge-based values over the
// excursion a first-pass solution α predicts after delta, and returns the
// region-start capacitances for the caller to restore if the second pass
// fails. A node that barely moves keeps its region-start capacitance.
func (e *engine) secantCaps(L int, alpha []float64, delta float64) (saved []float64) {
	e.res.Stats.CapResolves++
	saved = e.scr.capSaved[:len(e.capn)]
	copy(saved, e.capn)
	for k := 1; k <= L; k++ {
		v1, v2 := e.v[k], e.endVoltage(k, alpha[k-1], delta)
		if math.Abs(v2-v1) >= 1e-6 {
			e.capn[k] = e.ch.Caps[k-1].Secant(v1, e.qn[k], v2, e.ch.VDD, e.ch.Pol)
		}
	}
	return saved
}

// durCap returns the geometric duration cap for the next region.
func (e *engine) durCap() float64 {
	d := 1.6 * e.prevDur
	if d < 0.5e-12 {
		d = 0.5e-12
	}
	return d
}

// solveRegionSecant runs the region solve, then — unless FreezeCaps — once
// more with secant (charge-based) node capacitances evaluated over the
// first pass's voltage excursion, so voltage-dependent junctions do not
// bias the region endpoint. The first pass starts from seed (the fired
// time-cap probe's α and interpolated τ′) when there is one; the second
// starts from the first pass's (α, τ′).
func (e *engine) solveRegionSecant(L int, ev event, seed []float64, seedTau float64) (float64, []float64, error) {
	tauP, alpha, err := e.solveRegion(L, ev, seed, seedTau)
	if err != nil || e.o.FreezeCaps {
		return tauP, alpha, err
	}
	saved := e.secantCaps(L, alpha, tauP-e.t)
	tauP2, alpha2, err2 := e.solveRegion(L, ev, alpha, tauP)
	if err2 != nil {
		copy(e.capn, saved)
		return tauP, alpha, nil
	}
	return tauP2, alpha2, nil
}

// gateWait handles the degenerate first region where no transistor conducts:
// τ′ is simply when the bottom gate crosses its threshold.
func (e *engine) gateWait() (float64, error) {
	el := e.ch.Elems[0]
	level := el.Model.Threshold(0)
	cr, ok := el.Gate.(wave.Crosser)
	if !ok {
		return 0, fmt.Errorf("%w: element 0 gate waveform cannot locate its own threshold crossing", ErrNoConvergence)
	}
	tc, found := cr.Crossing(level, true)
	if !found || tc > e.o.Horizon {
		return 0, fmt.Errorf("%w: element 0 never turns on within the horizon", ErrNoConvergence)
	}
	if tc <= e.t {
		tc = e.t + 1e-15
	}
	return tc, nil
}
