package sta

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"qwm/internal/circuit"
	"qwm/internal/obs"
)

// Request is the front door of the request-shaped STA API: one analysis of
// one netlist, with an optional per-request Observer for structured span
// events. Every setting that can change a result (reduction, memoization,
// budget, fault plan) lives on the Analyzer's Config, fixed at New — a
// Request carries only the circuit, its stimulus and per-call plumbing.
type Request struct {
	// Netlist is the circuit to analyze.
	Netlist *circuit.Netlist
	// Primary maps primary-input nets to their arrival times/slews. Inputs
	// missing from the map arrive at t = 0 as ideal steps.
	Primary map[string]Arrival
	// Outputs are the primary outputs the analysis is asked about; the
	// worst arrival and critical path are computed over these.
	Outputs []string
	// Observer, when non-nil, receives this request's span events
	// (AnalyzeStart / LevelStart / StageEval / AnalyzeEnd — see
	// obs.Observer for the ordering and concurrency contract). Nil costs
	// nothing: the engine never constructs an event or reads the clock.
	Observer obs.Observer
	// Incremental turns on ECO dirty-cone re-analysis: the Analyzer keeps a
	// per-stage content-digest + arrival memo from the previous incremental
	// run, and only stages whose digest changed (or that sit downstream of a
	// changed arrival) are re-evaluated; the rest replay their memoized
	// arrivals and diagnostics. The first incremental call has no baseline
	// and analyzes everything. Results are bit-for-bit identical to a
	// from-scratch analysis when Epsilon is 0 (see eco.go). Incremental
	// requests on one Analyzer are serialized against each other;
	// non-incremental requests never touch the memo.
	Incremental bool
	// Epsilon is the ECO early-stop tolerance: a re-computed arrival within
	// Epsilon (absolute, per field) of the memoized one does not propagate
	// dirtiness downstream. 0 means exact bit equality — the only setting
	// that preserves the incremental ≡ from-scratch guarantee.
	Epsilon float64
}

// AnalyzeContext runs a full timing analysis for one request: the netlist
// is partitioned into stages, stages are levelized, each level's rise/fall
// evaluations run across the worker pool (reusing cached delays), and
// arrivals propagate from the primary inputs to the requested outputs.
//
// Cancellation: ctx is checked before any work, between dependency levels,
// and inside the worker drain. On cancellation, workers stop picking up
// new items, every in-flight evaluation runs to completion (so the
// single-flight delay cache is never left holding a permanently pending
// entry — a later Analyze on the same Analyzer re-evaluates normally), all
// worker goroutines are joined, and ctx.Err() is returned.
//
// Determinism: for a given request, arrivals, the critical path,
// StagesEvaluated and every deterministic metric (see obs.Snapshot.
// Deterministic) are bit-for-bit identical at any Workers setting.
func (a *Analyzer) AnalyzeContext(ctx context.Context, req Request) (res *Result, err error) {
	if req.Incremental {
		// Incremental runs read and replace the Analyzer's ECO baseline, so
		// they are serialized; plain runs stay lock-free and concurrent.
		a.ecoMu.Lock()
		defer a.ecoMu.Unlock()
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Bail before the single-flight cache sees the request: an
	// already-cancelled context must leave the Analyzer untouched.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Pre-flight validation: reject malformed netlists (ErrInvalidNetlist)
	// and out-of-range primary inputs (ErrInvalidInput) before any solver
	// (or cache) work happens.
	if err := preflight(req.Netlist, req.Primary); err != nil {
		return nil, err
	}

	stages := circuit.ExtractStages(req.Netlist, req.Outputs)
	if len(stages) == 0 {
		return nil, fmt.Errorf("sta: no logic stages found")
	}

	// Per-request arena: every map, slab and key buffer below comes from the
	// pooled scratch, so a warm Analyze allocates almost nothing. Nothing
	// reachable from the returned Result aliases it (see arena.go).
	s := a.getScratch()
	defer a.putScratch(s)

	// Net → producing stage, then Kahn levelization over gate connectivity.
	producer := s.producer
	for _, st := range stages {
		for _, o := range st.Outputs {
			producer[o] = st
		}
	}
	levels, err := s.levelize(stages, producer)
	if err != nil {
		// A combinational loop is an input defect, not an engine failure:
		// classify it with the rest of the pre-flight taxonomy.
		return nil, fmt.Errorf("%w: %v", ErrInvalidNetlist, err)
	}

	// Fanout-load index: one pass over the netlist instead of a rescan of
	// every transistor and capacitor per stage output.
	loads := &s.ix
	loads.build(req.Netlist, a.tech)

	workers := a.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Observation plumbing: rec is nil unless an observer or a metrics
	// registry is attached, and every instrumentation site below is gated
	// on that one pointer — the unobserved path does no extra work.
	observer := req.Observer
	// Distributed tracing: a trace reference on the context (minted by the
	// service front door) bridges the Observer span stream into the request's
	// trace tree and arms traced tier probing. trace is shared read-only by
	// every worker; its T stays nil on the untraced path, which pays exactly
	// one context Value lookup.
	var trace obs.TraceRef
	if ref, ok := obs.TraceFrom(ctx); ok {
		bridge := obs.NewTraceBridge(ref)
		if observer != nil {
			observer = obs.Multi{observer, bridge}
		} else {
			observer = bridge
		}
		trace = obs.TraceRef{T: ref.T, Parent: bridge.AnalyzeID(), Level: ref.Level, Item: ref.Item}
	}
	rec := a.newRecorder(observer)
	if rec != nil {
		totalItems := 0
		for _, st := range stages {
			totalItems += 2 * len(st.Outputs)
		}
		rec.analyzeStart(obs.AnalyzeStartInfo{
			Stages:  len(stages),
			Levels:  len(levels),
			Items:   totalItems,
			Outputs: len(req.Outputs),
			Workers: workers,
		})
		defer func() { rec.analyzeEnd(res, err) }()
	}

	res = &Result{Arrivals: map[string]Arrival{}}
	evalStart := a.cache.evals.Load()
	// Key-derivation context: the reduction signature suffixes every content
	// key (reduced and unreduced evaluations must never alias), and Memo
	// mode tracks the distinct structural classes seen this Analyze (the
	// scratch's classSeen set). Both live in the sequential gather phase, so
	// the tallies are schedule-independent.
	redSig := a.cfg.Reduction.Signature()
	for net, ar := range req.Primary {
		res.Arrivals[circuit.CanonName(net)] = ar
	}

	// Incremental (ECO) mode: diff per-stage content digests against the
	// previous committed run and schedule only dirty stages (see eco.go).
	var eco *ecoRun
	if req.Incremental {
		eco = a.beginECO(s, res, producer, req.Epsilon)
		res.ECO.Incremental = true
	}

	for li, level := range levels {
		// Cancellation checkpoint between levels: completed levels keep
		// their cache entries, the rest of the schedule is abandoned.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}

		// Clean stages replay their memoized arrivals inside filterLevel;
		// only the dirty remainder reaches the gather/evaluate machinery.
		if eco != nil {
			level = eco.filterLevel(a, s, level, loads, res, redSig)
			if len(level) == 0 {
				continue
			}
		}

		// Size this level's slabs up front: appends below can then never
		// reallocate, so the &evs[i] pointers handed to work items stay
		// stable while the level is filled.
		nOut := 0
		for _, st := range level {
			nOut += len(st.Outputs)
		}
		evs := s.evs
		if cap(evs) < nOut {
			evs = make([]outEval, nOut)
		} else {
			evs = evs[:nOut]
		}
		items := s.items
		if cap(items) < 2*nOut {
			items = make([]workItem, 2*nOut)
		} else {
			items = items[:2*nOut]
		}
		s.evs, s.items = evs, items
		ins := s.ins[:0]
		// Load maps are per level: an output's map is dead once its level's
		// apply phase completes, so each level reuses the pool from the top.
		s.resetLoadMaps()

		// Gather phase (sequential): the worst input arrivals per stage
		// depend only on completed earlier levels. The per-output evaluation
		// context (stage-content key + load digest + load map) is built here,
		// once per (stage, output), so the parallel lookup path below does no
		// key formatting at all.
		vi := 0
		for _, st := range level {
			si := gatherInputs(st, res.Arrivals)
			ins = append(ins, si)
			for _, out := range st.Outputs {
				ol := loads.stageLoadsInto(s.loadMap(), st, out)
				kb := s.appendStageKey(s.keyBuf[:0], st, out)
				kb = append(kb, '|')
				kb = s.appendLoadDigest(kb, ol)
				kb = append(kb, redSig...)
				s.keyBuf = kb
				ev := &evs[vi]
				vi++
				*ev = outEval{contentKey: a.keys.intern(kb), loads: ol}
				a.resolveBases(s, ev, st, out, redSig, res)
				// An input that rises makes the pull-down conduct (output
				// falls), and vice versa; each direction sees the slew of
				// the edge that triggers it.
				n := 2 * (vi - 1)
				resetItem(&items[n], st, out, ev, circuit.GroundNode, si.riseSlew, li, n)
				resetItem(&items[n+1], st, out, ev, circuit.SupplyNode, si.fallSlew, li, n+1)
			}
		}
		s.ins = ins

		var levelStart time.Time
		if rec != nil {
			rec.levelStart(obs.LevelStartInfo{
				Level:  li,
				Levels: len(levels),
				Stages: len(level),
				Items:  len(items),
			})
			levelStart = time.Now()
		}

		// Evaluate phase (parallel): drain the level's items through the
		// worker pool; the single-flight cache deduplicates identical keys.
		if rerr := a.runItems(ctx, items, workers, rec, &trace); rerr != nil {
			return nil, rerr
		}

		if rec != nil {
			rec.levelDone(time.Since(levelStart))
		}

		// Apply phase (sequential, deterministic): fold results into
		// arrivals in stage/output order, exactly as the serial engine.
		k := 0
		for si2, st := range level {
			si := &ins[si2]
			for oi, out := range st.Outputs {
				fall, rise := items[k].timing, items[k+1].timing
				k += 2
				res.recordEvalIssues(out, fall, rise)
				if !fall.ok && !rise.ok {
					return nil, fmt.Errorf("sta: stage %s output %q has neither pull-up nor pull-down path", st.Name, out)
				}
				ar := res.Arrivals[out]
				if fall.ok {
					ar.Fall = si.latestRise + fall.delay
					ar.FallSlew = fall.slew
					s.predFall[out] = si.riseFrom
				}
				if rise.ok {
					ar.Rise = si.latestFall + rise.delay
					ar.RiseSlew = rise.slew
					s.predRise[out] = si.fallFrom
				}
				res.Arrivals[out] = ar
				if eco != nil {
					eco.noteOutput(st, oi, out, ar, fall, rise, res)
				}
			}
		}
	}

	// Worst requested output and its path.
	worst, worstNet, worstDir := -1.0, "", ""
	for _, o := range req.Outputs {
		o = circuit.CanonName(o)
		ar, ok := res.Arrivals[o]
		if !ok {
			return nil, fmt.Errorf("sta: output %q has no arrival (not driven?)", o)
		}
		if ar.Fall > worst {
			worst, worstNet, worstDir = ar.Fall, o, "fall"
		}
		if ar.Rise > worst {
			worst, worstNet, worstDir = ar.Rise, o, "rise"
		}
	}
	res.WorstArrival = worst
	res.WorstOutput = worstNet
	res.StagesEvaluated = int(a.cache.evals.Load() - evalStart)
	// Trace the critical path back through alternating directions.
	net, dir := worstNet, worstDir
	for net != "" {
		res.CriticalPath = append(res.CriticalPath, net)
		p := s.predFall[net]
		if dir != "fall" {
			p = s.predRise[net]
		}
		if dir == "fall" {
			dir = "rise"
		} else {
			dir = "fall"
		}
		if p == net {
			break
		}
		net = p
	}
	// Commit the new ECO baseline only on success: a failed or cancelled run
	// leaves the previous self-consistent memo in place.
	if eco != nil {
		a.ecoPrev = eco.commit(s, res, req)
	}
	return res, nil
}
