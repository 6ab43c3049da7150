package sta

import (
	"context"
	"fmt"
	"runtime"

	"qwm/internal/circuit"
	"qwm/internal/obs"
	"qwm/internal/slab"
)

// Request is the front door of the request-shaped STA API: one analysis of
// one netlist, with an optional per-request Observer for structured span
// events. Every setting that can change a result (reduction, budget, fault
// plan) lives on the Analyzer's Config, fixed at New — a Request carries
// only the circuit, its stimulus and per-call plumbing.
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
	// obs.Observer for the ordering and concurrency contract). The engine
	// calls it directly: LevelStart ahead of the level's gather phase, and
	// each StageEval right after its item resolves, on the worker that
	// resolved it. It is independent of the request trace, which the engine
	// writes itself when ctx carries one (obs.ContextWithTrace). Nil costs
	// nothing: without an observer, a metrics registry or a trace the
	// engine never constructs an event or reads the clock.
	Observer obs.Observer
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
	if ctx == nil {
		ctx = context.Background()
	}
	// Bail before the single-flight cache sees the request: an
	// already-cancelled context must leave the Analyzer untouched.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Per-request arena: every map, slab and key buffer below comes from the
	// pooled scratch, so a warm Analyze allocates almost nothing. Nothing
	// reachable from the returned Result aliases it (see arena.go); the
	// stages carved from it are valid only until this call returns.
	s := getScratch()
	defer putScratch(s)

	// Pre-flight validation: reject malformed netlists (ErrInvalidNetlist)
	// and out-of-range primary inputs (ErrInvalidInput) before any solver
	// (or cache) work happens. It numbers the netlist's nodes once; the
	// extraction and the load index below reuse that table.
	if err := s.preflight(req.Netlist, req.Primary); err != nil {
		return nil, err
	}

	stages := s.ex.Extract(req.Netlist, req.Outputs)
	if len(stages) == 0 {
		return nil, fmt.Errorf("%w: no logic stages found", ErrInvalidNetlist)
	}

	// Net → producing stage, then Kahn levelization over gate connectivity.
	producer := s.producer
	totalOut := 0
	for _, st := range stages {
		totalOut += len(st.Outputs)
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
	loads.build(req.Netlist, &s.ex.Nodes, a.tech)

	workers := a.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Observation plumbing: rec is nil unless an observer, a metrics
	// registry or a request trace is attached, and every instrumentation
	// site below is gated on that one pointer — the unobserved path does no
	// extra work. A trace reference on the context (minted by the service
	// front door, or by cmd/sta -trace) makes the recorder write the
	// engine's spans into the request's trace tree and arms traced tier
	// probing. lt.trace is shared read-only by every worker; its T stays nil
	// on the untraced path, which pays exactly one context Value lookup.
	var lt levelTiers
	rec := a.newRecorder(ctx, req.Observer)
	if rec != nil {
		lt.trace = rec.trace
		rec.analyzeStart(obs.AnalyzeStartInfo{
			Stages:  len(stages),
			Levels:  len(levels),
			Items:   2 * totalOut,
			Outputs: len(req.Outputs),
			Workers: workers,
		})
		defer func() { rec.analyzeEnd(res, err) }()
	}

	// Sized for every arrival the analysis records: the primary inputs and
	// each stage output.
	res = &Result{Arrivals: make(map[string]Arrival, len(req.Primary)+totalOut)}
	// The reduction signature is part of every content digest: reduced and
	// unreduced evaluations must never alias.
	redSig := a.cfg.Reduction.Signature()
	for net, ar := range req.Primary {
		res.Arrivals[circuit.CanonName(net)] = ar
	}

	for li, level := range levels {
		// Cancellation checkpoint between levels: completed levels keep
		// their cache entries, the rest of the schedule is abandoned.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}

		nOut := 0
		for _, st := range level {
			nOut += len(st.Outputs)
		}
		// The level's one timed interval runs from here to the end of its
		// apply phase: the span and sta/time/level_seconds both cover the
		// gather, peek, tier read, evaluation and apply phases.
		if rec != nil {
			rec.levelStart(obs.LevelStartInfo{
				Level:  li,
				Levels: len(levels),
				Stages: len(level),
				Items:  2 * nOut,
			})
		}
		// Size this level's slabs up front: appends below can then never
		// reallocate, so the &evs[i] pointers handed to work items stay
		// stable while the level is filled.
		s.evs = slab.Resize(s.evs, nOut)
		s.items = slab.Resize(s.items, 2*nOut)
		s.ins = slab.Resize(s.ins, len(level))
		evs, items, ins := s.evs, s.items, s.ins
		// Load maps are per level: an output's map is dead once its level's
		// apply phase completes, so each level reuses the pool from the top.
		s.resetLoadMaps()

		// Gather phase (sequential): the worst input arrivals per stage
		// depend only on completed earlier levels. The per-output evaluation
		// context (load map and per-direction keys) is built here, once per
		// (stage, output), so the parallel lookup path below only fills in
		// slew buckets.
		vi := 0
		for k, st := range level {
			si := gatherInputs(st, res.Arrivals)
			ins[k] = si
			for _, out := range st.Outputs {
				ol := loads.stageLoadsInto(s.loadMap(), st, out)
				ev := &evs[vi]
				vi++
				*ev = outEval{loads: ol}
				content := s.contentDigest(st, out, ol, redSig)
				ev.keyFall = makeKey(&content, 0)
				ev.keyRise = makeKey(&content, nsRise)
				// An input that rises makes the pull-down conduct (output
				// falls), and vice versa; each direction sees the slew of
				// the edge that triggers it.
				n := 2 * (vi - 1)
				resetItem(&items[n], st, out, ev, circuit.GroundNode, si.riseSlew, li, n)
				resetItem(&items[n+1], st, out, ev, circuit.SupplyNode, si.fallSlew, li, n+1)
			}
		}

		// Peek (sequential): items whose key is already finished take their
		// value here; the rest are pending. Tier read (sequential): one
		// batched read per store for every pending key the memory cache
		// lacks.
		s.pending = a.peekLevel(items, s.pending)
		if len(a.cfg.Tiers) > 0 {
			lt.hits = a.readTiers(s, items, s.pending, li, &lt.trace)
		}

		// Evaluate phase (parallel): drain the level's pending items through
		// the worker pool; the single-flight cache deduplicates identical
		// keys.
		if rerr := a.runItems(ctx, items, s.pending, workers, rec, &lt); rerr != nil {
			return nil, rerr
		}

		// Apply phase (sequential, deterministic): fold results into
		// arrivals in stage/output order, exactly as the serial engine.
		k := 0
		for si2, st := range level {
			si := &ins[si2]
			for _, out := range st.Outputs {
				fall, rise := items[k].timing, items[k+1].timing
				res.StagesEvaluated += items[k].evals + items[k+1].evals
				if rec != nil {
					rec.resolved(&items[k])
					rec.resolved(&items[k+1])
				}
				k += 2
				res.recordEvalIssues(out, fall, rise)
				if !fall.ok && !rise.ok {
					return nil, fmt.Errorf("%w: stage %s output %q has neither pull-up nor pull-down path", ErrInvalidNetlist, st.Name, out)
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
			}
		}
		if rec != nil {
			rec.levelEnd()
		}
	}

	// Worst requested output and its path.
	worst, worstNet, worstDir := -1.0, "", ""
	for _, o := range req.Outputs {
		o = circuit.CanonName(o)
		ar, ok := res.Arrivals[o]
		if !ok {
			return nil, fmt.Errorf("%w: output %q has no arrival (not driven?)", ErrInvalidNetlist, o)
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
	return res, nil
}
