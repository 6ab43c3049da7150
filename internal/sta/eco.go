package sta

import (
	"math"
	"slices"

	"qwm/internal/circuit"
)

// This file is the incremental (ECO) re-analysis layer: after a local edit —
// a transistor resize, a load change, a buffer insertion — a production
// timing flow re-runs analysis thousands of times, and almost all of the DAG
// outside the edit's fanout cone is bit-for-bit unchanged. Request.
// Incremental makes AnalyzeContext diff a per-stage content digest against
// the previous committed run, seed the levelized schedule with only the
// dirty stages, propagate dirtiness through fanout cones via arrival
// comparison, and replay the memoized arrivals/diagnostics for everything
// else. With Epsilon == 0 (the default) an output counts as unchanged only
// under exact bit equality, so the incremental result is bit-for-bit
// identical to a from-scratch analysis — the randomized edit-sequence
// differential in internal/verify gates exactly that.
//
// The memo is committed only when the analysis succeeds, so a failed or
// cancelled incremental request leaves the previous (self-consistent)
// baseline in place. Non-incremental requests never read or write the memo:
// the plain hot path is untouched (TestAllocBudget still gates it).

// ECOStats is the incremental-run accounting surfaced on Result.ECO.
type ECOStats struct {
	// Incremental is true when the request ran through the dirty-cone
	// scheduler (Request.Incremental), even on the first call, where
	// everything is dirty because there is no baseline yet.
	Incremental bool
	// DirtyStages counts the stages scheduled for re-evaluation: digest
	// changes (geometry, wiring, fanout loads), new stages, and stages
	// downstream of a changed arrival.
	DirtyStages int
	// SkippedStages counts the stages replayed from the memo without any
	// cache lookup or solver work. DirtyStages + SkippedStages equals the
	// netlist's stage count.
	SkippedStages int
	// EarlyStops counts dirty outputs whose re-computed arrival matched the
	// memo within Epsilon (exactly, when Epsilon is 0): their fanout cones
	// were not propagated into.
	EarlyStops int
}

// ecoStage is the per-stage memo record: the per-output content digests
// (the digest part of every raw Key the stage's outputs produce) that decide
// cleanliness and drive fpTable invalidation when the stage later goes dirty,
// plus both directions' timings per output (for re-folding the Result
// diagnostics exactly as a scratch run would).
type ecoStage struct {
	contents   []digest
	fall, rise []dirTiming
}

// ecoMemo is one committed run: the stage records keyed by stage identity
// (the sorted channel-node set, stable across unrelated edits), the full
// arrival map, the critical-path predecessor maps, and the canonicalized
// primary arrivals the run was given.
type ecoMemo struct {
	stages   map[string]*ecoStage
	arrivals map[string]Arrival
	predFall map[string]string
	predRise map[string]string
	primary  map[string]Arrival
}

// ecoRun is the per-request incremental state.
type ecoRun struct {
	prev *ecoMemo
	eps  float64
	// changed marks nets whose arrival this run differs from the committed
	// baseline; a stage with a changed input cannot be replayed.
	changed map[string]bool
	// nextStages accumulates the records for the memo being built: clean
	// stages carry their previous record forward, dirty stages get a fresh
	// one filled during the apply phase.
	nextStages map[string]*ecoStage
	pending    map[*circuit.Stage]*ecoStage
	pendingID  map[*circuit.Stage]string
	// Scratch buffers for the digest walk and the per-level dirty schedule.
	loadTmp  map[string]float64
	contents []digest
	dirtyBuf []*circuit.Stage
}

// stageIdentity names a stage by its sorted channel-node set — unlike the
// positional "stage%d" name, it survives stages being added or removed
// elsewhere in the netlist.
func stageIdentity(st *circuit.Stage) string {
	n := 0
	for _, nd := range st.Nodes {
		n += len(nd) + 1
	}
	b := make([]byte, 0, n)
	for _, nd := range st.Nodes {
		b = append(b, nd...)
		b = append(b, 0)
	}
	return string(b)
}

// beginECO sets up the incremental run: it adopts the committed baseline
// (or an empty one — then every stage is dirty and the run degenerates to a
// recorded full analysis), copies the baseline's critical-path predecessors
// into the scratch so clean cones can be traced through, and seeds the
// changed-net set from the primary-arrival diff plus any net that lost its
// producer since the baseline. res.Arrivals must already hold this request's
// canonicalized primary arrivals.
func (a *Analyzer) beginECO(s *analyzeScratch, res *Result, producer map[string]*circuit.Stage, eps float64) *ecoRun {
	prev := a.ecoPrev
	if prev == nil {
		prev = &ecoMemo{}
	}
	e := &ecoRun{
		prev:       prev,
		eps:        eps,
		changed:    map[string]bool{},
		nextStages: map[string]*ecoStage{},
		pending:    map[*circuit.Stage]*ecoStage{},
		pendingID:  map[*circuit.Stage]string{},
		loadTmp:    map[string]float64{},
	}
	for k, v := range prev.predFall {
		s.predFall[k] = v
	}
	for k, v := range prev.predRise {
		s.predRise[k] = v
	}
	for net, ar := range res.Arrivals {
		if p, ok := prev.primary[net]; !ok || !e.arrivalEq(p, ar) {
			e.changed[net] = true
		}
	}
	for net, p := range prev.primary {
		if cur, ok := res.Arrivals[net]; !ok || !e.arrivalEq(cur, p) {
			e.changed[net] = true
		}
	}
	// A net that had an arrival in the baseline but is neither primary nor
	// produced any more is unconstrained now: consumers see the zero Arrival.
	for net, p := range prev.arrivals {
		if _, isPrim := res.Arrivals[net]; isPrim {
			continue
		}
		if _, produced := producer[net]; produced {
			continue
		}
		if !e.arrivalEq(p, Arrival{}) {
			e.changed[net] = true
		}
	}
	return e
}

// arrivalEq is the early-stop equality: exact bit equality when eps is 0,
// otherwise per-field absolute tolerance.
func (e *ecoRun) arrivalEq(a, b Arrival) bool {
	if e.eps == 0 {
		return a == b
	}
	return math.Abs(a.Rise-b.Rise) <= e.eps &&
		math.Abs(a.Fall-b.Fall) <= e.eps &&
		math.Abs(a.RiseSlew-b.RiseSlew) <= e.eps &&
		math.Abs(a.FallSlew-b.FallSlew) <= e.eps
}

// filterLevel partitions one dependency level into clean and dirty stages
// and returns the dirty schedule. A stage is clean when its per-output
// content digests (contentDigest: stage content, loads, reduction signature)
// match the baseline record AND none of its inputs carries a changed
// arrival; clean stages replay their memoized arrivals and diagnostics
// here, paying no cache lookups and no solver work. A stage
// whose digest changed additionally invalidates its stale fpTable entries —
// the raw-key → class-key memo would otherwise keep a dead resolution per
// edited stage forever.
func (e *ecoRun) filterLevel(a *Analyzer, s *analyzeScratch, level []*circuit.Stage, loads *loadIndex, res *Result, redSig string) []*circuit.Stage {
	dirty := e.dirtyBuf[:0]
	for _, st := range level {
		id := stageIdentity(st)
		cur := e.contents[:0]
		for _, out := range st.Outputs {
			ol := loads.stageLoadsInto(e.loadTmp, st, out)
			cur = append(cur, s.contentDigest(st, out, ol, redSig))
		}
		e.contents = cur

		rec := e.prev.stages[id]
		same := rec != nil && slices.Equal(rec.contents, cur)
		clean := same
		if clean {
			for _, in := range st.Inputs {
				if e.changed[in] {
					clean = false
					break
				}
			}
		}
		if clean {
			for _, out := range st.Outputs {
				if _, ok := e.prev.arrivals[out]; !ok {
					clean = false
					break
				}
			}
		}
		if clean {
			e.nextStages[id] = rec
			for i, out := range st.Outputs {
				res.Arrivals[out] = e.prev.arrivals[out]
				res.recordEvalIssues(out, rec.fall[i], rec.rise[i])
			}
			res.ECO.SkippedStages++
			continue
		}
		if rec != nil && !same {
			a.invalidateFP(rec.contents)
		}
		e.pending[st] = &ecoStage{
			contents: slices.Clone(cur),
			fall:     make([]dirTiming, len(st.Outputs)),
			rise:     make([]dirTiming, len(st.Outputs)),
		}
		e.pendingID[st] = id
		res.ECO.DirtyStages++
		dirty = append(dirty, st)
	}
	e.dirtyBuf = dirty
	return dirty
}

// noteOutput records one dirty output's apply-phase outcome: the timings go
// into the stage's pending memo record, and the new arrival is compared to
// the baseline. A match within Epsilon is an early stop — downstream stages
// do not see this net as changed, so the edit's cone stops propagating the
// moment its numerical effect dies out.
func (e *ecoRun) noteOutput(st *circuit.Stage, oi int, out string, ar Arrival, fall, rise dirTiming, res *Result) {
	rec := e.pending[st]
	rec.fall[oi], rec.rise[oi] = fall, rise
	if p, ok := e.prev.arrivals[out]; ok && e.arrivalEq(p, ar) {
		res.ECO.EarlyStops++
		return
	}
	e.changed[out] = true
}

// commit freezes this run as the new baseline. Everything is cloned — the
// memo must not alias the returned Result (the caller owns it) or the pooled
// scratch. Predecessors are pruned to nets with an arrival, so removed
// stages cannot accumulate stale entries across an edit sequence.
func (e *ecoRun) commit(s *analyzeScratch, res *Result, req Request) *ecoMemo {
	m := &ecoMemo{
		stages:   e.nextStages,
		arrivals: make(map[string]Arrival, len(res.Arrivals)),
		predFall: make(map[string]string, len(s.predFall)),
		predRise: make(map[string]string, len(s.predRise)),
		primary:  make(map[string]Arrival, len(req.Primary)),
	}
	for st, rec := range e.pending {
		m.stages[e.pendingID[st]] = rec
	}
	for k, v := range res.Arrivals {
		m.arrivals[k] = v
	}
	for k, v := range s.predFall {
		if _, ok := res.Arrivals[k]; ok {
			m.predFall[k] = v
		}
	}
	for k, v := range s.predRise {
		if _, ok := res.Arrivals[k]; ok {
			m.predRise[k] = v
		}
	}
	for net, ar := range req.Primary {
		m.primary[circuit.CanonName(net)] = ar
	}
	return m
}
