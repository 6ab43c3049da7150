package obs

import "time"

// Observer receives the structured span events of one timing analysis:
//
//	AnalyzeStart                          once, after levelization
//	  LevelStart                          once per dependency level, in order
//	    StageEval                         once per (stage output, direction)
//	AnalyzeEnd                            once, success, failure or cancel
//
// Ordering guarantees: AnalyzeStart precedes every other event; LevelStart
// for level k precedes every StageEval of level k and follows every event
// of levels < k; AnalyzeEnd is last. Within a level, StageEval events may
// be delivered CONCURRENTLY and in any order when the analyzer runs with
// Workers > 1 — implementations must be safe for concurrent StageEval
// calls, and consumers that need a stable order should sort by
// (Level, Item), which identifies each evaluation deterministically.
//
// A nil Observer on a request disables eventing entirely; the engine then
// never constructs an event, and reads the clock only for an attached
// metrics registry or request trace.
type Observer interface {
	AnalyzeStart(AnalyzeStartInfo)
	LevelStart(LevelStartInfo)
	StageEval(StageEvalInfo)
	AnalyzeEnd(AnalyzeEndInfo)
}

// AnalyzeStartInfo describes the shape of the analysis about to run.
type AnalyzeStartInfo struct {
	// Stages is the number of extracted logic stages; Levels the number of
	// Kahn dependency levels they form.
	Stages, Levels int
	// Items is the total number of (stage output, direction) evaluations
	// the analysis will schedule (two per stage output).
	Items int
	// Outputs is the number of requested primary outputs.
	Outputs int
	// Workers is the effective worker-pool width (after defaulting).
	Workers int
}

// LevelStartInfo marks the start of one dependency level's evaluation.
type LevelStartInfo struct {
	// Level is the 0-based level index; Levels the total count.
	Level, Levels int
	// Stages and Items are this level's stage and work-item counts.
	Stages, Items int
}

// QWMStats mirrors the per-evaluation solver statistics the QWM engine
// reports (qwm.Stats): region count, Newton iterations, dense-LU recoveries
// after a tridiagonal pivot breakdown, and secant-capacitance re-solves.
type QWMStats struct {
	Regions        int
	NRIters        int
	DenseFallbacks int
	CapResolves    int
}

// StageEvalInfo describes one resolved (stage output, direction) work item.
// For cache hits, QWM carries the statistics recorded when the entry was
// originally computed; Duration is then just the lookup (and possibly the
// single-flight wait) time.
type StageEvalInfo struct {
	// Level and Item locate the work item deterministically: Item is the
	// index within the level's schedule (fall then rise per output, outputs
	// in stage order), identical for serial and parallel runs.
	Level, Item int
	// Output is the stage output net; Direction is "rise" or "fall".
	Output    string
	Direction string
	// CacheHit reports whether the delay cache already held the entry
	// (including waits on a concurrent computation of the same key).
	CacheHit bool
	// Duration is the wall time of the cache resolution — the full QWM
	// evaluation on a miss, the lookup/wait on a hit.
	Duration time.Duration
	// QWM carries the solver statistics of the evaluation that produced
	// this entry.
	QWM QWMStats
	// Tier names the degradation-ladder rung that produced this timing
	// ("qwm", "qwm-bisect", "spice", "rc-bound"); empty when the direction
	// failed outright. Like the solver stats, it is a property of the cached
	// entry and therefore deterministic at any Workers setting.
	Tier string
	// Worker is the 0-based worker-pool slot that resolved this item: 0 on
	// the serial path, arbitrary under Workers > 1. Schedule-dependent by
	// nature — consumers asserting determinism must ignore it (the trace
	// exporter's Deterministic mode strips it).
	Worker int
	// Err is non-empty when the direction's evaluation failed (no
	// conducting path or a convergence failure).
	Err string
}

// AnalyzeEndInfo summarizes one completed (or aborted) analysis.
type AnalyzeEndInfo struct {
	// Duration is the full Analyze wall time.
	Duration time.Duration
	// CacheHits/CacheMisses count this analysis's cache resolutions; their
	// sum is the number of StageEval events delivered.
	CacheHits, CacheMisses int64
	// HitRatio is CacheHits / (CacheHits + CacheMisses), 0 when no lookups
	// were performed.
	HitRatio float64
	// StagesEvaluated, EvalErrors and SlewFallbacks mirror the Result
	// fields (zero when the analysis failed before producing a result).
	StagesEvaluated int
	EvalErrors      int
	SlewFallbacks   int
	// Err is the analysis error, if any. Cancelled additionally marks
	// context cancellation/deadline errors.
	Err       error
	Cancelled bool
}

// Nop is an Observer that ignores every event. Useful as an explicit
// stand-in and as the overhead baseline in benchmarks.
type Nop struct{}

func (Nop) AnalyzeStart(AnalyzeStartInfo) {}
func (Nop) LevelStart(LevelStartInfo)     {}
func (Nop) StageEval(StageEvalInfo)       {}
func (Nop) AnalyzeEnd(AnalyzeEndInfo)     {}

// Funcs adapts free functions to the Observer interface; nil fields ignore
// their event. Handy for tests and one-off instrumentation.
type Funcs struct {
	OnAnalyzeStart func(AnalyzeStartInfo)
	OnLevelStart   func(LevelStartInfo)
	OnStageEval    func(StageEvalInfo)
	OnAnalyzeEnd   func(AnalyzeEndInfo)
}

func (f Funcs) AnalyzeStart(i AnalyzeStartInfo) {
	if f.OnAnalyzeStart != nil {
		f.OnAnalyzeStart(i)
	}
}

func (f Funcs) LevelStart(i LevelStartInfo) {
	if f.OnLevelStart != nil {
		f.OnLevelStart(i)
	}
}

func (f Funcs) StageEval(i StageEvalInfo) {
	if f.OnStageEval != nil {
		f.OnStageEval(i)
	}
}

func (f Funcs) AnalyzeEnd(i AnalyzeEndInfo) {
	if f.OnAnalyzeEnd != nil {
		f.OnAnalyzeEnd(i)
	}
}
