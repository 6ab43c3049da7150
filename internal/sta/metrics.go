package sta

import (
	"context"
	"errors"
	"time"

	"qwm/internal/circuit"
	"qwm/internal/obs"
)

// Metric names published by the STA engine into an attached obs.Registry.
// Names under "sta/time/" are wall-clock observations and are excluded by
// obs.Snapshot.Deterministic(); everything else is bit-for-bit identical at
// any Workers setting (single-flight caching makes the set of computed keys,
// and therefore every counter and histogram below, independent of the
// schedule).
const (
	mAnalyzes       = "sta/analyzes"
	mCancelled      = "sta/cancelled"
	mCacheHits      = "sta/cache_hits"
	mCacheMisses    = "sta/cache_misses"
	mEvalErrors     = "sta/eval_errors"
	mSlewFallbacks  = "sta/slew_fallbacks"
	mNRIters        = "sta/qwm_nr_iters"
	mRegions        = "sta/qwm_regions"
	mDenseFallbacks = "sta/qwm_dense_fallbacks"
	mCapResolves    = "sta/qwm_cap_resolves"
	mDegraded       = "sta/degraded"
	mPanics         = "sta/panics_recovered"
	mReduceNodes    = "sta/reduce/nodes_removed"
	// mTierPrefix + Tier.String() counts computed directions per ladder
	// tier (e.g. "sta/tier_evals/qwm", "sta/tier_evals/rc-bound").
	mTierPrefix = "sta/tier_evals/"

	hNRItersPerEval = "sta/nr_iters_per_eval"
	hRegionsPerEval = "sta/regions_per_eval"
	hEvalSeconds    = "sta/time/eval_seconds"
	hLevelSeconds   = "sta/time/level_seconds"
	hAnalyzeSeconds = "sta/time/analyze_seconds"
)

// Exported metric-name aliases for ops consumers (the CLI's cache line and
// quantile summary, dashboards scraping /metrics before name sanitization).
// The unexported originals above stay the single source of truth.
const (
	MetricCacheHits      = mCacheHits
	MetricCacheMisses    = mCacheMisses
	MetricNRItersPerEval = hNRItersPerEval
	MetricRegionsPerEval = hRegionsPerEval
	MetricEvalSeconds    = hEvalSeconds
	MetricLevelSeconds   = hLevelSeconds
	MetricAnalyzeSeconds = hAnalyzeSeconds
)

// Histogram bucket bounds. The per-eval solver histograms use power-of-two
// buckets (an eval is typically a handful of regions and tens of Newton
// iterations); the timing histograms use decades from 1 µs to 1 s.
var (
	nrIterBounds  = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}
	regionBounds  = []float64{2, 4, 8, 16, 32, 64, 128, 256}
	secondsBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}
)

// metricSet caches the instrument handles for one registry so the hot path
// never does a name lookup. Built once per Analyzer, in New, and shared by
// every Analyze.
type metricSet struct {
	analyzes, cancels        *obs.Counter
	cacheHits, cacheMisses   *obs.Counter
	evalErrors, slewFbs      *obs.Counter
	nrIters, regionsTotal    *obs.Counter
	denseFallbacks           *obs.Counter
	capResolves              *obs.Counter
	degraded, panicsRec      *obs.Counter
	reduceNodes              *obs.Counter
	tierEvals                [NumTiers]*obs.Counter
	nrIterHist, regionHist   *obs.Histogram
	evalSeconds              *obs.Histogram
	levelSeconds, analyzeSec *obs.Histogram
}

func newMetricSet(r *obs.Registry) *metricSet {
	if r == nil {
		return nil
	}
	ms := &metricSet{
		analyzes:       r.Counter(mAnalyzes),
		cancels:        r.Counter(mCancelled),
		cacheHits:      r.Counter(mCacheHits),
		cacheMisses:    r.Counter(mCacheMisses),
		evalErrors:     r.Counter(mEvalErrors),
		slewFbs:        r.Counter(mSlewFallbacks),
		nrIters:        r.Counter(mNRIters),
		regionsTotal:   r.Counter(mRegions),
		denseFallbacks: r.Counter(mDenseFallbacks),
		capResolves:    r.Counter(mCapResolves),
		degraded:       r.Counter(mDegraded),
		panicsRec:      r.Counter(mPanics),
		reduceNodes:    r.Counter(mReduceNodes),
		nrIterHist:     r.Histogram(hNRItersPerEval, nrIterBounds),
		regionHist:     r.Histogram(hRegionsPerEval, regionBounds),
		evalSeconds:    r.Histogram(hEvalSeconds, secondsBounds),
		levelSeconds:   r.Histogram(hLevelSeconds, secondsBounds),
		analyzeSec:     r.Histogram(hAnalyzeSeconds, secondsBounds),
	}
	for t := Tier(0); t < NumTiers; t++ {
		ms.tierEvals[t] = r.Counter(mTierPrefix + t.String())
	}
	return ms
}

// recorder is the per-Analyze observation context: the request's Observer
// (may be nil), the Analyzer's metric set (may be nil), the context's request
// trace (may be absent), and per-request hit/miss tallies. It sees every
// engine event, feeds each attached sink from it and writes the engine's
// trace spans itself (trace.go). It exists only when at least one sink is
// attached — the engine gates every instrumentation site on a single
// `rec != nil` check, so the unobserved path never reads the clock or
// constructs an event.
type recorder struct {
	o     obs.Observer
	ms    *metricSet
	start time.Time

	// trace is the request trace reference the engine's spans go to: T is
	// nil when the context carries none, Parent is the analyze span's ID and
	// Item the context reference's. traceParent is the analyze span's own
	// parent, and info the analysis shape its attributes report.
	trace       obs.TraceRef
	traceParent string
	info        obs.AnalyzeStartInfo

	// level is the open dependency level and levelAt the start of its
	// gather phase (zero when no level is open). Written only by the
	// sequential coordinator; workers never read them.
	level   obs.LevelStartInfo
	levelAt time.Time

	// Per-request cache accounting, one per applied work item: a miss when
	// the item's own lookups evaluated (workItem.evals), else a hit. The
	// delay cache keeps no counters of its own; these tallies are the only
	// ones, kept per request so concurrent Analyzes on one Analyzer each see
	// exactly their own. Tallied in the sequential apply phase, so a
	// cancelled analysis counts only the levels it completed.
	hits, misses int64
}

// newRecorder returns the observation context for one Analyze, or nil when
// no observer, metrics registry or request trace is attached.
func (a *Analyzer) newRecorder(ctx context.Context, o obs.Observer) *recorder {
	ref, traced := obs.TraceFrom(ctx)
	if o == nil && a.ms == nil && !traced {
		return nil
	}
	r := &recorder{o: o, ms: a.ms, start: time.Now()}
	if traced {
		r.trace = obs.TraceRef{T: ref.T, Parent: analyzeSpanID(ref.Parent), Item: ref.Item}
		r.traceParent = ref.Parent
	}
	return r
}

func (r *recorder) analyzeStart(info obs.AnalyzeStartInfo) {
	r.info = info
	if r.o != nil {
		r.o.AnalyzeStart(info)
	}
}

// levelStart opens a level at the start of its gather phase.
func (r *recorder) levelStart(info obs.LevelStartInfo) {
	if r.o != nil {
		r.o.LevelStart(info)
	}
	r.level, r.levelAt = info, time.Now()
}

// levelEnd closes the open level, if any, at the end of its apply phase (or
// where an error cut it short): its span and its level_seconds observation
// are the same interval.
func (r *recorder) levelEnd() {
	if r.levelAt.IsZero() {
		return
	}
	d := time.Since(r.levelAt)
	if r.ms != nil {
		r.ms.levelSeconds.Observe(d.Seconds())
	}
	if r.trace.T != nil {
		r.levelSpan(d)
	}
	r.levelAt = time.Time{}
}

// resolved tallies one applied work item as a hit or a miss.
func (r *recorder) resolved(it *workItem) {
	if it.evals > 0 {
		r.misses++
	} else {
		r.hits++
	}
}

// stageEval records one (stage, output, direction) resolution. The item is
// computed when THIS request performed a QWM evaluation for it (a cache
// miss); single-flight guarantees each unique key is computed exactly once,
// so the deterministic solver counters and histograms below are fed exactly
// once per key regardless of worker count or scheduling. worker is the pool
// slot that resolved the item — schedule-dependent, for the observer and the
// eval span's lane only. start is when the item's resolution began.
func (r *recorder) stageEval(it *workItem, start time.Time, worker int) {
	d := time.Since(start)
	computed := it.evals > 0
	if r.ms != nil {
		if computed {
			st := it.timing.stats
			r.ms.nrIters.Add(int64(st.NRIters))
			r.ms.regionsTotal.Add(int64(st.Regions))
			r.ms.denseFallbacks.Add(int64(st.DenseFallbacks))
			r.ms.capResolves.Add(int64(st.CapResolves))
			r.ms.nrIterHist.Observe(float64(st.NRIters))
			r.ms.regionHist.Observe(float64(st.Regions))
			r.ms.reduceNodes.Add(int64(it.timing.reduced))
			r.ms.evalSeconds.Observe(d.Seconds())
			if it.timing.ok {
				r.ms.tierEvals[it.timing.tier].Inc()
			}
		}
	}
	if r.o == nil && r.trace.T == nil {
		return
	}
	dir := "fall"
	if it.rail == circuit.SupplyNode {
		dir = "rise"
	}
	tier := ""
	if it.timing.ok {
		tier = it.timing.tier.String()
	}
	if r.o != nil {
		r.o.StageEval(obs.StageEvalInfo{
			Level:     it.level,
			Item:      it.idx,
			Output:    it.out,
			Direction: dir,
			CacheHit:  !computed,
			Duration:  d,
			QWM:       obs.QWMStats(it.timing.stats),
			Tier:      tier,
			Worker:    worker,
			Err:       it.timing.errMsg,
		})
	}
	if r.trace.T != nil {
		r.evalSpan(it, dir, tier, start, d, worker)
	}
}

func (r *recorder) analyzeEnd(res *Result, err error) {
	r.levelEnd()
	info := obs.AnalyzeEndInfo{
		Duration:    time.Since(r.start),
		CacheHits:   r.hits,
		CacheMisses: r.misses,
		Err:         err,
		Cancelled: err != nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)),
	}
	if total := r.hits + r.misses; total > 0 {
		info.HitRatio = float64(r.hits) / float64(total)
	}
	if res != nil {
		info.StagesEvaluated = res.StagesEvaluated
		info.EvalErrors = res.EvalErrors
		info.SlewFallbacks = res.SlewFallbacks
	}
	if r.ms != nil {
		r.ms.analyzes.Inc()
		if info.Cancelled {
			r.ms.cancels.Inc()
		}
		r.ms.cacheHits.Add(r.hits)
		r.ms.cacheMisses.Add(r.misses)
		if res != nil {
			r.ms.evalErrors.Add(int64(res.EvalErrors))
			r.ms.slewFbs.Add(int64(res.SlewFallbacks))
			r.ms.degraded.Add(int64(res.Degraded))
			r.ms.panicsRec.Add(int64(res.PanicsRecovered))
		}
		r.ms.analyzeSec.Observe(info.Duration.Seconds())
	}
	if r.o != nil {
		r.o.AnalyzeEnd(info)
	}
	if r.trace.T != nil {
		r.analyzeSpan(&info)
	}
}
