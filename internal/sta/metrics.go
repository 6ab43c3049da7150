package sta

import (
	"context"
	"errors"
	"sync/atomic"
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
	mClassHits      = "sta/class_hits"
	mClasses        = "sta/classes"
	mFPEvictions    = "sta/class/fp_evictions"
	mEcoDirty       = "sta/eco/dirty_stages"
	mEcoSkipped     = "sta/eco/skipped_stages"
	mEcoEarly       = "sta/eco/early_stops"
	// mTierPrefix + Tier.String() counts computed directions per ladder
	// tier (e.g. "sta/tier_evals/qwm", "sta/tier_evals/rc-bound").
	mTierPrefix = "sta/tier_evals/"

	hNRItersPerEval = "sta/nr_iters_per_eval"
	hRegionsPerEval = "sta/regions_per_eval"
	hEvalSeconds    = "sta/time/eval_seconds"
	hLevelSeconds   = "sta/time/level_seconds"
	hAnalyzeSeconds = "sta/time/analyze_seconds"
)

// Exported metric-name aliases for ops consumers (the CLI's quantile
// summary, dashboards scraping /metrics before name sanitization). The
// unexported originals above stay the single source of truth.
const (
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
	classHits, classes       *obs.Counter
	fpEvictions              *obs.Counter
	ecoDirty, ecoSkipped     *obs.Counter
	ecoEarly                 *obs.Counter
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
		classHits:      r.Counter(mClassHits),
		classes:        r.Counter(mClasses),
		fpEvictions:    r.Counter(mFPEvictions),
		ecoDirty:       r.Counter(mEcoDirty),
		ecoSkipped:     r.Counter(mEcoSkipped),
		ecoEarly:       r.Counter(mEcoEarly),
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
// (may be nil), the Analyzer's metric set (may be nil), and per-request
// hit/miss tallies. It exists only when at least one of the two sinks is
// attached — the engine gates every instrumentation site on a single
// `rec != nil` check, so the unobserved path never reads the clock or
// constructs an event.
type recorder struct {
	o     obs.Observer
	ms    *metricSet
	start time.Time

	// Per-request cache accounting. Kept on the recorder (not derived from
	// the shared cache's global counters) so concurrent Analyzes on one
	// Analyzer each see exactly their own hits and misses. Atomics because
	// stageEval runs from worker goroutines.
	hits, misses atomic.Int64
}

// newRecorder returns the observation context for one Analyze, or nil when
// neither an observer nor a metrics registry is attached.
func (a *Analyzer) newRecorder(o obs.Observer) *recorder {
	if o == nil && a.ms == nil {
		return nil
	}
	return &recorder{o: o, ms: a.ms, start: time.Now()}
}

func (r *recorder) now() time.Time                  { return time.Now() }
func (r *recorder) since(t time.Time) time.Duration { return time.Since(t) }

func (r *recorder) analyzeStart(info obs.AnalyzeStartInfo) {
	if r.o != nil {
		r.o.AnalyzeStart(info)
	}
}

func (r *recorder) levelStart(info obs.LevelStartInfo) {
	if r.o != nil {
		r.o.LevelStart(info)
	}
}

func (r *recorder) levelDone(d time.Duration) {
	if r.ms != nil {
		r.ms.levelSeconds.Observe(d.Seconds())
	}
}

// stageEval records one (stage, output, direction) evaluation. computed is
// true when THIS request performed the QWM evaluation (a cache miss);
// single-flight guarantees each unique key is computed exactly once, so the
// deterministic solver counters and histograms below are fed exactly once
// per key regardless of worker count or scheduling. worker is the pool slot
// that resolved the item — schedule-dependent, observer-only.
func (r *recorder) stageEval(it *workItem, computed bool, d time.Duration, worker int) {
	if computed {
		r.misses.Add(1)
	} else {
		r.hits.Add(1)
	}
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
	if r.o != nil {
		dir := "fall"
		if it.rail == circuit.SupplyNode {
			dir = "rise"
		}
		tier := ""
		if it.timing.ok {
			tier = it.timing.tier.String()
		}
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
}

func (r *recorder) analyzeEnd(res *Result, err error) {
	cancelled := err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	hits, misses := r.hits.Load(), r.misses.Load()
	if r.ms != nil {
		r.ms.analyzes.Inc()
		if cancelled {
			r.ms.cancels.Inc()
		}
		r.ms.cacheHits.Add(hits)
		r.ms.cacheMisses.Add(misses)
		if res != nil {
			r.ms.evalErrors.Add(int64(res.EvalErrors))
			r.ms.slewFbs.Add(int64(res.SlewFallbacks))
			r.ms.degraded.Add(int64(res.Degraded))
			r.ms.panicsRec.Add(int64(res.PanicsRecovered))
			r.ms.classHits.Add(int64(res.ClassHits))
			r.ms.classes.Add(int64(res.ClassCount))
			if res.ECO.Incremental {
				r.ms.ecoDirty.Add(int64(res.ECO.DirtyStages))
				r.ms.ecoSkipped.Add(int64(res.ECO.SkippedStages))
				r.ms.ecoEarly.Add(int64(res.ECO.EarlyStops))
			}
		}
		r.ms.analyzeSec.Observe(time.Since(r.start).Seconds())
	}
	if r.o != nil {
		info := obs.AnalyzeEndInfo{
			Duration:    time.Since(r.start),
			CacheHits:   hits,
			CacheMisses: misses,
			Err:         err,
			Cancelled:   cancelled,
		}
		if total := hits + misses; total > 0 {
			info.HitRatio = float64(hits) / float64(total)
		}
		if res != nil {
			info.StagesEvaluated = res.StagesEvaluated
			info.EvalErrors = res.EvalErrors
			info.SlewFallbacks = res.SlewFallbacks
		}
		r.o.AnalyzeEnd(info)
	}
}
