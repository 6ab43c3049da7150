// Package sta is the static-timing-analysis layer of the paper's title: it
// partitions a transistor netlist into logic stages (channel-connected
// components), levelizes them along gate connectivity, evaluates each
// stage's worst-case rise and fall delays with the QWM engine, and
// propagates arrival times to the primary outputs — "only the timing of the
// logic stages along the longest paths needs to be considered" (§I).
//
// Evaluation is parallel: stages are grouped into dependency levels (Kahn),
// every (stage output, direction) pair in a level becomes an independent
// work item, and a worker pool sized by Config.Workers drains the items
// through a sharded single-flight delay cache. Arrival propagation and
// critical-path bookkeeping stay sequential, so the parallel engine is
// bit-for-bit deterministic: it returns exactly the arrivals, critical path
// and evaluation count the serial (Workers = 1) engine does.
//
// An Analyzer is built with New(tech, lib, Config) and its Config is fixed
// there: a result depends only on the request (netlist, primary inputs,
// outputs) and Config.Signature(). Nothing on a Request overrides the
// analyzer's settings.
//
// Stage delays are cached by stage identity, direction, input-slew bucket
// AND the stage output's load digest, so re-analysis after a local edit (the
// incremental-STA use case) only re-evaluates the directions whose devices,
// input slews or fanout loads changed and re-propagates arrivals. The load
// digest matters: two structurally identical stages driving different fanout
// must not alias to one cache entry, or the second silently inherits the
// first's delay (see TestCacheKeyIncludesLoad).
package sta

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"qwm/internal/circuit"
	"qwm/internal/devmodel"
	"qwm/internal/faultinject"
	"qwm/internal/mos"
	"qwm/internal/obs"
	"qwm/internal/qwm"
	"qwm/internal/wave"
)

// Arrival is a rise/fall arrival-time pair in seconds, with the transition
// times (10–90 % slews) of the arriving edges. The zero Arrival means
// "arrives at t = 0 in both directions as an ideal step".
type Arrival struct {
	Rise, Fall         float64
	RiseSlew, FallSlew float64
}

// Analyzer evaluates stage delays with QWM over a characterized library.
// Construct it with New: its technology, library and Config are fixed there
// for its lifetime, so everything an Analyze computes depends only on the
// request and Config.Signature(). An Analyzer may be shared across
// goroutines — the delay cache is concurrency-safe — though each
// AnalyzeContext call already parallelizes internally.
type Analyzer struct {
	tech *mos.Tech
	lib  *devmodel.Library
	cfg  Config

	cache *delayCache
	// ms holds the Config.Metrics registry's instrument handles so the
	// evaluation hot path never performs a name lookup; nil without Metrics.
	ms *metricSet

	// fp memoizes raw-key → canonical-class-key resolutions (Memo mode).
	fp fpTable
	// keys interns cache-key strings so warm Analyzes build keys in reused
	// byte buffers and materialize no strings (see arena.go).
	keys internTable
	// scratch pools the per-Analyze arena (see arena.go).
	scratch sync.Pool

	// ecoMu serializes incremental (Request.Incremental) runs; ecoPrev is
	// the committed baseline of the last successful incremental run (see
	// eco.go). Plain runs never touch either.
	ecoMu   sync.Mutex
	ecoPrev *ecoMemo
}

// New creates an analyzer with a fresh delay cache. An optional Config fixes
// the analyzer's configuration (at most one may be passed; extras are a
// programming error and panic); the two-argument form yields the zero
// (baseline) Config.
func New(tech *mos.Tech, lib *devmodel.Library, cfg ...Config) *Analyzer {
	a := &Analyzer{tech: tech, lib: lib, cache: newDelayCache()}
	switch len(cfg) {
	case 0:
	case 1:
		a.cfg = cfg[0]
	default:
		panic("sta: New accepts at most one Config")
	}
	a.ms = newMetricSet(a.cfg.Metrics)
	return a
}

// CacheStats returns a snapshot of the delay cache's hit/miss/evaluation
// counters and entry count.
func (a *Analyzer) CacheStats() CacheStats {
	return a.cache.stats()
}

// Diagnostics aggregates the silent-degradation accounting of one Analyze:
// evaluation failures and conservative slew fallbacks. It used to be three
// loose fields on Result; they are folded here so health checks can carry
// and print one value (see String).
type Diagnostics struct {
	// EvalErrors counts the stage-direction timings consulted by this
	// Analyze whose evaluation failed (no conducting path, or a QWM
	// convergence failure). Failed directions contribute no arrival; a
	// cached failure counts every Analyze that consults it, so silent
	// degradation stays visible on every run, not just the one that paid
	// the miss.
	EvalErrors int
	// EvalErrorDetail maps "output~direction" to the first error message
	// recorded for that direction during this Analyze.
	EvalErrorDetail map[string]string
	// SlewFallbacks counts directions whose output slew came from the
	// conservative fallback estimate rather than a clean 10–90 %
	// measurement (the QWM tail was truncated before the 10 % point).
	SlewFallbacks int
	// TierCounts tallies, per degradation-ladder tier, how many
	// stage-direction timings consulted by this Analyze were produced at
	// that tier. A fully healthy run has every count in TierCounts[TierQWM].
	TierCounts [NumTiers]int
	// EvalTier maps "output~direction" to the tier name for every direction
	// that resolved below TierQWM — the degraded-but-complete inventory.
	EvalTier map[string]string
	// Degraded counts the directions that resolved below TierQWM
	// (len of EvalTier, kept as a counter for cheap health checks).
	Degraded int
	// PanicsRecovered counts evaluation panics converted to tier
	// escalations by the worker-side recover isolation.
	PanicsRecovered int
	// ReducedNodes sums, over every direction timing consulted by this
	// Analyze, the circuit nodes removed by the model-order-reduction
	// pre-pass (cached entries report the reduction of the evaluation that
	// produced them, like TierCounts). 0 whenever reduction is disabled.
	ReducedNodes int
	// ClassCount is the number of distinct structural equivalence classes
	// the memoized key resolution saw this Analyze; ClassHits counts the
	// stage directions that joined an already-seen class (evaluations
	// avoided relative to raw keying). Both are 0 when Memo is disabled,
	// and both are schedule-independent: they are tallied in the
	// sequential gather phase.
	ClassCount int
	ClassHits  int
}

// Healthy reports a clean analysis: no failed directions, no slew
// fallbacks, nothing resolved below the QWM tier, no recovered panics.
func (d Diagnostics) Healthy() bool {
	return d.EvalErrors == 0 && d.SlewFallbacks == 0 && d.Degraded == 0 && d.PanicsRecovered == 0
}

// String renders a one-line summary, with the failed directions (sorted)
// when there are any:
//
//	2 eval errors, 1 slew fallback [out~rise: no path; x~fall: diverged]
func (d Diagnostics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d eval error%s, %d slew fallback%s",
		d.EvalErrors, plural(d.EvalErrors), d.SlewFallbacks, plural(d.SlewFallbacks))
	if d.Degraded > 0 {
		fmt.Fprintf(&b, ", %d degraded (", d.Degraded)
		first := true
		for t := TierQWM + 1; t < NumTiers; t++ {
			if d.TierCounts[t] == 0 {
				continue
			}
			if !first {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%s:%d", t, d.TierCounts[t])
			first = false
		}
		b.WriteByte(')')
	}
	if d.PanicsRecovered > 0 {
		fmt.Fprintf(&b, ", %d panic%s recovered", d.PanicsRecovered, plural(d.PanicsRecovered))
	}
	if len(d.EvalErrorDetail) > 0 {
		keys := make([]string, 0, len(d.EvalErrorDetail))
		for k := range d.EvalErrorDetail {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(" [")
		for i, k := range keys {
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(k)
			b.WriteString(": ")
			b.WriteString(d.EvalErrorDetail[k])
		}
		b.WriteString("]")
	}
	return b.String()
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

// Result is a completed analysis.
type Result struct {
	// Arrivals holds the latest rise/fall arrival per net (primary inputs
	// and stage outputs).
	Arrivals map[string]Arrival
	// CriticalPath lists the nets from a primary input to the worst
	// primary output, latest first.
	CriticalPath []string
	// WorstSlack output arrival (max over requested outputs and
	// directions).
	WorstArrival float64
	WorstOutput  string
	// StagesEvaluated counts QWM evaluations performed during this call
	// (one per solver run; at most one per stage output, direction, slew
	// bucket and load digest). In-memory cache hits AND persistent-tier
	// hits do not count, so a fully warm run — memory- or disk-warm —
	// reports 0. The incremental path keeps this small, and it is identical
	// for serial and parallel runs thanks to the cache's single-flight
	// discipline.
	StagesEvaluated int
	// Diagnostics is embedded, so the pre-fold selectors
	// (Result.EvalErrors, Result.EvalErrorDetail, Result.SlewFallbacks)
	// still compile; they are deprecated in favor of Result.Diagnostics.
	Diagnostics
	// ECO carries the incremental-run accounting (dirty/skipped stages,
	// epsilon early-stops); the zero value for plain runs.
	ECO ECOStats
}

// outEval is the per-(stage, output) evaluation context, memoized once per
// Analyze call: the expensive stage-content key (edge sort + formatting)
// plus the output's load map and its canonical digest. Both directions of an
// output share one outEval, so the cache-lookup path in evalItem is reduced
// to a cheap string concatenation — previously every lookup (hit or miss)
// re-sorted and re-formatted the stage's edges.
type outEval struct {
	// contentKey is stageKey(st, out) + "|" + loadDigest(loads) + the
	// reduction signature: everything that determines the stage's timing
	// except direction and input slew.
	contentKey string
	loads      map[string]float64
	// baseFall/baseRise are the per-direction key prefixes the lookup path
	// appends the slew-bucket suffix to: the raw contentKey+"|"+rail form,
	// or — when Memo resolved a structural class for the direction — the
	// canonical "C|…" class base shared by every member stage.
	baseFall, baseRise string
	// memoFall/memoRise mark canonical bases; their evaluations snap (or
	// interpolate) the input slew to bucket boundaries so the shared entry
	// is a pure function of the class key.
	memoFall, memoRise bool
}

// workItem is one independent evaluation: a stage output switching toward
// one rail under a given input slew. Items in a level share no data
// dependencies, so the worker pool may execute them in any order; the
// results are folded into arrivals sequentially afterwards. (level, idx)
// identify the item deterministically for observer events — idx is the
// item's position in its level's schedule, identical at any worker count.
type workItem struct {
	st     *circuit.Stage
	out    string
	ev     *outEval
	rail   string // circuit.GroundNode (output falls) or circuit.SupplyNode (rises)
	inSlew float64
	level  int
	idx    int
	timing dirTiming
	// keyBuf is the item's reusable cache-key assembly buffer (worker-local
	// by construction: exactly one worker resolves each item).
	keyBuf []byte
}

// resetItem refills a pooled workItem slot in place, preserving only its
// key buffer's capacity.
func resetItem(w *workItem, st *circuit.Stage, out string, ev *outEval, rail string, inSlew float64, level, idx int) {
	w.st, w.out, w.ev, w.rail = st, out, ev, rail
	w.inSlew, w.level, w.idx = inSlew, level, idx
	w.timing = dirTiming{}
}

// stageInputs is the gathered worst-case input picture for one stage at its
// level: the latest rise/fall arrivals, the slews of those edges, and the
// nets they came from (for critical-path tracing).
type stageInputs struct {
	latestRise, latestFall float64
	riseSlew, fallSlew     float64
	riseFrom, fallFrom     string
}

// recordEvalIssues folds one output's direction timings into the Result's
// error and fallback accounting. It runs in the sequential apply phase, so
// no synchronization is needed, and it sees cached failures too — every
// Analyze that consults a failed direction reports it.
func (r *Result) recordEvalIssues(out string, fall, rise dirTiming) {
	for _, d := range [2]struct {
		name string
		t    dirTiming
	}{{"fall", fall}, {"rise", rise}} {
		if d.t.errMsg != "" {
			r.EvalErrors++
			k := out + "~" + d.name
			if r.EvalErrorDetail == nil {
				r.EvalErrorDetail = map[string]string{}
			}
			if _, dup := r.EvalErrorDetail[k]; !dup {
				r.EvalErrorDetail[k] = d.t.errMsg
			}
		}
		if d.t.slewFellBack {
			r.SlewFallbacks++
		}
		r.ReducedNodes += d.t.reduced
		if d.t.ok {
			r.TierCounts[d.t.tier]++
			if d.t.tier > TierQWM {
				r.Degraded++
				if r.EvalTier == nil {
					r.EvalTier = map[string]string{}
				}
				r.EvalTier[out+"~"+d.name] = d.t.tier.String()
			}
		}
		r.PanicsRecovered += d.t.panics
	}
}

// gatherInputs computes the worst-case input arrivals/slews for one stage.
// An input with no recorded arrival is unconstrained: it arrives at t = 0
// as an ideal step.
func gatherInputs(st *circuit.Stage, arrivals map[string]Arrival) stageInputs {
	var si stageInputs
	for _, in := range st.Inputs {
		ar := arrivals[in]
		if ar.Rise >= si.latestRise {
			si.latestRise, si.riseSlew, si.riseFrom = ar.Rise, ar.RiseSlew, in
		}
		if ar.Fall >= si.latestFall {
			si.latestFall, si.fallSlew, si.fallFrom = ar.Fall, ar.FallSlew, in
		}
	}
	return si
}

// runItems evaluates every work item, using up to workers goroutines. With
// one worker (or one item) it stays on the calling goroutine — the serial
// reference path. Cancellation semantics: workers stop picking up NEW items
// once ctx is cancelled, but every item already being evaluated runs to
// completion (the single-flight cache must never hold a pending entry), and
// runItems joins all workers before returning ctx.Err() — no goroutine
// outlives the call.
func (a *Analyzer) runItems(ctx context.Context, items []workItem, workers int, rec *recorder, trace *obs.TraceRef) error {
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 || len(items) <= 1 {
		for i := range items {
			if err := ctx.Err(); err != nil {
				return err
			}
			a.evalItem(&items[i], rec, trace, 0)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				a.evalItem(&items[i], rec, trace, worker)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}

// evalItem resolves one work item through the delay cache, computing the
// direction timing on a miss. The cache key is the memoized per-direction
// base (raw stage-content + load-digest + rail, or the canonical class base
// in Memo mode) plus the input-slew bucket; omitting the load digest was the
// aliasing bug that let structurally identical stages with different fanout
// share one entry.
//
// rec is the per-Analyze observation recorder; nil means no observer and no
// metrics registry are attached, and the fast path then performs exactly
// the work it did before observability existed (no clock reads, no event
// structs). worker is the pool slot running this item (0 on the serial
// path), surfaced to observers for timeline rendering only.
func (a *Analyzer) evalItem(it *workItem, rec *recorder, trace *obs.TraceRef, worker int) {
	if rec == nil {
		it.timing, _ = a.resolveTiming(it, trace)
		return
	}
	start := rec.now()
	timing, computed := a.resolveTiming(it, trace)
	it.timing = timing
	rec.stageEval(it, computed, rec.since(start), worker)
}

// slewPitch is the cache's input-slew quantization (see slewBucket).
const slewPitch = 5e-12

// resolveTiming performs the cache lookup(s) for one item. Raw-keyed items
// evaluate at the exact gathered slew, as always. Class-keyed (Memo) items
// snap the evaluation slew to the bucket floor — making the shared entry a
// pure function of the key, so WHICH class member computes it is
// irrelevant — or, in Interp mode, evaluate both bounding bucket boundaries
// and linearly interpolate delay and slew at the exact input slew.
// Keys are assembled into the item's reusable buffer — the warm (all-hits)
// path materializes no strings at all; a miss pays one string conversion
// when the cache installs the entry.
func (a *Analyzer) resolveTiming(it *workItem, trace *obs.TraceRef) (dirTiming, bool) {
	base, memo := it.ev.baseFall, it.ev.memoFall
	if it.rail == circuit.SupplyNode {
		base, memo = it.ev.baseRise, it.ev.memoRise
	}
	bucket := slewBucket(it.inSlew)
	if !memo {
		return a.lookupOrEval(it.appendKey(base, "|", bucket), it, trace, it.inSlew)
	}
	floor := float64(bucket) * slewPitch
	if !a.cfg.Memo.Interp {
		return a.lookupOrEval(it.appendKey(base, "|b", bucket), it, trace, floor)
	}
	// Interp shares the "|b" bucket-floor namespace with snap mode: both
	// evaluate at exactly the boundary slew with identical inputs, so a
	// separate interp namespace only duplicated every boundary entry (and a
	// boundary-sitting slew, frac == 0, paid an eval snap mode had cached).
	t0, c0 := a.lookupOrEval(it.appendKey(base, "|b", bucket), it, trace, floor)
	frac := (it.inSlew - floor) / slewPitch
	if frac <= 0 || !t0.ok {
		return t0, c0
	}
	ceil := float64(bucket+1) * slewPitch
	t1, c1 := a.lookupOrEval(it.appendKey(base, "|b", bucket+1), it, trace, ceil)
	if !t1.ok {
		// The upper boundary failed (budget chaos, pathological geometry):
		// fall back to the floor evaluation rather than half an interpolant.
		return t0, c0 || c1
	}
	return lerpTiming(t0, t1, frac), c0 || c1
}

// appendKey assembles base + sep + bucket into the item's key buffer.
func (it *workItem) appendKey(base, sep string, bucket int) []byte {
	kb := append(it.keyBuf[:0], base...)
	kb = append(kb, sep...)
	kb = strconv.AppendInt(kb, int64(bucket), 10)
	it.keyBuf = kb
	return kb
}

// lookupOrEval resolves one cache key, computing the direction timing through
// the degradation ladder when this caller wins the single-flight race. The
// second return is true when THIS caller performed the compute (an
// evaluation — a persistent-tier hit hydrates the in-memory entry without
// computing, and followers then see an ordinary hit).
func (a *Analyzer) lookupOrEval(key []byte, it *workItem, trace *obs.TraceRef, inSlew float64) (dirTiming, bool) {
	e, leader := a.cache.acquire(key)
	if !leader {
		<-e.ready
		return e.val, false
	}
	ks := string(key)
	// Persistent tier read-through: the single-flight leader consults the
	// tier below before paying an evaluation. A hit hydrates the in-memory
	// entry — every close(e.ready) path below runs exactly once, so a
	// cancelled or corrupt store can never strand followers.
	if a.cfg.Tier != nil {
		if te, ok := a.tierGet(trace, it, ks); ok && te.Valid() {
			e.val = te.timing()
			close(e.ready)
			return e.val, false
		}
	}
	a.cache.evals.Add(1)
	// Fault site: a brief sleep inside the single-flight compute, simulating
	// shard contention or a slow leader; results must be bit-for-bit
	// unaffected (latency-only fault).
	a.cfg.FaultPlan.Stall(faultinject.CacheStall, ks)
	// Resolve through the degradation ladder. A direction with no conducting
	// path to this rail stays failed (the apply phase errors only if both
	// directions are missing); numerical failures escalate tier by tier and
	// come back degraded-but-complete.
	e.val = a.evalLadder(it.st, it.out, it.rail, it.ev.loads, inSlew, ks)
	close(e.ready)
	// Write-behind AFTER ready is closed: followers never wait on the store.
	if a.cfg.Tier != nil {
		a.tierPut(trace, it, ks, tierEntryOf(e.val))
	}
	return e.val, true
}

// lerpTiming linearly interpolates two bucket-boundary timings at frac ∈
// (0, 1), folding both evaluations' degradation accounting together so a
// consulted interpolant is never healthier-looking than its inputs.
func lerpTiming(t0, t1 dirTiming, frac float64) dirTiming {
	out := t0
	out.delay = (1-frac)*t0.delay + frac*t1.delay
	out.slew = (1-frac)*t0.slew + frac*t1.slew
	out.slewFellBack = t0.slewFellBack || t1.slewFellBack
	if t1.tier > out.tier {
		out.tier = t1.tier
	}
	if t1.reduced > out.reduced {
		out.reduced = t1.reduced
	}
	out.panics = t0.panics + t1.panics
	addStats(&out.stats, t1.stats)
	return out
}

// slewBucket quantizes a transition time to slewPitch (5 ps) so nearby values
// share a cache entry. math.Floor keeps the buckets uniform: the previous int()
// conversion truncated toward zero, which made the bucket straddling zero
// twice as wide and asymmetric (e.g. −4.9 ps and +4.9 ps both mapped to
// bucket 0).
func slewBucket(s float64) int {
	return int(math.Floor(s / slewPitch))
}

type dirResult struct {
	delay, slew  float64
	slewFellBack bool
	stats        qwm.Stats
}

// evalQWMPath evaluates one direction's worst path with the QWM engine
// under the canonical worst-case stimulus: the rail-side input switches at
// t = 0 — as an ideal step when inSlew is zero, otherwise as a ramp with the
// upstream stage's transition time — every other path input is held
// conducting, and the path nodes start precharged (discharge) or
// pre-discharged (charge). opts carries the tier's solver configuration
// (budgets, fault plumbing, ForceBisection for the rescue tier).
func (a *Analyzer) evalQWMPath(st *circuit.Stage, path *circuit.Path, out, rail string, loads map[string]float64, inSlew float64, opts qwm.Options) (dirResult, error) {
	vdd := a.tech.VDD
	sw, onLevel, tIn := stimulus(vdd, rail, inSlew)
	inputs := pathInputs(path, sw, onLevel)
	ch, err := qwm.Build(qwm.BuildInput{
		Tech: a.tech, Lib: a.lib, Stage: st, Path: path,
		Inputs: inputs, Loads: loads,
	})
	if err != nil {
		return dirResult{}, err
	}
	res, err := qwm.Evaluate(ch, opts)
	if err != nil {
		return dirResult{}, err
	}
	d, err := res.Delay50(tIn, vdd)
	if err != nil {
		return dirResult{stats: res.Stats}, err
	}
	folded := res.Folded[len(res.Folded)-1]
	slew, serr := wave.Slew(folded, vdd, false)
	if serr != nil {
		// The folded tail was truncated before the 10 % point (see
		// Result.TailTruncated in internal/qwm). The old code discarded the
		// error and propagated slew = 0, so the next stage saw an ideal step
		// and reported optimistic delays. Substitute a conservative
		// (pessimistic) estimate instead and flag the fallback.
		return dirResult{delay: d, slew: fallbackSlew(folded, vdd, inSlew, d), slewFellBack: true, stats: res.Stats}, nil
	}
	return dirResult{delay: d, slew: slew, stats: res.Stats}, nil
}

// fallbackSlew derives a conservative 10–90 % transition-time estimate for a
// folded (falling) waveform that never reaches the 10 % point. Preference
// order: scale the inner 70→30 % chord by 0.8/0.4 = 2 (exact for a linear
// ramp, pessimistic for the decaying tails CMOS stages produce); if even
// that span is unavailable, fall back to the larger of the input slew and
// twice the 50 % delay. The result is always positive — never the silent 0
// that made downstream stages see an ideal step.
func fallbackSlew(w wave.Crosser, vdd, inSlew, delay float64) float64 {
	t70, ok1 := w.Crossing(0.7*vdd, false)
	t30, ok2 := w.Crossing(0.3*vdd, false)
	if ok1 && ok2 && t30 > t70 {
		return 2 * (t30 - t70)
	}
	est := 2 * delay
	if inSlew > est {
		est = inSlew
	}
	if est <= 0 {
		est = 1e-12 // degenerate zero-delay case: still not an ideal step
	}
	return est
}

// loadIndex is the per-Analyze fanout index: net → summed gate capacitance
// of the transistors that net drives, and net → summed explicit grounded
// capacitance. Building it is one pass over the netlist; the previous
// fanoutLoads rescanned every transistor and capacitor for every stage
// output — O(stages × devices).
type loadIndex struct {
	gateCap map[string]float64
	nodeCap map[string]float64
}

func buildLoadIndex(n *circuit.Netlist, tech *mos.Tech) *loadIndex {
	ix := &loadIndex{
		gateCap: make(map[string]float64, len(n.Transistors)),
		nodeCap: make(map[string]float64, len(n.Capacitors)),
	}
	ix.build(n, tech)
	return ix
}

// build (re)fills the index from one pass over the netlist. The maps must be
// empty on entry; pooled indexes are cleared by putScratch.
func (ix *loadIndex) build(n *circuit.Netlist, tech *mos.Tech) {
	for _, t := range n.Transistors {
		p := &tech.N
		if t.Kind == circuit.KindPMOS {
			p = &tech.P
		}
		ix.gateCap[t.Gate] += p.GateCap(t.W, t.L)
	}
	for _, c := range n.Capacitors {
		if c.B == circuit.GroundNode {
			ix.nodeCap[c.A] += c.C
		}
		if c.A == circuit.GroundNode {
			ix.nodeCap[c.B] += c.C
		}
	}
}

// stageLoadsInto assembles the per-node load map for one stage output from
// the index into m (cleared first): the output carries its fanout gate caps
// plus explicit caps, and internal path nodes carry their explicit caps.
func (ix *loadIndex) stageLoadsInto(m map[string]float64, st *circuit.Stage, out string) map[string]float64 {
	clear(m)
	if c := ix.gateCap[out] + ix.nodeCap[out]; c != 0 {
		m[out] = c
	}
	for _, nd := range st.Nodes {
		if nd == out {
			continue
		}
		if c := ix.nodeCap[nd]; c != 0 {
			m[nd] += c
		}
	}
	return m
}

// stageLoads is stageLoadsInto with a fresh map (tests and one-off callers).
func (ix *loadIndex) stageLoads(st *circuit.Stage, out string) map[string]float64 {
	return ix.stageLoadsInto(map[string]float64{}, st, out)
}

// loadDigest canonically encodes a stage output's load map — the third
// input to evalDirection after stage content and stimulus — as sorted
// node:cap pairs at fixed precision (6 significant digits; load differences
// below that are far under timing resolution and should share an entry).
// Two structurally identical stages driving different fanout get different
// digests and therefore distinct cache entries; omitting this from the key
// made the second stage silently inherit the first's delay.
func loadDigest(loads map[string]float64) string {
	var s analyzeScratch
	return string(s.appendLoadDigest(nil, loads))
}

// stageKey identifies a stage's timing-relevant content: its devices,
// geometry and connectivity, plus the observed output. The hot path uses
// appendStageKey directly; this wrapper exists for tests and cold callers.
func stageKey(st *circuit.Stage, out string) string {
	var s analyzeScratch
	return string(s.appendStageKey(nil, st, out))
}

// errLoop is the combinational-loop rejection raised by levelize; the caller
// wraps it in ErrInvalidNetlist with the rest of the pre-flight taxonomy.
func errLoop(stage string) error {
	return fmt.Errorf("sta: combinational loop through stage %s", stage)
}
