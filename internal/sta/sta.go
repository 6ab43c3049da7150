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
// Stage delays are cached by a fixed-width Key (key.go): a digest of the
// stage content AND the stage output's load map, plus direction and
// input-slew bucket, so re-analysis after a local edit (the incremental-STA
// use case) only re-evaluates the directions whose devices, input slews or
// fanout loads changed and re-propagates arrivals. The loads matter: two
// structurally identical stages driving different fanout must not alias to
// one cache entry, or the second silently inherits the first's delay (see
// TestCacheKeyIncludesLoad); neither may two stages whose node names spell
// each other's text form (TestCacheKeySeparatorInNames).
package sta

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qwm/internal/circuit"
	"qwm/internal/devmodel"
	"qwm/internal/faultinject"
	"qwm/internal/mos"
	"qwm/internal/qwm"
	"qwm/internal/slab"
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

	// scratch pools the per-Analyze arena (see arena.go).
	scratch sync.Pool
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
		a.cfg.Tiers = slices.Clone(a.cfg.Tiers) // the caller's slice stays theirs
	default:
		panic("sta: New accepts at most one Config")
	}
	a.ms = newMetricSet(a.cfg.Metrics)
	return a
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
	// WorstArrival is the latest requested-output arrival (max over the
	// requested outputs and both directions); WorstOutput names its net.
	WorstArrival float64
	WorstOutput  string
	// StagesEvaluated counts the QWM evaluations this call performed —
	// not those of a concurrent call on the same Analyzer
	// (one per solver run; at most one per stage output, direction, slew
	// bucket and load digest). In-memory cache hits AND persistent-tier
	// hits do not count, so a fully warm run — memory- or disk-warm —
	// reports 0; a warm re-analysis after an edit pays only the directions
	// whose key changed. It is identical for serial and parallel runs
	// thanks to the cache's single-flight discipline.
	StagesEvaluated int
	// Diagnostics is embedded, so the pre-fold selectors
	// (Result.EvalErrors, Result.EvalErrorDetail, Result.SlewFallbacks)
	// still compile; they are deprecated in favor of Result.Diagnostics.
	Diagnostics
}

// outEval is the per-(stage, output) evaluation context, built once per
// Analyze call in the gather phase: the output's load map and the two
// per-direction keys. Both directions of an output share one outEval, so the
// cache-lookup path in evalItem only copies a key and fills in the slew
// bucket.
type outEval struct {
	loads map[string]float64
	// keyFall/keyRise are the per-direction keys of the content digest
	// (contentDigest) with a zero bucket.
	keyFall, keyRise Key
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
	// evals is 1 when this item's own lookup evaluated, else 0. Concurrent
	// Analyzes on one Analyzer share the cache, so only this count says what
	// THIS request evaluated.
	evals int
	// cached is set when the level's peek found the item's key finished;
	// timing then already holds the value. wait is the key's flight when the
	// peek found it in flight, else nil.
	cached bool
	wait   *flight
}

// key is the item's cache key: its per-direction content key with the
// input-slew bucket filled in.
func (it *workItem) key() Key {
	k := &it.ev.keyFall
	if it.rail == circuit.SupplyNode {
		k = &it.ev.keyRise
	}
	return k.withBucket(slewBucket(it.inSlew))
}

// resetItem refills a pooled workItem slot in place.
func resetItem(w *workItem, st *circuit.Stage, out string, ev *outEval, rail string, inSlew float64, level, idx int) {
	w.st, w.out, w.ev, w.rail = st, out, ev, rail
	w.inSlew, w.level, w.idx = inSlew, level, idx
	w.timing, w.evals, w.cached, w.wait = dirTiming{}, 0, false, nil
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

// peekLevel reads every item's key state from the memory cache: a finished
// key's timing lands on the item (cached), a key in flight leaves its flight
// on the item (wait). It returns, in pending, the indices of the items whose
// key is not finished. The peek counts nothing; the item's lookup counts the
// hit, as acquire would have.
func (a *Analyzer) peekLevel(items []workItem, pending []int32) []int32 {
	pending = pending[:0]
	for i := range items {
		it := &items[i]
		k := it.key()
		if it.timing, it.wait, it.cached = a.cache.lookup(&k); !it.cached {
			pending = append(pending, int32(i))
		}
	}
	return pending
}

// runItems evaluates every work item; pending holds the indices of the items
// whose key the level's peek did not find finished. Items with a finished
// key resolve on the calling goroutine, and up to workers goroutines drain
// the pending ones. With one worker, or at most one pending item, every item
// runs on the calling goroutine in item order — the serial reference path.
// Cancellation semantics: workers stop picking up NEW items once ctx is
// cancelled, but every item already being evaluated runs to completion (the
// single-flight cache must never strand a flight), and runItems joins all
// workers before returning ctx.Err() — no goroutine outlives the call.
func (a *Analyzer) runItems(ctx context.Context, items []workItem, pending []int32, workers int, rec *recorder, lt *levelTiers) error {
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers <= 1 {
		for i := range items {
			if err := ctx.Err(); err != nil {
				return err
			}
			a.evalItem(&items[i], rec, lt, 0)
		}
		return nil
	}
	for i := range items {
		if items[i].cached {
			a.evalItem(&items[i], rec, lt, 0)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(pending) {
					return
				}
				a.evalItem(&items[pending[i]], rec, lt, worker)
			}
		}(w)
	}
	wg.Wait()
	return ctx.Err()
}

// evalItem resolves one work item through the delay cache, computing the
// direction timing on a miss. The cache key is the per-direction key built in
// the gather phase plus the input-slew bucket; the content digest covers the
// load map, whose omission was the aliasing bug that let structurally
// identical stages with different fanout share one entry.
//
// rec is the per-Analyze observation recorder; nil means no observer and no
// metrics registry are attached, and the fast path then performs exactly
// the work it did before observability existed (no clock reads, no event
// structs). worker is the pool slot running this item (0 on the serial
// path), surfaced to observers for timeline rendering only.
func (a *Analyzer) evalItem(it *workItem, rec *recorder, lt *levelTiers, worker int) {
	if rec == nil {
		it.timing, it.evals = a.lookupOrEval(it, lt)
		return
	}
	start := time.Now()
	it.timing, it.evals = a.lookupOrEval(it, lt)
	rec.stageEval(it, start, worker)
}

// lookupOrEval resolves the item's cache key, computing the direction timing
// at the item's exact input slew through the degradation ladder when this
// caller wins the single-flight race. The second return is 1 when THIS
// caller performed the compute (an evaluation — a persistent-tier hit
// publishes the tier's value without computing, and followers then see an
// ordinary hit), else 0. When the level's peek already found the key
// finished or in flight (it.cached, it.wait), that state is used as the hit
// acquire would have returned. The lookup copies the gathered key and fills
// in the bucket: no formatting, no hashing beyond the map's own.
func (a *Analyzer) lookupOrEval(it *workItem, lt *levelTiers) (dirTiming, int) {
	switch {
	case it.cached:
		return it.timing, 0
	case it.wait != nil:
		return it.wait.wait(), 0
	}
	key := it.key()
	t, f, leader := a.cache.acquire(&key)
	if !leader {
		if f != nil {
			t = f.wait()
		}
		return t, 0
	}
	// Persistent tier read-through: the level's batched read (readTiers)
	// already probed the stores for this key, so the leader only consults
	// its hits before paying an evaluation. Every path below publishes
	// exactly once, so a cancelled or corrupt store can never strand
	// followers.
	if te, ok := lt.hits[key]; ok {
		t = te.timing()
		a.cache.publish(&key, f, t)
		return t, 0
	}
	// Fault sites are keyed by the hex key, built only under a fault plan.
	var faultKey string
	if a.cfg.FaultPlan != nil {
		faultKey = key.String()
		// Fault site: a brief sleep inside the single-flight compute,
		// simulating shard contention or a slow leader; results must be
		// bit-for-bit unaffected (latency-only fault).
		a.cfg.FaultPlan.Stall(faultinject.CacheStall, faultKey)
	}
	// Resolve through the degradation ladder. A direction with no conducting
	// path to this rail stays failed (the apply phase errors only if both
	// directions are missing); numerical failures escalate tier by tier and
	// come back degraded-but-complete.
	t = a.evalLadder(it.st, it.out, it.rail, it.ev.loads, it.inSlew, faultKey)
	a.cache.publish(&key, f, t)
	// Write-behind AFTER publishing: followers never wait on the store.
	if len(a.cfg.Tiers) > 0 {
		a.tierPut(lt, it, &key, tierEntryOf(t))
	}
	return t, 1
}

// slewPitch is the cache's input-slew quantization (see slewBucket).
const slewPitch = 5e-12

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
// pre-discharged (charge). opts carries the analyzer's budgets and fault
// plumbing.
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
	return conservativeSlew(inSlew, delay)
}

// conservativeSlew is the slew floor every tier falls back on: the larger of
// the input slew and twice the 50 % delay, or 1 ps when neither is positive.
func conservativeSlew(inSlew, delay float64) float64 {
	est := 2 * delay
	if inSlew > est {
		est = inSlew
	}
	if est <= 0 {
		est = 1e-12 // degenerate zero-delay case: still not an ideal step
	}
	return est
}

// loadIndex is the per-Analyze fanout index over the request's node table:
// node ID → summed gate capacitance of the transistors that node drives, and
// node ID → summed explicit grounded capacitance. Building it is one pass
// over the netlist's recorded terminal IDs; the previous fanoutLoads
// rescanned every transistor and capacitor for every stage output — O(stages
// × devices).
type loadIndex struct {
	nodes   *circuit.NodeTable
	gateCap []float64
	nodeCap []float64
}

// build (re)fills the index from one pass over the netlist, whose nodes
// carry their IDs in nodes. Per node, the sums run in device order, as they
// always have, so every load is bit-identical to a name-keyed pass.
func (ix *loadIndex) build(n *circuit.Netlist, nodes *circuit.NodeTable, tech *mos.Tech) {
	ix.nodes = nodes
	nn := len(nodes.Names)
	ix.gateCap = slab.Resize(ix.gateCap, nn)
	ix.nodeCap = slab.Resize(ix.nodeCap, nn)
	clear(ix.gateCap)
	clear(ix.nodeCap)
	for i, t := range n.Transistors {
		p := &tech.N
		if t.Kind == circuit.KindPMOS {
			p = &tech.P
		}
		ix.gateCap[nodes.Gate(i)] += p.GateCap(t.W, t.L)
	}
	gnd, ok := nodes.Lookup(circuit.GroundNode)
	if !ok {
		return
	}
	for i, c := range n.Capacitors {
		a, b := nodes.CapacitorEnds(i)
		if b == gnd {
			ix.nodeCap[a] += c.C
		}
		if a == gnd {
			ix.nodeCap[b] += c.C
		}
	}
}

// stageLoadsInto assembles the per-node load map for one stage output from
// the index into m (cleared first): the output carries its fanout gate caps
// plus explicit caps, and internal path nodes carry their explicit caps.
func (ix *loadIndex) stageLoadsInto(m map[string]float64, st *circuit.Stage, out string) map[string]float64 {
	clear(m)
	if id, ok := ix.nodes.Lookup(out); ok {
		if c := ix.gateCap[id] + ix.nodeCap[id]; c != 0 {
			m[out] = c
		}
	}
	for _, nd := range st.Nodes {
		if nd == out {
			continue
		}
		if id, ok := ix.nodes.Lookup(nd); ok {
			if c := ix.nodeCap[id]; c != 0 {
				m[nd] += c
			}
		}
	}
	return m
}

// errLoop is the combinational-loop rejection raised by levelize; the caller
// wraps it in ErrInvalidNetlist with the rest of the pre-flight taxonomy.
func errLoop(stage string) error {
	return fmt.Errorf("sta: combinational loop through stage %s", stage)
}
