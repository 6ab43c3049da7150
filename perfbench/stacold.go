package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"qwm/internal/bench"
	"qwm/internal/mos"
	"qwm/internal/obs"
	"qwm/internal/sta"
)

// Heap probe marks for sta-cold (ops completed).
const coldHeapAt, coldHeapAt2 = 500, 1000

// runStaCold runs one full cold analysis per op: a fresh sta.New with
// default Workers over a seeded 3-bit decoder variant, checked bit for bit
// against a Workers = 1 reference computed before timing.
func runStaCold(p params) (*report, error) {
	tech := mos.CMOSP35()
	h, setupDurs, err := timedSetups(setupRuns, func() (*bench.Harness, error) {
		return bench.NewHarness(tech)
	}, func(*bench.Harness) {})
	if err != nil {
		return nil, err
	}
	lib := h.Lib

	genStart := time.Now()
	pool, err := coldPool(tech, p.seed)
	if err != nil {
		return nil, err
	}
	refs := make([]*sta.Result, len(pool))
	for i, v := range pool {
		a := sta.New(tech, lib, sta.Config{Workers: 1})
		if refs[i], err = a.AnalyzeContext(context.Background(), sta.Request{Netlist: v.nl, Primary: v.primary, Outputs: v.outputs}); err != nil {
			return nil, fmt.Errorf("sta-cold reference %d: %w", i, err)
		}
	}
	refGen := time.Since(genStart)

	var (
		mu   sync.Mutex
		note string
	)
	fail := func(msg string) {
		mu.Lock()
		if note == "" {
			note = msg
		}
		mu.Unlock()
	}
	op := func(tr *tracer, agg *coldAgg) func(int, int64) (time.Duration, bool) {
		return func(_ int, i int64) (time.Duration, bool) {
			k := int(i % int64(len(pool)))
			v := pool[k]
			req := sta.Request{Netlist: v.nl, Primary: v.primary, Outputs: v.outputs}
			var ob *coldObserver
			if tr != nil {
				ob = &coldObserver{}
				req.Observer = ob
			}
			start := time.Now()
			a := sta.New(tech, lib, sta.Config{})
			newDone := time.Now()
			res, err := a.AnalyzeContext(context.Background(), req)
			end := time.Now()
			lat := end.Sub(start)
			if tr != nil && err == nil {
				agg.add(tr, i, ob, res, start, newDone, end)
			}
			switch {
			case err != nil:
				fail(fmt.Sprintf("op %d: %v", i, err))
				return lat, false
			case !res.Healthy():
				fail(fmt.Sprintf("op %d: unhealthy: %s", i, res.Diagnostics.String()))
				return lat, false
			case !sameArrivals(res.Arrivals, refs[k].Arrivals):
				fail(fmt.Sprintf("op %d: arrivals differ from the Workers = 1 reference", i))
				return lat, false
			}
			return lat, true
		}
	}

	untraced := closedLoop(1, p.seconds, newHeapProbe(coldHeapAt, coldHeapAt2), op(nil, nil))
	summarize("sta-cold", untraced)
	rep := &report{correct: untraced.failed == 0, untraced: untraced, e2e: endToEnd(untraced, setupDurs), checkNote: note}
	if !p.traced {
		return rep, nil
	}

	tr := newTracer()
	agg := &coldAgg{}
	traced := closedLoop(1, p.seconds, newHeapProbe(coldHeapAt, coldHeapAt2), op(tr, agg))
	rep.correct = rep.correct && traced.failed == 0
	rep.checkNote = note

	m := emptyLayers()
	agg.report(m)
	m["devmodel.characterize_ms"] = metric{1e3 * median(setupDurs), "ms"}
	m["bench.refgen_s"] = metric{refGen.Seconds(), "s"}
	if note := commonLayers(m, untraced, traced, tr, tracePath(p, "sta-cold")); note != "" {
		rep.fail(note)
	}
	rep.perLayer = m
	return rep, nil
}

// sameArrivals reports bit-identical arrival maps.
func sameArrivals(a, b map[string]sta.Arrival) bool {
	if len(a) != len(b) {
		return false
	}
	for k, x := range a {
		if y, ok := b[k]; !ok || x != y {
			return false
		}
	}
	return true
}

// coldObserver is the benchmark-owned observer of one traced analysis. The
// engine delivers StageEval concurrently under Workers > 1.
type coldObserver struct {
	mu      sync.Mutex
	start   obs.AnalyzeStartInfo
	widths  []int
	evals   []interval
	evalSum time.Duration
	hits    int
	stats   obs.QWMStats
}

func (o *coldObserver) AnalyzeStart(i obs.AnalyzeStartInfo) { o.start = i }
func (o *coldObserver) LevelStart(i obs.LevelStartInfo) {
	o.mu.Lock()
	o.widths = append(o.widths, i.Items)
	o.mu.Unlock()
}
func (o *coldObserver) AnalyzeEnd(obs.AnalyzeEndInfo) {}

// StageEval is delivered right after the evaluation returns, so its
// interval is [now − Duration, now].
func (o *coldObserver) StageEval(i obs.StageEvalInfo) {
	end := time.Now()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.evals = append(o.evals, interval{end.Add(-i.Duration).UnixNano(), end.UnixNano()})
	o.evalSum += i.Duration
	if i.CacheHit {
		o.hits++
		return
	}
	o.stats.NRIters += i.QWM.NRIters
	o.stats.Regions += i.QWM.Regions
	o.stats.DenseFallbacks += i.QWM.DenseFallbacks
	o.stats.CapResolves += i.QWM.CapResolves
}

// coldAgg sums the traced sta-cold ops.
type coldAgg struct {
	ops                        int64
	newT, analyze, union, busy time.Duration
	workerWall                 time.Duration // Σ analyze wall × workers
	levels, items, widthSum    int64
	widthN                     int64
	evaluated, hits, degraded  int64
	stats                      obs.QWMStats
}

func (g *coldAgg) add(tr *tracer, i int64, ob *coldObserver, res *sta.Result, start, newDone, end time.Time) {
	analyze := end.Sub(newDone)
	union := time.Duration(unionLen(ob.evals))
	g.ops++
	g.newT += newDone.Sub(start)
	g.analyze += analyze
	g.union += union
	g.busy += ob.evalSum
	g.workerWall += analyze * time.Duration(max(ob.start.Workers, 1))
	g.levels += int64(ob.start.Levels)
	g.items += int64(ob.start.Items)
	for _, w := range ob.widths {
		g.widthSum += int64(w)
		g.widthN++
	}
	g.evaluated += int64(res.StagesEvaluated)
	g.hits += int64(ob.hits)
	g.degraded += int64(res.Degraded)
	g.stats.NRIters += ob.stats.NRIters
	g.stats.Regions += ob.stats.Regions
	g.stats.DenseFallbacks += ob.stats.DenseFallbacks
	g.stats.CapResolves += ob.stats.CapResolves
	tr.addSelf(map[string]time.Duration{
		"sta.new":    newDone.Sub(start),
		"sta.engine": analyze - union,
		"qwm.evals":  union,
	})
	if tr.keep(i) {
		req := fmt.Sprintf("op%d", i)
		root := tr.add(span{Name: "sta-cold.op", Start: start, End: end, Parent: -1, Req: req})
		tr.add(span{Name: "sta.New", Start: start, End: newDone, Parent: root, Req: req})
		an := tr.add(span{Name: "sta.AnalyzeContext", Start: newDone, End: end, Parent: root, Req: req})
		for _, e := range ob.evals {
			tr.add(span{Name: "StageEval", Start: time.Unix(0, e.lo), End: time.Unix(0, e.hi), Parent: an, Req: req})
		}
	}
}

func (g *coldAgg) report(m map[string]metric) {
	ops := float64(max(g.ops, 1))
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / ops }
	misses := float64(g.items - g.hits)
	m["sta.analyze_ms"] = metric{ms(g.analyze), "ms"}
	m["sta.new_us"] = metric{1e3 * ms(g.newT), "us"}
	m["sta.levels_per_op"] = metric{float64(g.levels) / ops, "count"}
	m["sta.level_width_mean"] = metric{float64(g.widthSum) / float64(max(g.widthN, 1)), "count"}
	m["sta.stages_evaluated_per_op"] = metric{float64(g.evaluated) / ops, "count"}
	m["sta.cache_hit_pct"] = metric{100 * float64(g.hits) / float64(max(g.items, 1)), "%"}
	m["sta.degraded_per_op"] = metric{float64(g.degraded) / ops, "count"}
	m["sta.eval_share_pct"] = metric{100 * float64(g.union) / float64(g.analyze), "%"}
	m["sta.engine_self_ms"] = metric{ms(g.analyze - g.union), "ms"}
	m["sta.worker_busy_pct"] = metric{100 * float64(g.busy) / float64(g.workerWall), "%"}
	m["qwm.evaluate_us"] = metric{float64(g.busy) / 1e3 / max(misses, 1), "us"}
	m["qwm.ns_per_nr_iter"] = metric{float64(g.busy) / float64(max(g.stats.NRIters, 1)), "ns"}
	m["qwm.nr_iters_per_op"] = metric{float64(g.stats.NRIters) / ops, "count"}
	m["qwm.regions_per_op"] = metric{float64(g.stats.Regions) / ops, "count"}
	m["qwm.dense_fallbacks_per_op"] = metric{float64(g.stats.DenseFallbacks) / ops, "count"}
	m["qwm.cap_resolves_per_op"] = metric{float64(g.stats.CapResolves) / ops, "count"}
}
