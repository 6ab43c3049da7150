package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"qwm/internal/bench"
	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/qwm"
	"qwm/internal/stages"
	"qwm/internal/wave"
)

// paperWorstErrPct is the paper's worst Table II delay error; a stage-qwm op
// further than this from the 1 ps SPICE reference fails.
const paperWorstErrPct = 3.66

// Heap probe marks for stage-qwm (ops completed).
const stageHeapAt, stageHeapAt2 = 2000, 4000

// spiceRef is the fixed-1 ps SPICE reference of one stack.
type spiceRef struct {
	delay   float64
	runtime time.Duration
}

// stageTimes accumulates one stack's traced QWM timings and solver counts.
type stageTimes struct {
	ops                int64
	build, eval        time.Duration
	nr, regions, dense int64
	capResolves        int64
}

// runStageQWM is the paper's own measurement: single stages through
// qwm.Build + qwm.Evaluate + Delay50, checked against 1 ps SPICE.
func runStageQWM(p params) (*report, error) {
	tech := mos.CMOSP35()
	h, setupDurs, err := timedSetups(setupRuns, func() (*bench.Harness, error) {
		return bench.NewHarness(tech)
	}, func(*bench.Harness) {})
	if err != nil {
		return nil, err
	}
	lib := h.Lib

	genStart := time.Now()
	stacks, err := tableIIStacks(tech, p.seed)
	if err != nil {
		return nil, err
	}
	// Keep only the delay and runtime: the recorded waveforms would stay
	// live through the heap readings and hide the program's own heap.
	refs := make([]spiceRef, len(stacks))
	for i, w := range stacks {
		r, err := h.RunSpice(w, 1e-12)
		if err != nil {
			return nil, fmt.Errorf("%s: spice 1ps: %w", w.Name, err)
		}
		refs[i] = spiceRef{delay: r.Delay, runtime: r.Runtime}
	}
	refGen := time.Since(genStart)

	// Delay errors are a property of the stack, not of the run: compute them
	// once so the check and the reported figures agree exactly.
	errPct := make([]float64, len(stacks))
	for i, w := range stacks {
		d, _, err := evalStage(tech, lib, w, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: qwm: %w", w.Name, err)
		}
		errPct[i] = wave.DelayErrorPct(d, refs[i].delay)
	}

	op := func(tr *tracer, times []stageTimes) func(int, int64) (time.Duration, bool) {
		return func(_ int, i int64) (time.Duration, bool) {
			k := int(i % int64(len(stacks)))
			w := stacks[k]
			start := time.Now()
			var st *stageTimes
			if tr != nil {
				st = &times[k]
			}
			d, sp, err := evalStage(tech, lib, w, st)
			lat := time.Since(start)
			if tr != nil {
				tr.addSelf(map[string]time.Duration{
					"qwm.build": sp.build, "qwm.evaluate": sp.eval, "qwm.other": lat - sp.build - sp.eval,
				})
				if tr.keep(i) {
					req := fmt.Sprintf("op%d", i)
					root := tr.add(span{Name: "stage-qwm.op " + w.Name, Start: start, End: start.Add(lat), Parent: -1, Req: req})
					tr.add(span{Name: "qwm.Build", Start: start, End: start.Add(sp.build), Parent: root, Req: req})
					tr.add(span{Name: "qwm.Evaluate", Start: start.Add(sp.build), End: start.Add(sp.build + sp.eval), Parent: root, Req: req})
				}
			}
			return lat, err == nil && wave.DelayErrorPct(d, refs[k].delay) <= paperWorstErrPct
		}
	}

	untraced := closedLoop(1, p.seconds, newHeapProbe(stageHeapAt, stageHeapAt2), op(nil, nil))
	summarize("stage-qwm", untraced)
	rep := &report{correct: untraced.failed == 0, untraced: untraced, e2e: endToEnd(untraced, setupDurs)}
	for i, e := range errPct {
		if e > paperWorstErrPct {
			rep.correct = false
			rep.checkNote = fmt.Sprintf("%s: %.2f %% off 1 ps SPICE (limit %.2f %%)", stacks[i].Name, e, paperWorstErrPct)
		}
	}
	if untraced.failed > 0 && rep.checkNote == "" {
		rep.checkNote = fmt.Sprintf("%d of %d ops failed", untraced.failed, untraced.attempted)
	}
	sortedErr := append([]float64(nil), errPct...)
	sort.Float64s(sortedErr)
	fmt.Fprintf(os.Stderr, "perfbench: stage-qwm: delay error vs 1 ps SPICE over %d stacks: median %.3f %%, max %.3f %%, mean %.3f %%\n",
		len(errPct), median(errPct), sortedErr[len(sortedErr)-1], mean(errPct))
	if !p.traced {
		return rep, nil
	}

	tr := newTracer()
	times := make([]stageTimes, len(stacks))
	traced := closedLoop(1, p.seconds, newHeapProbe(stageHeapAt, stageHeapAt2), op(tr, times))
	if traced.failed > 0 {
		rep.fail(fmt.Sprintf("traced phase: %d of %d ops failed", traced.failed, traced.attempted))
	}

	m := emptyLayers()
	var tot stageTimes
	var speedups []float64
	var spiceMs []float64
	for i, t := range times {
		tot.ops += t.ops
		tot.build += t.build
		tot.eval += t.eval
		tot.nr += t.nr
		tot.regions += t.regions
		tot.dense += t.dense
		tot.capResolves += t.capResolves
		spiceMs = append(spiceMs, float64(refs[i].runtime)/float64(time.Millisecond))
		if t.ops > 0 {
			speedups = append(speedups, float64(refs[i].runtime)/(float64(t.eval)/float64(t.ops)))
		}
	}
	ops := float64(tot.ops)
	m["devmodel.characterize_ms"] = metric{1e3 * median(setupDurs), "ms"}
	m["qwm.build_us"] = metric{float64(tot.build) / 1e3 / ops, "us"}
	m["qwm.evaluate_us"] = metric{float64(tot.eval) / 1e3 / ops, "us"}
	m["qwm.ns_per_nr_iter"] = metric{float64(tot.eval) / float64(tot.nr), "ns"}
	m["qwm.nr_iters_per_op"] = metric{float64(tot.nr) / ops, "count"}
	m["qwm.regions_per_op"] = metric{float64(tot.regions) / ops, "count"}
	m["qwm.dense_fallbacks_per_op"] = metric{float64(tot.dense) / ops, "count"}
	m["qwm.cap_resolves_per_op"] = metric{float64(tot.capResolves) / ops, "count"}
	m["qwm.delay_err_median_pct"] = metric{median(errPct), "%"}
	m["qwm.delay_err_max_pct"] = metric{sortedErr[len(sortedErr)-1], "%"}
	m["qwm.delay_err_mean_pct"] = metric{mean(errPct), "%"}
	m["spice.tran1ps_ms"] = metric{mean(spiceMs), "ms"}
	m["qwm.speedup_vs_spice1ps"] = metric{mean(speedups), "x"}
	m["bench.refgen_s"] = metric{refGen.Seconds(), "s"}
	if note := commonLayers(m, untraced, traced, tr, tracePath(p, "stage-qwm")); note != "" {
		rep.fail(note)
	}
	rep.perLayer = m
	return rep, nil
}

// stageSplit is one op's build and evaluate time.
type stageSplit struct{ build, eval time.Duration }

// evalStage runs one stage through the QWM public API. When st is non-nil
// the build/evaluate split and solver counts are accumulated into it.
func evalStage(tech *mos.Tech, lib *devmodel.Library, w *stages.Workload, st *stageTimes) (float64, stageSplit, error) {
	var sp stageSplit
	t0 := time.Now()
	ch, err := qwm.Build(qwm.BuildInput{
		Tech: tech, Lib: lib, Stage: w.Stage, Path: w.Path,
		Inputs: w.Inputs, Loads: w.Loads, V0: w.IC,
	})
	if err != nil {
		return 0, sp, err
	}
	var t1 time.Time
	if st != nil {
		t1 = time.Now()
	}
	res, err := qwm.Evaluate(ch, qwm.Options{})
	if err != nil {
		return 0, sp, err
	}
	if st != nil {
		t2 := time.Now()
		sp = stageSplit{build: t1.Sub(t0), eval: t2.Sub(t1)}
		st.ops++
		st.build += sp.build
		st.eval += sp.eval
		st.nr += int64(res.Stats.NRIters)
		st.regions += int64(res.Stats.Regions)
		st.dense += int64(res.Stats.DenseFallbacks)
		st.capResolves += int64(res.Stats.CapResolves)
	}
	d, err := res.Delay50(w.SwitchAt, tech.VDD)
	return d, sp, err
}
