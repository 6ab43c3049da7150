// Package bench is the experiment harness that regenerates the paper's
// tables and figures: it runs each workload through QWM and the SPICE-class
// baseline under identical devices, stimulus, loads, and initial conditions,
// then reports delays, accuracies, runtimes and speed-ups in the layout of
// Tables I/II and the data series of Figs. 5 and 7–10.
package bench

import (
	"fmt"
	"time"

	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/qwm"
	"qwm/internal/spice"
	"qwm/internal/stages"
	"qwm/internal/wave"
)

// EngineRun is one engine's outcome on one workload.
type EngineRun struct {
	Delay   float64 // 50 % propagation delay (s)
	Slew    float64 // 10–90 % output transition time (s); 0 if unavailable
	Runtime time.Duration
	Output  wave.Crosser
	// Work metrics: time points × NR iterations for SPICE, regions × NR for
	// QWM.
	Steps, NRIters int
}

// Harness bundles the shared technology and characterized device library.
type Harness struct {
	Tech *mos.Tech
	Lib  *devmodel.Library
}

// NewHarness builds a harness and pre-characterizes both polarities at the
// minimum channel length so characterization time is excluded from runtime
// comparisons — the paper's fairness note in §V-B.
func NewHarness(tech *mos.Tech) (*Harness, error) {
	h := &Harness{Tech: tech, Lib: devmodel.NewLibrary(tech)}
	if _, err := h.Lib.Table(mos.NMOS, tech.LMin); err != nil {
		return nil, err
	}
	if _, err := h.Lib.Table(mos.PMOS, tech.LMin); err != nil {
		return nil, err
	}
	return h, nil
}

// RunQWM evaluates a workload with piecewise quadratic waveform matching.
func (h *Harness) RunQWM(w *stages.Workload, opts qwm.Options) (*EngineRun, error) {
	return h.runQWM(w, opts, false)
}

// RunQWMAnalytic evaluates with the golden model directly (table ablation).
func (h *Harness) RunQWMAnalytic(w *stages.Workload, opts qwm.Options) (*EngineRun, error) {
	return h.runQWM(w, opts, true)
}

// runQWM builds the workload's chain, over the golden model when analytic
// and over the characterized tables otherwise, and times its evaluation.
// The slew is read from the folded output, which falls whatever the chain's
// polarity.
func (h *Harness) runQWM(w *stages.Workload, opts qwm.Options, analytic bool) (*EngineRun, error) {
	ch, err := qwm.Build(qwm.BuildInput{
		Tech: h.Tech, Lib: h.Lib,
		Stage: w.Stage, Path: w.Path,
		Inputs: w.Inputs, Loads: w.Loads, V0: w.IC,
		Analytic: analytic,
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := qwm.Evaluate(ch, opts)
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	d, err := res.Delay50(w.SwitchAt, h.Tech.VDD)
	if err != nil {
		return nil, err
	}
	slew, _ := wave.Slew(res.Folded[len(res.Folded)-1], h.Tech.VDD, false)
	return &EngineRun{
		Delay: d, Slew: slew, Runtime: elapsed,
		Output: res.Output, Steps: res.Stats.Regions, NRIters: res.Stats.NRIters,
	}, nil
}

// RunSpice runs the baseline transient at the given step size.
func (h *Harness) RunSpice(w *stages.Workload, step float64) (*EngineRun, error) {
	s, err := spice.New(w.Netlist, h.Tech)
	if err != nil {
		return nil, err
	}
	opts := spice.Options{TStop: w.TStop, Step: step, IC: w.IC, RecordNodes: []string{w.Output}}
	start := time.Now()
	res, err := s.Transient(opts)
	elapsed := time.Since(start)
	if err != nil {
		return nil, err
	}
	out, err := res.Waveform(w.Output)
	if err != nil {
		return nil, err
	}
	d, err := wave.Delay50(out, w.SwitchAt, h.Tech.VDD, w.Rising)
	if err != nil {
		return nil, err
	}
	slew, _ := wave.Slew(out, h.Tech.VDD, w.Rising)
	return &EngineRun{
		Delay: d, Slew: slew, Runtime: elapsed,
		Output: out, Steps: res.Stats.Steps, NRIters: res.Stats.NRIterations,
	}, nil
}

// Row is one line of Table I/II: a workload compared across engines.
type Row struct {
	Name       string
	Spice1ps   *EngineRun
	Spice10ps  *EngineRun
	QWM        *EngineRun
	Speedup1   float64 // spice(1ps) / qwm runtime
	Speedup10  float64
	ErrorPct   float64 // delay error vs spice(1ps)
	RefDelayPs float64
	QWMDelayPs float64
}

// CompareRow runs a workload through QWM and SPICE at 1 ps and 10 ps.
func (h *Harness) CompareRow(w *stages.Workload, opts qwm.Options) (*Row, error) {
	s1, err := h.RunSpice(w, 1e-12)
	if err != nil {
		return nil, fmt.Errorf("%s: spice 1ps: %w", w.Name, err)
	}
	s10, err := h.RunSpice(w, 10e-12)
	if err != nil {
		return nil, fmt.Errorf("%s: spice 10ps: %w", w.Name, err)
	}
	q, err := h.RunQWM(w, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: qwm: %w", w.Name, err)
	}
	return &Row{
		Name:       w.Name,
		Spice1ps:   s1,
		Spice10ps:  s10,
		QWM:        q,
		Speedup1:   float64(s1.Runtime) / float64(q.Runtime),
		Speedup10:  float64(s10.Runtime) / float64(q.Runtime),
		ErrorPct:   wave.DelayErrorPct(q.Delay, s1.Delay),
		RefDelayPs: s1.Delay * 1e12,
		QWMDelayPs: q.Delay * 1e12,
	}, nil
}
