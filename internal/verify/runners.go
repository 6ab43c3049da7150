package verify

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"qwm/internal/bench"
	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/obs"
	"qwm/internal/qwm"
	"qwm/internal/spice"
	"qwm/internal/sta"
	"qwm/internal/stages"
	"qwm/internal/wave"
)

// StageDiff is the outcome of one QWM-vs-SPICE per-stage comparison.
type StageDiff struct {
	Name string `json:"name"`
	K    int    `json:"k"`
	// Delays and slews in seconds; the reference is the adaptive
	// (LTE-controlled) trapezoidal transient of internal/spice.
	QWMDelay    float64 `json:"qwm_delay"`
	SpiceDelay  float64 `json:"spice_delay"`
	QWMSlew     float64 `json:"qwm_slew"`
	SpiceSlew   float64 `json:"spice_slew"`
	DelayErrPct float64 `json:"delay_err_pct"`
	AccuracyPct float64 `json:"accuracy_pct"`
	SlewErrPct  float64 `json:"slew_err_pct"`
	// Pass is DelayErrPct <= the configured tolerance and Err == "".
	Pass bool   `json:"pass"`
	Err  string `json:"err,omitempty"`
}

// RunStageDiff evaluates one generated stage with both engines and gates
// the delay error against tolPct (wave.DelayErrorPct, the paper's accuracy
// metric).
func RunStageDiff(h *bench.Harness, c *StageCase, tolPct float64) StageDiff {
	d := StageDiff{Name: c.Name, K: c.K}
	q, err := h.RunQWM(c.W, qwm.Options{})
	if err != nil {
		d.Err = "qwm: " + err.Error()
		return d
	}
	s, err := runSpiceRef(h, c.W)
	if err != nil {
		d.Err = "spice: " + err.Error()
		return d
	}
	d.QWMDelay, d.SpiceDelay = q.Delay, s.Delay
	d.QWMSlew, d.SpiceSlew = q.Slew, s.Slew
	d.DelayErrPct = wave.DelayErrorPct(q.Delay, s.Delay)
	d.AccuracyPct = wave.AccuracyPct(q.Delay, s.Delay)
	if q.Slew > 0 && s.Slew > 0 {
		d.SlewErrPct = wave.DelayErrorPct(q.Slew, s.Slew)
	}
	d.Pass = d.DelayErrPct <= tolPct
	return d
}

// runSpiceRef runs the adaptive (LTE-controlled) trapezoidal baseline on a
// workload and measures the output delay and slew. The adaptive stepper
// reproduces the fixed-1 ps reference within ~2 % at a fraction of the time
// points (see DESIGN.md), which keeps a 200-case sweep tractable; HMax is
// clamped so coarse late-tail steps cannot blur the measured edge.
func runSpiceRef(h *bench.Harness, w *stages.Workload) (*bench.EngineRun, error) {
	s, err := spice.New(w.Netlist, h.Tech, false)
	if err != nil {
		return nil, err
	}
	res, err := s.TransientAdaptive(spice.AdaptiveOptions{
		TStop:       w.TStop,
		HMax:        20e-12,
		IC:          w.IC,
		RecordNodes: []string{w.Output},
	})
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
	return &bench.EngineRun{Delay: d, Slew: slew, Output: out, Steps: res.Stats.Steps}, nil
}

// AnalyzeDiff is the outcome of one full-Analyze equivalence check:
// cached-vs-uncached and serial-vs-parallel runs must agree bit for bit.
type AnalyzeDiff struct {
	Name string `json:"name"`
	// Mismatches lists every deviation found; empty means bit-for-bit
	// equivalence across all variants.
	Mismatches []string `json:"mismatches,omitempty"`
	Pass       bool     `json:"pass"`
	Err        string   `json:"err,omitempty"`
}

// analyze runs one case on a fresh analyzer with the given worker count,
// recording into metrics when non-nil.
func analyze(tech *mos.Tech, lib *devmodel.Library, c *AnalyzeCase, workers int, metrics *obs.Registry) (*sta.Analyzer, *sta.Result, error) {
	a := sta.New(tech, lib, sta.Config{Workers: workers, Metrics: metrics})
	res, err := a.AnalyzeContext(nil, sta.Request{Netlist: c.Netlist, Primary: c.Primary, Outputs: c.Outputs})
	return a, res, err
}

// diffResults appends a description of every field where got deviates from
// ref. Arrival comparison is exact (bit-for-bit float equality), as the
// engine's determinism guarantee promises.
func diffResults(label string, ref, got *sta.Result, out []string) []string {
	return diffResultsTol(label, ref, got, 0, out)
}

// diffResultsTol is diffResults with arrivals, slews and the worst arrival
// compared within relative tolerance rel (0 demands bit-for-bit equality);
// the worst output and the critical path are always compared exactly. Nets
// are visited in sorted order, so a report is reproducible from its seed.
func diffResultsTol(label string, ref, got *sta.Result, rel float64, out []string) []string {
	for _, net := range sortedNets(ref.Arrivals) {
		r := ref.Arrivals[net]
		if g, ok := got.Arrivals[net]; !ok || !arrivalWithin(g, r, rel) {
			out = append(out, fmt.Sprintf("%s: arrival[%s] = %+v, want %+v", label, net, got.Arrivals[net], r))
		}
	}
	for _, net := range sortedNets(got.Arrivals) {
		if _, ok := ref.Arrivals[net]; !ok {
			out = append(out, fmt.Sprintf("%s: extra arrival[%s]", label, net))
		}
	}
	if !within(got.WorstArrival, ref.WorstArrival, rel) || got.WorstOutput != ref.WorstOutput {
		out = append(out, fmt.Sprintf("%s: worst %g@%s, want %g@%s", label,
			got.WorstArrival, got.WorstOutput, ref.WorstArrival, ref.WorstOutput))
	}
	if !reflect.DeepEqual(got.CriticalPath, ref.CriticalPath) {
		out = append(out, fmt.Sprintf("%s: critical path %v, want %v", label, got.CriticalPath, ref.CriticalPath))
	}
	return out
}

// sortedNets returns a result's net names in sorted order; every verify
// check that reports per-net problems walks nets this way.
func sortedNets(arr map[string]sta.Arrival) []string {
	nets := make([]string, 0, len(arr))
	for net := range arr {
		nets = append(nets, net)
	}
	sort.Strings(nets)
	return nets
}

// within reports whether a and b agree within relative tolerance rel; with
// rel = 0 only equal values agree.
func within(a, b, rel float64) bool {
	return a == b || math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

func arrivalWithin(a, b sta.Arrival, rel float64) bool {
	return within(a.Rise, b.Rise, rel) && within(a.Fall, b.Fall, rel) &&
		within(a.RiseSlew, b.RiseSlew, rel) && within(a.FallSlew, b.FallSlew, rel)
}

// RunAnalyzeDiff checks one generated tree across three variants against
// the cold serial reference: a warm re-run on the same analyzer (cache hits
// only), a cold parallel run, and a warm parallel re-run. metrics, when
// non-nil, is attached to every analyzer it constructs, so a verification
// sweep doubles as an observability exercise of the engine.
func RunAnalyzeDiff(tech *mos.Tech, lib *devmodel.Library, c *AnalyzeCase, workers int, metrics *obs.Registry) AnalyzeDiff {
	d := AnalyzeDiff{Name: c.Name}
	serial, ref, err := analyze(tech, lib, c, 1, metrics)
	if err != nil {
		d.Err = err.Error()
		return d
	}
	warm, err := serial.AnalyzeContext(nil, sta.Request{Netlist: c.Netlist, Primary: c.Primary, Outputs: c.Outputs})
	if err != nil {
		d.Err = "warm: " + err.Error()
		return d
	}
	d.Mismatches = diffResults("cached-vs-uncached", ref, warm, d.Mismatches)
	if warm.StagesEvaluated != 0 {
		d.Mismatches = append(d.Mismatches, fmt.Sprintf("warm re-run evaluated %d stages, want 0", warm.StagesEvaluated))
	}

	par, pres, err := analyze(tech, lib, c, workers, metrics)
	if err != nil {
		d.Err = "parallel: " + err.Error()
		return d
	}
	d.Mismatches = diffResults("serial-vs-parallel", ref, pres, d.Mismatches)
	if pres.StagesEvaluated != ref.StagesEvaluated {
		d.Mismatches = append(d.Mismatches, fmt.Sprintf("parallel evaluated %d stages, serial %d", pres.StagesEvaluated, ref.StagesEvaluated))
	}
	pwarm, err := par.AnalyzeContext(nil, sta.Request{Netlist: c.Netlist, Primary: c.Primary, Outputs: c.Outputs})
	if err != nil {
		d.Err = "parallel warm: " + err.Error()
		return d
	}
	d.Mismatches = diffResults("parallel-cached", ref, pwarm, d.Mismatches)

	d.Pass = len(d.Mismatches) == 0
	return d
}

// RunSiblingDiff is the aliasing trap: analyze the light-load tree, then the
// structurally identical heavy-load tree on the SAME analyzer, and compare
// the heavy result bit-for-bit against a fresh uncached analyzer. A cache
// key that omits the load digest serves the heavy tree from the light
// tree's entries and fails here; it also checks the loads actually matter
// (the two trees must not produce identical arrivals). metrics, when
// non-nil, is attached to the analyzers it constructs.
func RunSiblingDiff(tech *mos.Tech, lib *devmodel.Library, p *SiblingPair, workers int, metrics *obs.Registry) AnalyzeDiff {
	d := AnalyzeDiff{Name: p.Name}
	shared := sta.New(tech, lib, sta.Config{Workers: workers, Metrics: metrics})
	lightRes, err := shared.AnalyzeContext(nil, sta.Request{Netlist: p.A.Netlist, Primary: p.A.Primary, Outputs: p.A.Outputs})
	if err != nil {
		d.Err = "light: " + err.Error()
		return d
	}
	heavyShared, err := shared.AnalyzeContext(nil, sta.Request{Netlist: p.B.Netlist, Primary: p.B.Primary, Outputs: p.B.Outputs})
	if err != nil {
		d.Err = "heavy (shared cache): " + err.Error()
		return d
	}
	_, heavyRef, err := analyze(tech, lib, p.B, 1, metrics)
	if err != nil {
		d.Err = "heavy (fresh): " + err.Error()
		return d
	}
	d.Mismatches = diffResults("shared-cache-vs-fresh", heavyRef, heavyShared, d.Mismatches)
	if p.Distinct && reflect.DeepEqual(lightRes.Arrivals, heavyShared.Arrivals) {
		d.Mismatches = append(d.Mismatches, "heavy-load arrivals identical to light-load arrivals (loads ignored)")
	}
	d.Pass = len(d.Mismatches) == 0
	return d
}
