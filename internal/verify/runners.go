package verify

import (
	"qwm/internal/bench"
	"qwm/internal/qwm"
	"qwm/internal/spice"
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
