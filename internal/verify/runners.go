package verify

import (
	"qwm/internal/bench"
	"qwm/internal/qwm"
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
	s, err := h.RunSpice(c.W, 0)
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
