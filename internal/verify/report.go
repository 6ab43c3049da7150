package verify

import (
	"encoding/json"
	"math"
	"sort"

	"qwm/internal/api/v1"
)

// Histogram is the delay-error distribution in fixed percent buckets.
type Histogram struct {
	Under1  int `json:"lt_1pct"`
	Under2  int `json:"lt_2pct"`
	Under5  int `json:"lt_5pct"`
	Under10 int `json:"lt_10pct"`
	Over10  int `json:"ge_10pct"`
}

func (h *Histogram) add(errPct float64) {
	switch {
	case errPct < 1:
		h.Under1++
	case errPct < 2:
		h.Under2++
	case errPct < 5:
		h.Under5++
	case errPct < 10:
		h.Under10++
	default:
		h.Over10++
	}
}

// Summary condenses a run: the per-case delay-error distribution of the
// QWM-vs-SPICE stage sweep.
type Summary struct {
	StageCases    int `json:"stage_cases"`
	StageErrors   int `json:"stage_engine_errors"` // engine failures, no comparison
	StageFailures int `json:"stage_tol_failures"`  // compared but over tolerance

	MedianDelayErrPct float64   `json:"median_delay_err_pct"`
	MeanDelayErrPct   float64   `json:"mean_delay_err_pct"`
	P90DelayErrPct    float64   `json:"p90_delay_err_pct"`
	P95DelayErrPct    float64   `json:"p95_delay_err_pct"`
	MaxDelayErrPct    float64   `json:"max_delay_err_pct"`
	MedianAccuracyPct float64   `json:"median_accuracy_pct"`
	MedianSlewErrPct  float64   `json:"median_slew_err_pct"`
	ErrHistogram      Histogram `json:"delay_err_histogram"`

	// Pass requires median accuracy >= 95 % and no engine errors.
	Pass bool `json:"pass"`
}

// Report is the full JSON artifact of one stage sweep.
type Report struct {
	SchemaVersion string      `json:"schema_version"`
	Seed          int64       `json:"seed"`
	N             int         `json:"n"`
	TolPct        float64     `json:"tol_pct"`
	Stage         []StageDiff `json:"stage_cases"`
	Summary       Summary     `json:"summary"`
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return sorted[lo]
	}
	frac := idx - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Finalize computes the summary from the accumulated per-case records and
// stamps the wire schema version.
func (r *Report) Finalize() {
	r.SchemaVersion = v1.SchemaVersion
	s := &r.Summary
	*s = Summary{StageCases: len(r.Stage)}

	var delayErrs, slewErrs, accs []float64
	for _, d := range r.Stage {
		if d.Err != "" {
			s.StageErrors++
			continue
		}
		delayErrs = append(delayErrs, d.DelayErrPct)
		accs = append(accs, d.AccuracyPct)
		if d.SlewErrPct > 0 {
			slewErrs = append(slewErrs, d.SlewErrPct)
		}
		s.ErrHistogram.add(d.DelayErrPct)
		if !d.Pass {
			s.StageFailures++
		}
	}
	sort.Float64s(delayErrs)
	sort.Float64s(slewErrs)
	sort.Float64s(accs)
	if len(delayErrs) > 0 {
		s.MedianDelayErrPct = percentile(delayErrs, 50)
		sum := 0.0
		for _, e := range delayErrs {
			sum += e
		}
		s.MeanDelayErrPct = sum / float64(len(delayErrs))
		s.P90DelayErrPct = percentile(delayErrs, 90)
		s.P95DelayErrPct = percentile(delayErrs, 95)
		s.MaxDelayErrPct = delayErrs[len(delayErrs)-1]
		s.MedianAccuracyPct = percentile(accs, 50)
	}
	if len(slewErrs) > 0 {
		s.MedianSlewErrPct = percentile(slewErrs, 50)
	}
	s.Pass = s.MedianAccuracyPct >= 95 && s.StageErrors == 0
}

// JSON renders the report with indentation.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }
