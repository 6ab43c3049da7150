package spice

import (
	"fmt"
	"math"
)

// Step bounds of the adaptive transient: it starts at hInit and never goes
// below hMin.
const (
	hInit = 1e-12
	hMin  = 1e-14
)

// AdaptiveOptions configures local-truncation-error-controlled transient
// analysis. The controller compares each accepted trapezoidal solution
// against a linear predictor from the two previous time points; the
// difference estimates the local truncation error.
type AdaptiveOptions struct {
	TStop float64
	// HMax bounds the step (default TStop/50); it starts at 1 ps and never
	// goes below 10 fs.
	HMax float64
	// LTETol is the accepted per-step voltage error (default 1 mV).
	LTETol float64
	// MaxNRIters, when positive, caps the Newton iterations of the whole
	// run: past it TransientAdaptive gives up with an error instead of
	// grinding through a circuit whose steps keep failing.
	MaxNRIters int
	IC         map[string]float64
	// RecordNodes limits which node waveforms are stored (nil = all).
	RecordNodes []string
}

// TransientAdaptive integrates with trapezoidal companion models and an
// LTE-based variable step — the "industrial" counterpart of the fixed-step
// runs the paper compares against. It typically needs far fewer steps for
// the same delay accuracy.
func (s *Simulator) TransientAdaptive(o AdaptiveOptions) (*Result, error) {
	if o.TStop <= 0 {
		return nil, fmt.Errorf("spice: TStop must be positive")
	}
	h := hInit
	hMax := o.HMax
	if hMax == 0 {
		hMax = o.TStop / 50
	}
	tol := o.LTETol
	if tol == 0 {
		tol = 1e-3
	}
	tr, err := s.start(o.IC, o.RecordNodes, h)
	if err != nil {
		return nil, err
	}
	c, res := tr.c, tr.res

	// History for the linear predictor.
	xPrev := append([]float64(nil), c.x...)
	xPrev2 := append([]float64(nil), c.x...)
	tPrev, tPrev2 := 0.0, 0.0
	haveTwo := false

	tNow := 0.0
	saved := append([]float64(nil), c.x...)
	for tNow < o.TStop-1e-21 {
		if tNow+h > o.TStop {
			h = o.TStop - tNow
		}
		copy(saved, c.x)
		c.t = tNow + h
		c.h = h
		ok := tr.solve()
		if o.MaxNRIters > 0 && res.Stats.NRIterations > o.MaxNRIters {
			return nil, fmt.Errorf("spice: Newton iteration budget of %d exhausted at t = %g", o.MaxNRIters, tNow)
		}
		if !ok {
			if h > hMin*1.0001 {
				// Newton failure: halve the step and retry.
				copy(c.x, saved)
				h = math.Max(h/2, hMin)
				continue
			}
			// At the minimum step, accept the last iterate to keep moving.
			res.Stats.NonConverged++
		}
		// LTE estimate against the linear predictor. The predictor error
		// over-estimates the trapezoidal truncation error; the 1/4 factor
		// keeps the controller from being overly timid.
		lte := 0.0
		if haveTwo {
			dtp := tPrev - tPrev2
			for i := 0; i < len(s.nodeNames); i++ {
				pred := xPrev[i]
				if dtp > 0 {
					pred += (xPrev[i] - xPrev2[i]) / dtp * h
				}
				if d := math.Abs(c.x[i] - pred); d > lte {
					lte = d
				}
			}
			lte *= 0.25
			if lte > tol && h > hMin*1.0001 {
				copy(c.x, saved)
				h = math.Max(h/2, hMin)
				continue
			}
		}
		tr.accept()
		tPrev2, tPrev = tPrev, c.t
		copy(xPrev2, xPrev)
		copy(xPrev, c.x)
		haveTwo = true
		tNow = c.t
		// Grow only when comfortably inside tolerance.
		if lte < tol/4 {
			h = math.Min(h*1.4, hMax)
		}
	}
	return res, nil
}
