package spice

import (
	"fmt"
	"math"
	"qwm/internal/circuit"
	"qwm/internal/la"
)

// AdaptiveOptions configures local-truncation-error-controlled transient
// analysis. The controller compares each accepted trapezoidal solution
// against a linear predictor from the two previous time points; the
// difference estimates the local truncation error.
type AdaptiveOptions struct {
	TStop float64
	// HInit is the starting step (default 1 ps), bounded by [HMin, HMax]
	// (defaults 10 fs and TStop/50).
	HInit, HMin, HMax float64
	// LTETol is the accepted per-step voltage error (default 1 mV).
	LTETol float64
	// MaxNR and Gmin as in Options.
	MaxNR int
	Gmin  float64
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
	h := o.HInit
	if h == 0 {
		h = 1e-12
	}
	hMin := o.HMin
	if hMin == 0 {
		hMin = 1e-14
	}
	hMax := o.HMax
	if hMax == 0 {
		hMax = o.TStop / 50
	}
	tol := o.LTETol
	if tol == 0 {
		tol = 1e-3
	}
	maxNR := o.MaxNR
	if maxNR == 0 {
		maxNR = 60
	}
	gmin := o.Gmin
	if gmin == 0 {
		gmin = 1e-12
	}

	c := &ctx{
		x:    make([]float64, s.n),
		f:    make([]float64, s.n),
		jac:  la.NewMatrix(s.n, s.n),
		trap: true,
	}
	if o.IC != nil {
		s.seedFromSources(c.x, 0)
		for name, v := range o.IC {
			if i, ok := s.idx[canon(name)]; ok && i >= 0 {
				c.x[i] = v
			}
		}
	} else {
		op, err := s.DCOp(0)
		if err != nil {
			return nil, err
		}
		for i, name := range s.nodeNames {
			c.x[i] = op[name]
		}
	}
	c.t, c.h, c.dc = 0, h, false
	for _, e := range s.elems {
		if st, ok := e.(stateful); ok {
			st.initState(c)
		}
	}

	record := map[string]bool{}
	if o.RecordNodes == nil {
		for _, nd := range s.nodeNames {
			record[nd] = true
		}
	} else {
		for _, nd := range o.RecordNodes {
			record[canon(nd)] = true
		}
	}
	res := &Result{V: map[string][]float64{}}
	push := func(t float64) {
		res.T = append(res.T, t)
		for i, name := range s.nodeNames {
			if record[name] {
				res.V[name] = append(res.V[name], c.x[i])
			}
		}
	}
	push(0)

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
		iters, ok := s.solvePoint(c, gmin, maxNR)
		res.Stats.NRIterations += iters
		if o.MaxNRIters > 0 && res.Stats.NRIterations > o.MaxNRIters {
			return nil, fmt.Errorf("spice: Newton iteration budget of %d exhausted at t = %g", o.MaxNRIters, tNow)
		}
		if !ok {
			// Newton failure: halve the step and retry.
			copy(c.x, saved)
			if h <= hMin*1.0001 {
				res.Stats.NonConverged++
				// Accept whatever we have at the minimum step to keep moving.
				c.t = tNow + h
				s.solvePoint(c, gmin, maxNR)
			} else {
				h = math.Max(h/2, hMin)
				continue
			}
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
		// Accept the step.
		for _, e := range s.elems {
			if st, okSt := e.(stateful); okSt {
				st.accept(c)
			}
		}
		res.Stats.Steps++
		tPrev2, tPrev = tPrev, c.t
		copy(xPrev2, xPrev)
		copy(xPrev, c.x)
		haveTwo = true
		tNow = c.t
		push(tNow)
		// Grow only when comfortably inside tolerance.
		if lte < tol/4 {
			h = math.Min(h*1.4, hMax)
		}
	}
	return res, nil
}

func canon(name string) string { return circuit.CanonName(name) }
