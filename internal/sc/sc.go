// Package sc implements the TETA-class baseline from the paper's related
// work (§II): time-domain integration of the charge/discharge chain with an
// accurate tabular device model, but with Newton–Raphson replaced by
// successive-chord (SC) iteration — the linearized conductance matrix is
// held constant across iterations (and across steps, until divergence), so
// each iteration costs only a residual evaluation and one O(K) tridiagonal
// solve. Theoretically slower convergence per step, much cheaper per
// iteration (Ortega & Rheinboldt; Dartu & Pileggi's TETA).
//
// It consumes the same Chain the QWM engine does, which makes it both an
// independent reference for QWM's accuracy and the subject of the
// integration-vs-waveform-matching benchmark.
package sc

import (
	"fmt"
	"math"

	"qwm/internal/la"
	"qwm/internal/mos"
	"qwm/internal/qwm"
	"qwm/internal/wave"
)

// Options configures the SC transient.
type Options struct {
	Step  float64
	TStop float64
	// MaxIter bounds SC iterations per time step (default 150; successive
	// chords converges linearly, so it trades many cheap iterations for
	// Newton's few expensive ones).
	MaxIter int
}

// Result holds the integration outcome (unfolded voltages).
type Result struct {
	T      []float64
	Nodes  []*wave.PWL
	Output *wave.PWL
	// Work counters.
	Steps, Iterations, Rebuilds int
	NonConverged                int
}

// Evaluate integrates the chain ODE with backward Euler + SC iteration.
func Evaluate(ch *qwm.Chain, o Options) (*Result, error) {
	if err := ch.Validate(); err != nil {
		return nil, err
	}
	if o.Step <= 0 || o.TStop <= 0 {
		return nil, fmt.Errorf("sc: Step and TStop must be positive")
	}
	maxIter := o.MaxIter
	if maxIter == 0 {
		maxIter = 150
	}
	m := ch.M()
	v := append([]float64(nil), ch.V0...) // folded node voltages 1..m (index 0 = node 1)
	capn := make([]float64, m)
	h := o.Step
	steps := int(math.Round(o.TStop / o.Step))
	if steps < 1 {
		steps = 1
	}

	res := &Result{}
	folded := make([][]float64, m)
	times := make([]float64, 0, steps+1)
	record := func(t float64) {
		times = append(times, t)
		for k := 0; k < m; k++ {
			folded[k] = append(folded[k], v[k])
		}
	}
	record(0)

	// elemJ: current through element i (downward) and its dJ/dVlow, dJ/dVup.
	elemJ := func(i int, t float64, vLow, vUp float64) (j, dLow, dUp float64) {
		el := ch.Elems[i]
		if el.IsWire() {
			g := 1 / el.R
			return (vUp - vLow) * g, -g, g
		}
		g := el.Gate.Eval(t)
		jj, _, dvd, dvs := el.Model.IV(el.W, g, vUp, vLow)
		return jj, dvs, dvd
	}
	nodeV := func(vv []float64, k int) float64 { // node index 0..m (0 = rail)
		if k == 0 {
			return 0
		}
		return vv[k-1]
	}

	// residual fills F at candidate voltages x for the step ending at t.
	vPrev := make([]float64, m)
	residual := func(x []float64, t float64, F []float64) {
		for k := 1; k <= m; k++ {
			jBelow, _, _ := elemJ(k-1, t, nodeV(x, k-1), nodeV(x, k))
			var jAbove float64
			if k < m {
				jAbove, _, _ = elemJ(k, t, nodeV(x, k), nodeV(x, k+1))
			}
			F[k-1] = capn[k-1]*(x[k-1]-vPrev[k-1])/h - (jAbove - jBelow)
		}
	}
	// chordG returns the conservative chord conductance of element i: the
	// maximum channel conductance over the swing (full gate drive, triode
	// origin). Chord conductances that upper-bound the true Jacobian make
	// the successive-chord iteration a contraction for monotone devices
	// (Ortega & Rheinboldt), so the matrix never needs rebuilding.
	chordG := func(i int) float64 {
		el := ch.Elems[i]
		if el.IsWire() {
			return 1 / el.R
		}
		_, _, dvd, _ := el.Model.IV(el.W, ch.VDD, 0.005, 0)
		if dvd <= 0 {
			dvd = 1e-6
		}
		// The source-side derivative gm + gds + gmb exceeds the triode-origin
		// gds; a 2.5× margin keeps the chord an upper bound everywhere, the
		// contraction condition for a never-rebuilt matrix.
		return 2.5 * dvd
	}
	// chord builds the fixed tridiagonal iteration matrix (a grounded-cap
	// resistor-network stamp with the chord conductances).
	chord := func() *la.Tridiag {
		tri := la.NewTridiag(m)
		for k := 1; k <= m; k++ {
			gBelow := chordG(k - 1)
			var gAbove float64
			if k < m {
				gAbove = chordG(k)
			}
			tri.Diag[k-1] = capn[k-1]/h + gBelow + gAbove
			if k >= 2 {
				tri.Sub[k-2] = -gBelow
			}
			if k < m {
				tri.Sup[k-1] = -gAbove
			}
		}
		res.Rebuilds++
		return tri
	}

	for k := 0; k < m; k++ {
		capn[k] = ch.Caps[k].At(v[k], ch.VDD, ch.Pol)
	}
	tri := chord()
	F := make([]float64, m)
	x := make([]float64, m)
	dx := make([]float64, m)
	cp := make([]float64, m)

	for s := 1; s <= steps; s++ {
		t := float64(s) * h
		copy(vPrev, v)
		capsStale := false
		for k := 0; k < m; k++ {
			c := ch.Caps[k].At(v[k], ch.VDD, ch.Pol)
			if math.Abs(c-capn[k]) > 0.05*capn[k] {
				capsStale = true
			}
			capn[k] = c
		}
		if capsStale {
			// Junction capacitances moved enough to shift the C/h diagonal;
			// rebuild the (still conservative) chord.
			tri = chord()
		}
		copy(x, v)
		converged := false
		for iter := 1; iter <= maxIter; iter++ {
			res.Iterations++
			residual(x, t, F)
			// Converged when the KCL residual is tiny in absolute amps (the
			// same criterion the Newton baseline uses) or when the chord
			// update has shrunk below a nanovolt.
			if la.VecNormInf(F) < 1e-9 {
				converged = true
				break
			}
			if err := tri.SolveInto(F, dx, cp); err != nil || hasNaN(dx) {
				break
			}
			for k := 0; k < m; k++ {
				x[k] -= dx[k]
			}
			if la.VecNormInf(dx) < 1e-9 {
				converged = true
				break
			}
		}
		if !converged {
			res.NonConverged++
		}
		copy(v, x)
		res.Steps++
		record(t)
	}

	res.T = times
	res.Nodes = make([]*wave.PWL, m)
	for k := 0; k < m; k++ {
		vals := folded[k]
		if ch.Pol == mos.PMOS {
			un := make([]float64, len(vals))
			for i, fv := range vals {
				un[i] = ch.VDD - fv
			}
			vals = un
		}
		p, err := wave.NewPWL(times, vals)
		if err != nil {
			return nil, err
		}
		res.Nodes[k] = p
	}
	res.Output = res.Nodes[m-1]
	return res, nil
}

func hasNaN(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// Delay50 measures the 50 % delay of the output relative to tIn, on the
// folded (falling) convention.
func Delay50(ch *qwm.Chain, r *Result, tIn float64) (float64, error) {
	rising := ch.Pol == mos.PMOS
	tc, ok := r.Output.Crossing(ch.VDD/2, rising)
	if !ok {
		return 0, fmt.Errorf("sc: output never crossed 50%%")
	}
	return tc - tIn, nil
}
