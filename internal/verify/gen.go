// Package verify checks QWM's accuracy against SPICE, the paper's own
// validation (Tables I–II): it generates seed-reproducible random stage
// netlists, times each with QWM and with the in-repo SPICE-class transient
// baseline, and gates the median delay accuracy. DumpWorst re-runs the
// worst case with waveform capture for a forensic bundle. The engine's
// equivalence invariants — cached against uncached, serial against
// parallel, the degradation ladder under injected faults and re-analysis
// after an edit — are internal/sta tests, not part of this sweep.
package verify

import (
	"fmt"
	"math/rand"

	"qwm/internal/mos"
	"qwm/internal/stages"
)

// StageCase is one generated single-stage differential case: a random
// series stack evaluated by both QWM and SPICE under identical devices,
// stimulus, loads and initial conditions.
type StageCase struct {
	Name string
	K    int
	W    *stages.Workload
}

// GenStageCase draws one random stack from r: depth 1–10, NMOS or PMOS
// path, randomized W (and, half the time, per-device L), explicit caps on a
// random subset of internal nodes, a random output load, and occasionally a
// ramped input edge. Identical (tech, r-state) always yields the identical
// case — the harness is seed-reproducible end to end.
func GenStageCase(tech *mos.Tech, r *rand.Rand, i int) (*StageCase, error) {
	k := 1 + r.Intn(10)
	pmos := r.Float64() < 0.4

	widths := make([]float64, k)
	for j := range widths {
		if pmos {
			widths[j] = (1.6 + 4.8*r.Float64()) * 1e-6
		} else {
			widths[j] = (0.8 + 3.2*r.Float64()) * 1e-6
		}
	}
	var lengths []float64
	if r.Float64() < 0.5 {
		lengths = make([]float64, k)
		for j := range lengths {
			lengths[j] = tech.LMin * (1 + 0.6*r.Float64())
		}
	}
	nodeCaps := make([]float64, k)
	for j := range nodeCaps {
		if r.Float64() < 0.4 {
			nodeCaps[j] = (0.3 + 2.7*r.Float64()) * 1e-15
		}
	}
	cl := (2 + 20*r.Float64()) * 1e-15
	inSlew := 0.0
	if r.Float64() < 0.3 {
		inSlew = (20 + 100*r.Float64()) * 1e-12
	}

	w, err := stages.CustomStack(tech, stages.StackSpec{
		PMOS: pmos, Widths: widths, Lengths: lengths,
		NodeCaps: nodeCaps, CL: cl, InSlew: inSlew,
	})
	if err != nil {
		return nil, err
	}
	c := &StageCase{Name: fmt.Sprintf("case%03d-%s", i, w.Name), K: k, W: w}
	return c, nil
}
