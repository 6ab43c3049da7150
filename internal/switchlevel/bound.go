package switchlevel

import (
	"fmt"

	"qwm/internal/circuit"
	"qwm/internal/mos"
)

// BoundFactor is the guard-band the conservative tier applies on top of the
// ln2-scaled Elmore delay. Elmore underestimates multi-pole RC responses by
// at most ~2x in pathological trees and the switch-resistance abstraction
// adds its own error, so a 3x margin keeps the bound safely above both the
// QWM and SPICE answers on every workload in the verify corpus while still
// being the same order of magnitude (a useful, finite pessimism — not +Inf).
const BoundFactor = 3.0

// boundFloor keeps the bound strictly positive even for degenerate
// zero-resistance / zero-cap paths, so downstream arrival-time arithmetic
// never divides by or compares against a zero delay.
const boundFloor = 1e-12

// PathBound returns a conservative upper bound on the 50 % propagation delay
// Delay estimates: the switch-level Elmore estimate inflated by
// BoundFactor. This is the last rung of the sta degradation ladder — it must
// never fail on a structurally valid path and must never be optimistic,
// but it is allowed to be several times pessimistic.
func PathBound(st *circuit.Stage, path *circuit.Path, out string, loads map[string]float64, tech *mos.Tech) (float64, error) {
	d, err := Delay(st, path, out, loads, tech)
	if err != nil {
		return 0, fmt.Errorf("switchlevel: path bound: %w", err)
	}
	b := d * BoundFactor
	if b < boundFloor {
		b = boundFloor
	}
	return b, nil
}
