package sta

import (
	"errors"

	"qwm/internal/qwm"
)

// The STA-level error taxonomy. The solver sentinels are re-exported from
// internal/qwm so callers holding only an sta import can classify failures
// with errors.Is; the two sta-specific sentinels cover the boundaries the
// solver never sees (worker panics, malformed netlists and inputs).
var (
	// ErrNoConvergence marks a numerical solver failure (the QWM Newton
	// ladder and its bisection fallback both gave up). Inside an Analyze it
	// triggers tier escalation instead of failing the run.
	ErrNoConvergence = qwm.ErrNoConvergence
	// ErrBudgetExceeded marks an evaluation aborted by Config.Budget (or
	// an injected budget-exhaustion fault), not by a numerical failure.
	ErrBudgetExceeded = qwm.ErrBudgetExceeded
	// ErrPanicRecovered wraps a panic raised inside a stage-direction
	// evaluation and converted to an error at the tier boundary. The
	// panicking tier is skipped; the ladder continues with the next tier,
	// so one broken evaluation cannot take down a whole Analyze or strand
	// a single-flight cache entry.
	ErrPanicRecovered = errors.New("sta: panic recovered during evaluation")
	// ErrInvalidNetlist wraps every pre-flight validation failure
	// (malformed devices, duplicate names, non-finite values, floating
	// capacitor terminals, combinational cycles), which rejects the analysis
	// before any solver work, and the structural defects found later: a
	// netlist with no logic stage, a stage output with no path to either
	// rail, a requested output the netlist does not drive. Use errors.Is to
	// detect this class.
	ErrInvalidNetlist = errors.New("sta: invalid netlist")
	// ErrInvalidInput wraps every rejected primary-input arrival (a
	// non-finite time or slew, a negative slew, or a slew above
	// MaxInputSlew). Like ErrInvalidNetlist it is raised before any solver
	// work.
	ErrInvalidInput = errors.New("sta: invalid primary input")
)
