package qwm

import (
	"errors"
	"testing"
	"time"

	"qwm/internal/faultinject"
)

// TestEvaluateInjectedDivergenceIsTyped checks the NRDivergence fault site:
// an injected region-solve failure must surface as an error wrapping
// ErrNoConvergence (and nothing else in the taxonomy), so the sta ladder
// can classify it with errors.Is instead of string matching.
func TestEvaluateInjectedDivergenceIsTyped(t *testing.T) {
	ch := fixedStack(t, 2, 1e-6, 5e-15, 0)
	inj := faultinject.New(1).Enable(faultinject.NRDivergence, 1)
	_, err := Evaluate(ch, Options{Fault: inj, FaultKey: "stack2|fall"})
	if err == nil {
		t.Fatal("injected NR divergence produced no error")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("error %v does not wrap ErrNoConvergence", err)
	}
	if errors.Is(err, ErrBudgetExceeded) || errors.Is(err, ErrInternal) {
		t.Errorf("error %v wraps the wrong sentinel", err)
	}
	if inj.FiredTotal() == 0 {
		t.Error("injector reports zero fires")
	}
}

// TestEvaluateNRBudgetIsTyped checks that exhausting Options.NRBudget aborts
// with an error wrapping ErrBudgetExceeded — a resource abort, distinct from
// numerical non-convergence.
func TestEvaluateNRBudgetIsTyped(t *testing.T) {
	ch := fixedStack(t, 3, 1e-6, 5e-15, 0)
	_, err := Evaluate(ch, Options{NRBudget: 1})
	if err == nil {
		t.Fatal("NRBudget=1 evaluation succeeded; a stack solve needs more than one Newton iteration")
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("error %v does not wrap ErrBudgetExceeded", err)
	}
	if errors.Is(err, ErrNoConvergence) {
		t.Errorf("budget abort %v must not read as a convergence failure", err)
	}
}

// TestEvaluateWallBudgetIsTyped checks the wall-clock budget path: an
// already-expired deadline aborts at the next region boundary with the same
// typed sentinel as the iteration budget.
func TestEvaluateWallBudgetIsTyped(t *testing.T) {
	ch := fixedStack(t, 3, 1e-6, 5e-15, 0)
	_, err := Evaluate(ch, Options{WallBudget: time.Nanosecond})
	if err == nil {
		t.Skip("evaluation finished inside 1 ns (implausible) — nothing to assert")
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("error %v does not wrap ErrBudgetExceeded", err)
	}
}

// TestEvaluateForceBisectionMatchesNewton checks the per-region bisection
// rescue: with the Newton guess ladder disabled every region is solved by
// the bracketing fallback, which must still converge and agree with the
// Newton path on the 50 % delay to within a few percent.
func TestEvaluateForceBisectionMatchesNewton(t *testing.T) {
	ref, err := Evaluate(fixedStack(t, 3, 1e-6, 5e-15, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bis, err := Evaluate(fixedStack(t, 3, 1e-6, 5e-15, 0), Options{forceBisection: true})
	if err != nil {
		t.Fatalf("forced-bisection evaluation failed: %v", err)
	}
	d0, err := ref.Delay50(0, tech.VDD)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := bis.Delay50(0, tech.VDD)
	if err != nil {
		t.Fatal(err)
	}
	if !feq(d0, d1, 0.05) {
		t.Errorf("bisection delay %g deviates from Newton delay %g by more than 5%%", d1, d0)
	}
}

// TestEvaluateInjectedPivotBreakdownRecovers checks the PivotBreakdown fault
// site: a forced Thomas-pivot failure must be absorbed by the in-scratch
// dense-LU recovery — the evaluation succeeds, agrees with the clean run,
// and the dense-fallback counter records the detour.
func TestEvaluateInjectedPivotBreakdownRecovers(t *testing.T) {
	ref, err := Evaluate(fixedStack(t, 3, 1e-6, 5e-15, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(7).Enable(faultinject.PivotBreakdown, 1)
	got, err := Evaluate(fixedStack(t, 3, 1e-6, 5e-15, 0), Options{Fault: inj, FaultKey: "stack3|fall"})
	if err != nil {
		t.Fatalf("pivot-breakdown injection must recover in place, got %v", err)
	}
	if got.Stats.DenseFallbacks == 0 {
		t.Error("dense-LU recovery never engaged despite rate-1 pivot injection")
	}
	d0, _ := ref.Delay50(0, tech.VDD)
	d1, _ := got.Delay50(0, tech.VDD)
	if !feq(d0, d1, 0.02) {
		t.Errorf("recovered delay %g deviates from clean delay %g", d1, d0)
	}
}
