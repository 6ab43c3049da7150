package sta

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/faultinject"
	"qwm/internal/qwm"
)

// analyzeFaulted runs one Analyze of a small inverter chain on a fresh
// Analyzer (so faulted cache entries never leak between experiments) with
// the given injector and worker count.
func analyzeFaulted(t *testing.T, inj *faultinject.Injector, workers int, budget EvalBudget) *Result {
	t.Helper()
	a := New(tech, lib, Config{Workers: workers, Budget: budget, FaultPlan: inj})
	res, err := a.AnalyzeContext(nil, Request{
		Netlist: inverterChain(3, 1e-6, 2e-6),
		Primary: map[string]Arrival{"in0": {}},
		Outputs: []string{"out"},
	})
	if err != nil {
		t.Fatalf("degraded analyze must still complete, got: %v", err)
	}
	return res
}

// requireConservative asserts every degraded arrival is at or above its
// clean counterpart — the ladder's core contract.
func requireConservative(t *testing.T, clean, got *Result, label string) {
	t.Helper()
	const eps = 1e-12
	for net, ref := range clean.Arrivals {
		g, ok := got.Arrivals[net]
		if !ok {
			t.Errorf("%s: net %s missing from degraded arrivals", label, net)
			continue
		}
		if g.Rise < ref.Rise*(1-eps) || g.Fall < ref.Fall*(1-eps) {
			t.Errorf("%s: net %s degraded arrival (r %g, f %g) below clean (r %g, f %g)",
				label, net, g.Rise, g.Fall, ref.Rise, ref.Fall)
		}
	}
}

// TestLadderNRDivergenceEscalatesToSpice: killing every QWM region solve
// (Newton and bisection tiers alike) must land each direction on the spice
// tier, with complete and conservative arrivals.
func TestLadderNRDivergenceEscalatesToSpice(t *testing.T) {
	clean := analyzeFaulted(t, nil, 1, EvalBudget{})
	if !clean.Diagnostics.Healthy() {
		t.Fatalf("clean run not healthy: %s", clean.Diagnostics)
	}
	if clean.TierCounts[TierQWM] == 0 {
		t.Fatalf("clean run produced no QWM-tier timings: %v", clean.TierCounts)
	}

	inj := faultinject.New(3).Enable(faultinject.NRDivergence, 1)
	res := analyzeFaulted(t, inj, 1, EvalBudget{})
	if res.Diagnostics.Healthy() {
		t.Fatal("rate-1 NR divergence left the run healthy")
	}
	if res.TierCounts[TierSpice] == 0 {
		t.Errorf("no direction landed on the spice tier: %v", res.TierCounts)
	}
	if res.TierCounts[TierQWM] != 0 || res.TierCounts[TierBisect] != 0 {
		t.Errorf("QWM tiers survived a rate-1 divergence injection: %v", res.TierCounts)
	}
	if res.Degraded != len(res.EvalTier) {
		t.Errorf("Degraded = %d but EvalTier has %d entries", res.Degraded, len(res.EvalTier))
	}
	requireConservative(t, clean, res, "nr-divergence")
}

// TestLadderPanicIsolation: a synthetic panic in every numerical tier must
// be recovered at the tier boundary (counted in PanicsRecovered), leaving
// the RC-bound floor to answer — the Analyze never fails and no worker
// goroutine is lost, at any worker count.
func TestLadderPanicIsolation(t *testing.T) {
	clean := analyzeFaulted(t, nil, 1, EvalBudget{})
	for _, workers := range []int{1, 8} {
		inj := faultinject.New(5).Enable(faultinject.Panic, 1)
		res := analyzeFaulted(t, inj, workers, EvalBudget{})
		if res.PanicsRecovered == 0 {
			t.Fatalf("workers=%d: no panics recovered despite rate-1 injection", workers)
		}
		if res.TierCounts[TierBound] == 0 {
			t.Errorf("workers=%d: panicking tiers must fall through to rc-bound: %v", workers, res.TierCounts)
		}
		for net := range clean.Arrivals {
			if _, ok := res.Arrivals[net]; !ok {
				t.Errorf("workers=%d: net %s missing (completeness)", workers, net)
			}
		}
		requireConservative(t, clean, res, "panic")
	}
}

// TestLadderBudgetDegradesNeverFails: a starvation-level NR budget aborts
// the QWM tiers but must degrade, not fail — every direction resolves below
// TierQWM and stays conservative.
func TestLadderBudgetDegradesNeverFails(t *testing.T) {
	clean := analyzeFaulted(t, nil, 1, EvalBudget{})
	res := analyzeFaulted(t, nil, 1, EvalBudget{NRIters: 1})
	if res.Diagnostics.Healthy() {
		t.Fatal("NRIters=1 budget left the run healthy")
	}
	if res.TierCounts[TierQWM] != 0 {
		t.Errorf("QWM tier answered under a 1-iteration budget: %v", res.TierCounts)
	}
	if res.Degraded == 0 {
		t.Error("budget starvation must show up as degraded directions")
	}
	requireConservative(t, clean, res, "budget")
}

// TestLadderRecoverableFaultsAreInvisible: PivotBreakdown is absorbed by the
// dense-LU rescue and CacheStall is pure latency — neither may degrade a
// direction or change the tier a direction resolved on. A stall leaves the
// result bit-for-bit clean; a dense-LU-recovered Newton step rounds
// differently from the Thomas step it replaces, so a pivot-faulted result
// matches the clean one within faultinject.PivotRecoveryTol, with the
// critical path and worst output exact.
func TestLadderRecoverableFaultsAreInvisible(t *testing.T) {
	clean := analyzeFaulted(t, nil, 1, EvalBudget{})
	within := func(a, b, rel float64) bool {
		return a == b || math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
	}
	for _, class := range []faultinject.Class{faultinject.PivotBreakdown, faultinject.CacheStall} {
		tol := 0.0
		if class == faultinject.PivotBreakdown {
			tol = faultinject.PivotRecoveryTol
		}
		inj := faultinject.New(9).Enable(class, 1)
		res := analyzeFaulted(t, inj, 1, EvalBudget{})
		if inj.FiredTotal() == 0 {
			t.Errorf("%s: the fault never fired", class)
		}
		if res.Degraded != 0 || res.PanicsRecovered != 0 {
			t.Errorf("%s: degraded %d, panics %d; recoverable faults must be invisible",
				class, res.Degraded, res.PanicsRecovered)
		}
		if res.TierCounts != clean.TierCounts || !reflect.DeepEqual(res.EvalTier, clean.EvalTier) {
			t.Errorf("%s: tiers %v %v, want clean %v %v", class, res.TierCounts, res.EvalTier, clean.TierCounts, clean.EvalTier)
		}
		if len(res.Arrivals) != len(clean.Arrivals) {
			t.Errorf("%s: %d arrivals, want %d", class, len(res.Arrivals), len(clean.Arrivals))
		}
		for net, ref := range clean.Arrivals {
			got := res.Arrivals[net]
			if !within(got.Rise, ref.Rise, tol) || !within(got.Fall, ref.Fall, tol) ||
				!within(got.RiseSlew, ref.RiseSlew, tol) || !within(got.FallSlew, ref.FallSlew, tol) {
				t.Errorf("%s: net %s arrival %+v, want clean %+v within %g", class, net, got, ref, tol)
			}
		}
		if !within(res.WorstArrival, clean.WorstArrival, tol) || res.WorstOutput != clean.WorstOutput {
			t.Errorf("%s: worst %g@%s, want clean %g@%s", class, res.WorstArrival, res.WorstOutput, clean.WorstArrival, clean.WorstOutput)
		}
		if !reflect.DeepEqual(res.CriticalPath, clean.CriticalPath) {
			t.Errorf("%s: critical path %v, want clean %v", class, res.CriticalPath, clean.CriticalPath)
		}
	}
}

// TestLadderDeterministicAcrossWorkers: the same injector seed must produce
// bit-for-bit identical degraded results and tier inventories at Workers 1
// and 8 — the property the key-hash injection design exists to guarantee.
func TestLadderDeterministicAcrossWorkers(t *testing.T) {
	mk := func() *faultinject.Injector { return faultinject.New(11).Enable(faultinject.NRDivergence, 1) }
	s := analyzeFaulted(t, mk(), 1, EvalBudget{})
	p := analyzeFaulted(t, mk(), 8, EvalBudget{})
	if s.TierCounts != p.TierCounts {
		t.Errorf("tier counts differ across workers: %v vs %v", s.TierCounts, p.TierCounts)
	}
	for net, ref := range s.Arrivals {
		if got := p.Arrivals[net]; got != ref {
			t.Errorf("net %s: workers=8 arrival %+v, want workers=1 value %+v", net, got, ref)
		}
	}
}

// TestLadderStructuralFailureDoesNotEscalate: a stage with no pull-up path
// is an input property, not a solver failure — the rise direction must fail
// with an error, not burn through the ladder to a bogus rc-bound answer.
func TestLadderStructuralFailureDoesNotEscalate(t *testing.T) {
	a := New(tech, lib)
	nl := pulldownOnly()
	res, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{"in0": {}}, Outputs: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.EvalErrors != 1 {
		t.Fatalf("EvalErrors = %d, want 1 (structural rise failure)", res.EvalErrors)
	}
	if msg := res.EvalErrorDetail["out~rise"]; strings.Contains(msg, "all tiers failed") {
		t.Errorf("structural failure escalated the ladder: %q", msg)
	}
	if res.Degraded != 0 {
		t.Errorf("structural failure must not count as degradation: %d", res.Degraded)
	}
}

// TestErrorTaxonomySentinels pins the re-exported sentinels: a failure
// wrapped at the solver layer must classify through the sta-level aliases,
// so callers holding only an sta import never need to import internal/qwm.
func TestErrorTaxonomySentinels(t *testing.T) {
	if !errors.Is(fmt.Errorf("%w: region 3", qwm.ErrNoConvergence), ErrNoConvergence) {
		t.Error("solver convergence failure does not match sta.ErrNoConvergence")
	}
	if !errors.Is(fmt.Errorf("%w: NR budget 5", qwm.ErrBudgetExceeded), ErrBudgetExceeded) {
		t.Error("solver budget abort does not match sta.ErrBudgetExceeded")
	}
	if !errors.Is(fmt.Errorf("%w: %v", ErrPanicRecovered, "synthetic"), ErrPanicRecovered) {
		t.Error("wrapped panic error does not match ErrPanicRecovered")
	}
	if errors.Is(ErrBudgetExceeded, ErrNoConvergence) {
		t.Error("budget and convergence sentinels must stay distinct")
	}
}

// TestTierString pins the canonical tier names used in cache keys, metrics
// names and chaos reports.
func TestTierString(t *testing.T) {
	want := map[Tier]string{
		TierQWM:    "qwm",
		TierBisect: "qwm-bisect",
		TierSpice:  "spice",
		TierBound:  "rc-bound",
	}
	for tier, name := range want {
		if tier.String() != name {
			t.Errorf("Tier(%d).String() = %q, want %q", tier, tier.String(), name)
		}
	}
	if s := Tier(200).String(); s != "tier(200)" {
		t.Errorf("out-of-range tier rendered %q", s)
	}
}

// pulldownOnly is an NMOS-only stage: the fall direction is healthy, the
// rise direction has no structural path to vdd.
func pulldownOnly() *circuit.Netlist {
	nl := &circuit.Netlist{}
	nl.AddTransistor(&circuit.Transistor{Name: "mn", Kind: circuit.KindNMOS, Drain: "out", Gate: "in0", Source: "0", Body: "0", W: 1e-6, L: tech.LMin})
	nl.AddCapacitor("cl", "out", "0", 5e-15)
	return nl
}
