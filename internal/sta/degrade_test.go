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

// chainRequest is the ladder's small workload: a 3-stage inverter chain.
func chainRequest() Request {
	return Request{
		Netlist: inverterChain(3, 1e-6, 2e-6),
		Primary: map[string]Arrival{"in0": {}},
		Outputs: []string{"out"},
	}
}

// analyzeFaulted runs one Analyze of the inverter chain on a fresh Analyzer
// (so faulted cache entries never leak between experiments) with the given
// injector and worker count.
func analyzeFaulted(t *testing.T, inj *faultinject.Injector, workers int, budget EvalBudget) *Result {
	t.Helper()
	req := chainRequest()
	return analyzeOnce(t, New(tech, lib, Config{Workers: workers, Budget: budget, FaultPlan: inj}), req.Netlist, req.Primary, req.Outputs)
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

// within reports whether a and b agree within relative tolerance rel; with
// rel = 0 only equal values agree.
func within(a, b, rel float64) bool {
	return a == b || math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))
}

// TestLadder injects every engine fault class at rate 1, at Workers 1 and
// 8, into the inverter chain and the staggered-slew 3-bit decoder. Network
// classes are skipped: they fire at the remote-cache tier, which
// remotecache's TestNetworkChaosBitIdentical arms. Every row checks:
//   - the injector fired;
//   - completeness: every net the clean run timed is still timed;
//   - determinism: a same-seed repeat, and a Workers 1 run of an 8-worker
//     row, are bit-equal in arrivals, tiers, Degraded and PanicsRecovered;
//   - a degrading class is conservative and lands on the tier it is built
//     to exercise: NR divergence kills both QWM tiers and lands on spice,
//     a panic in every numerical tier is recovered and lands on rc-bound,
//     an injected budget exhaustion aborts tier 0 and lands on qwm-bisect;
//   - a recoverable class is invisible: nothing degrades, the tiers match
//     clean, and so do the results — bit for bit for a stall, within
//     faultinject.PivotRecoveryTol for a dense-LU-recovered pivot (a
//     different elimination rounds differently), with the critical path and
//     worst output exact.
func TestLadder(t *testing.T) {
	wantTier := map[faultinject.Class]Tier{
		faultinject.NRDivergence:     TierSpice,
		faultinject.Panic:            TierBound,
		faultinject.BudgetExhaustion: TierBisect,
	}
	for _, wl := range []struct {
		name string
		req  Request
	}{{"chain", chainRequest()}, {"decoder", decoderRequest(t)}} {
		run := func(t *testing.T, inj *faultinject.Injector, workers int) *Result {
			return analyzeOnce(t, New(tech, lib, Config{Workers: workers, FaultPlan: inj}), wl.req.Netlist, wl.req.Primary, wl.req.Outputs)
		}
		clean := run(t, nil, 1)
		if !clean.Diagnostics.Healthy() {
			t.Fatalf("%s: clean run not healthy: %s", wl.name, clean.Diagnostics)
		}
		if clean.TierCounts[TierQWM] == 0 {
			t.Fatalf("%s: clean run produced no QWM-tier timings: %v", wl.name, clean.TierCounts)
		}
		for class := faultinject.Class(0); class < faultinject.NumClasses; class++ {
			if class.Network() {
				continue
			}
			for _, workers := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/w%d", wl.name, class, workers), func(t *testing.T) {
					inj := func() *faultinject.Injector { return faultinject.New(7).Enable(class, 1) }
					fired := inj()
					got := run(t, fired, workers)
					if fired.FiredTotal() == 0 {
						t.Error("the fault never fired")
					}
					for net := range clean.Arrivals {
						if _, ok := got.Arrivals[net]; !ok {
							t.Errorf("net %s missing (completeness)", net)
						}
					}
					requireSameTiming(t, "same-seed repeat", got, run(t, inj(), workers))
					if workers != 1 {
						requireSameTiming(t, "workers 1 vs 8", run(t, inj(), 1), got)
					}

					want, degrading := wantTier[class]
					if !degrading {
						requireInvisible(t, class, clean, got)
						return
					}
					if got.Diagnostics.Healthy() {
						t.Fatal("rate-1 injection left the run healthy")
					}
					if got.TierCounts[want] == 0 {
						t.Errorf("no direction landed on the %s tier: %v", want, got.TierCounts)
					}
					if got.Degraded != len(got.EvalTier) {
						t.Errorf("Degraded = %d but EvalTier has %d entries", got.Degraded, len(got.EvalTier))
					}
					switch class {
					case faultinject.NRDivergence:
						if got.TierCounts[TierQWM] != 0 || got.TierCounts[TierBisect] != 0 {
							t.Errorf("QWM tiers survived a rate-1 divergence injection: %v", got.TierCounts)
						}
					case faultinject.Panic:
						if got.PanicsRecovered == 0 {
							t.Error("no panics recovered despite rate-1 injection")
						}
					case faultinject.BudgetExhaustion:
						if got.TierCounts[TierQWM] != 0 {
							t.Errorf("tier 0 answered despite rate-1 budget exhaustion: %v", got.TierCounts)
						}
					}
					requireConservative(t, clean, got, class.String())
				})
			}
		}
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

// requireInvisible asserts a recoverable fault class left no trace: nothing
// degraded, no panic, the clean tiers, and the clean results — within
// faultinject.PivotRecoveryTol for a pivot breakdown, bit for bit otherwise.
func requireInvisible(t *testing.T, class faultinject.Class, clean, got *Result) {
	t.Helper()
	tol := 0.0
	if class == faultinject.PivotBreakdown {
		tol = faultinject.PivotRecoveryTol
	}
	if got.Degraded != 0 || got.PanicsRecovered != 0 {
		t.Errorf("degraded %d, panics %d; recoverable faults must be invisible", got.Degraded, got.PanicsRecovered)
	}
	if got.TierCounts != clean.TierCounts || !reflect.DeepEqual(got.EvalTier, clean.EvalTier) {
		t.Errorf("tiers %v %v, want clean %v %v", got.TierCounts, got.EvalTier, clean.TierCounts, clean.EvalTier)
	}
	if len(got.Arrivals) != len(clean.Arrivals) {
		t.Errorf("%d arrivals, want %d", len(got.Arrivals), len(clean.Arrivals))
	}
	for net, ref := range clean.Arrivals {
		g := got.Arrivals[net]
		if !within(g.Rise, ref.Rise, tol) || !within(g.Fall, ref.Fall, tol) ||
			!within(g.RiseSlew, ref.RiseSlew, tol) || !within(g.FallSlew, ref.FallSlew, tol) {
			t.Errorf("net %s arrival %+v, want clean %+v within %g", net, g, ref, tol)
		}
	}
	if !within(got.WorstArrival, clean.WorstArrival, tol) || got.WorstOutput != clean.WorstOutput {
		t.Errorf("worst %g@%s, want clean %g@%s", got.WorstArrival, got.WorstOutput, clean.WorstArrival, clean.WorstOutput)
	}
	if !reflect.DeepEqual(got.CriticalPath, clean.CriticalPath) {
		t.Errorf("critical path %v, want clean %v", got.CriticalPath, clean.CriticalPath)
	}
}
