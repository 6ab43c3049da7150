package sta

import (
	"math"
	"strings"
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/wave"
)

// truncatedFall builds a falling PWQ from vdd down to floor over span
// seconds — a stand-in for a QWM result whose deep tail was truncated
// (Result.TailTruncated) before reaching the level `floor`.
func truncatedFall(t *testing.T, vdd, floor, span float64) *wave.PWQ {
	t.Helper()
	p := &wave.PWQ{}
	if err := p.Append(wave.QuadSeg{T0: 0, T1: span, V0: vdd, S: -(vdd - floor) / span, A: 0}); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFallbackSlew pins the conservative slew substitute used when the
// 10–90 % measurement fails: the old code silently propagated 0 (an ideal
// step), making downstream stages report optimistic delays.
func TestFallbackSlew(t *testing.T) {
	vdd := tech.VDD

	// Tail truncated between 30 % and 10 %: the 70→30 % chord is available
	// and is scaled by 0.8/0.4 = 2.
	p := truncatedFall(t, vdd, 0.2*vdd, 1e-9)
	t70, ok1 := p.Crossing(0.7*vdd, false)
	t30, ok2 := p.Crossing(0.3*vdd, false)
	if !ok1 || !ok2 {
		t.Fatal("test waveform must cross 70% and 30%")
	}
	got := fallbackSlew(p, vdd, 0, 100e-12)
	want := 2 * (t30 - t70)
	if math.Abs(got-want) > 1e-18 {
		t.Errorf("fallbackSlew = %g, want scaled 70-30 chord %g", got, want)
	}
	if got <= 0 {
		t.Fatalf("fallback slew %g not positive", got)
	}

	// Tail truncated above 30 %: only the coarse bound remains — the larger
	// of the input slew and twice the delay.
	q := truncatedFall(t, vdd, 0.5*vdd, 1e-9)
	if got := fallbackSlew(q, vdd, 0, 80e-12); got != 160e-12 {
		t.Errorf("fallbackSlew without 30%% crossing = %g, want 2×delay = 160 ps", got)
	}
	if got := fallbackSlew(q, vdd, 500e-12, 80e-12); got != 500e-12 {
		t.Errorf("fallbackSlew with slow input = %g, want the 500 ps input slew", got)
	}

	// Degenerate: no crossings, zero delay, zero input slew — still positive.
	if got := fallbackSlew(q, vdd, 0, 0); got <= 0 {
		t.Errorf("degenerate fallback slew %g must stay positive", got)
	}
}

// TestFallbackSlewNonMonotonic: a glitching waveform can cross 30 % before
// 70 % (it starts mid-swing, dips, then recovers). The chord would come out
// negative; the guard must reject it and fall back to the coarse bound.
func TestFallbackSlewNonMonotonic(t *testing.T) {
	vdd := tech.VDD
	p := &wave.PWQ{}
	segs := []wave.QuadSeg{
		// Starts at 50 %, dips to 25 % (first 30 % crossing here) ...
		{T0: 0, T1: 1e-9, V0: 0.5 * vdd, S: -0.25 * vdd / 1e-9},
		// ... recovers to 90 % ...
		{T0: 1e-9, T1: 2e-9, V0: 0.25 * vdd, S: 0.65 * vdd / 1e-9},
		// ... then falls to 60 % (first falling 70 % crossing, late).
		{T0: 2e-9, T1: 3e-9, V0: 0.9 * vdd, S: -0.3 * vdd / 1e-9},
	}
	for _, s := range segs {
		if err := p.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	// Precondition of the scenario: both crossings exist and are out of
	// order (the 30 % crossing precedes the 70 % one).
	t70, ok1 := p.Crossing(0.7*vdd, false)
	t30, ok2 := p.Crossing(0.3*vdd, false)
	if !ok1 || !ok2 || t30 >= t70 {
		t.Fatalf("waveform does not exercise the out-of-order case: t70=%g(%v) t30=%g(%v)", t70, ok1, t30, ok2)
	}
	got := fallbackSlew(p, vdd, 150e-12, 60e-12)
	if got != 150e-12 {
		t.Errorf("non-monotonic fallback = %g, want the 150 ps input-slew bound (never a negative chord)", got)
	}
	if got2 := fallbackSlew(p, vdd, 0, 60e-12); got2 != 120e-12 {
		t.Errorf("non-monotonic fallback without input slew = %g, want 2×delay = 120 ps", got2)
	}
}

// TestFallbackSlewDegenerateVDD: with vdd ≈ 0 every threshold collapses to
// the same level — whatever the crossings report, the estimate must stay
// positive (downstream code divides by and compares against it).
func TestFallbackSlewDegenerateVDD(t *testing.T) {
	p := truncatedFall(t, 1e-30, 0, 1e-9)
	for _, vdd := range []float64{0, 1e-30} {
		if got := fallbackSlew(p, vdd, 0, 0); got <= 0 {
			t.Errorf("vdd=%g: fallback slew %g must stay positive", vdd, got)
		}
		if got := fallbackSlew(p, vdd, 0, 40e-12); got <= 0 {
			t.Errorf("vdd=%g with delay: fallback slew %g must stay positive", vdd, got)
		}
	}
}

// TestDiagnosticsHealthyWithTiers pins the health predicate and the String
// rendering over the ladder fields: any direction below TierQWM, or any
// recovered panic, must flip Healthy and show up in the summary line.
func TestDiagnosticsHealthyWithTiers(t *testing.T) {
	var clean Diagnostics
	clean.TierCounts[TierQWM] = 8
	if !clean.Healthy() {
		t.Error("all-QWM diagnostics must be healthy")
	}
	if got := clean.String(); got != "0 eval errors, 0 slew fallbacks" {
		t.Errorf("clean String() = %q (pinned format changed)", got)
	}

	var d Diagnostics
	d.TierCounts[TierQWM] = 6
	d.TierCounts[TierSpice] = 1
	d.TierCounts[TierBound] = 1
	d.Degraded = 2
	d.EvalTier = map[string]string{"out~rise": "spice", "n1~fall": "rc-bound"}
	if d.Healthy() {
		t.Error("degraded diagnostics reported healthy")
	}
	if s := d.String(); !strings.Contains(s, "2 degraded (spice:1 rc-bound:1)") {
		t.Errorf("String() = %q, want the tier inventory", s)
	}

	var p Diagnostics
	p.PanicsRecovered = 1
	if p.Healthy() {
		t.Error("recovered panic reported healthy")
	}
	if s := p.String(); !strings.Contains(s, "1 panic recovered") {
		t.Errorf("String() = %q, want the panic count", s)
	}

	if (Diagnostics{SlewFallbacks: 1}).Healthy() {
		t.Error("slew fallback reported healthy")
	}
}

// TestRecordEvalIssues pins the per-Analyze error/fallback accounting that
// replaces the old silent swallow of evalDirection failures.
func TestRecordEvalIssues(t *testing.T) {
	r := &Result{}
	r.recordEvalIssues("x", dirTiming{errMsg: "no path"}, dirTiming{ok: true})
	r.recordEvalIssues("y", dirTiming{ok: true, slewFellBack: true}, dirTiming{errMsg: "diverged"})
	// Same key again: count increments, first message is kept.
	r.recordEvalIssues("x", dirTiming{errMsg: "later message"}, dirTiming{ok: true})

	if r.EvalErrors != 3 {
		t.Errorf("EvalErrors = %d, want 3", r.EvalErrors)
	}
	if r.SlewFallbacks != 1 {
		t.Errorf("SlewFallbacks = %d, want 1", r.SlewFallbacks)
	}
	if got := r.EvalErrorDetail["x~fall"]; got != "no path" {
		t.Errorf("EvalErrorDetail[x~fall] = %q, want the first message", got)
	}
	if got := r.EvalErrorDetail["y~rise"]; got != "diverged" {
		t.Errorf("EvalErrorDetail[y~rise] = %q", got)
	}
	if len(r.EvalErrorDetail) != 2 {
		t.Errorf("EvalErrorDetail has %d entries, want 2: %v", len(r.EvalErrorDetail), r.EvalErrorDetail)
	}
}

// TestEvalErrorsSurfaceOnEveryAnalyze checks that a failed direction is
// reported on the Result — and that a *cached* failure is re-reported by
// later Analyze calls (the entry is consulted from the cache, so the
// degradation must stay visible, not vanish after the run that paid the
// miss). A pull-down-only stage gives the rise direction a permanent "no
// path to vdd" failure while the fall direction stays healthy.
func TestEvalErrorsSurfaceOnEveryAnalyze(t *testing.T) {
	nl := &circuit.Netlist{}
	nl.AddTransistor(&circuit.Transistor{Name: "mn", Kind: circuit.KindNMOS, Drain: "out", Gate: "in0", Source: "0", Body: "0", W: 1e-6, L: tech.LMin})
	nl.AddCapacitor("cl", "out", "0", 5e-15)

	a, reg := metered(Config{})
	for run := 0; run < 2; run++ {
		res, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{"in0": {}}, Outputs: []string{"out"}})
		if err != nil {
			t.Fatal(err)
		}
		if res.EvalErrors != 1 {
			t.Fatalf("run %d: EvalErrors = %d, want 1 (rise direction has no pull-up)", run, res.EvalErrors)
		}
		if msg := res.EvalErrorDetail["out~rise"]; msg == "" {
			t.Errorf("run %d: no error detail for out~rise: %v", run, res.EvalErrorDetail)
		}
		if res.Arrivals["out"].Fall <= 0 {
			t.Errorf("run %d: healthy fall direction lost: %+v", run, res.Arrivals["out"])
		}
	}
	// The second run consulted the failure from the cache, not a re-miss.
	if n := count(reg, mCacheMisses); n != 2 {
		t.Errorf("misses = %d, want 2 (one per direction, cached thereafter)", n)
	}

	// A healthy inverter reports zero eval errors.
	healthy, err := New(tech, lib).AnalyzeContext(nil, Request{Netlist: inverterChain(1, 1e-6, 2e-6), Primary: map[string]Arrival{"in0": {}}, Outputs: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	if healthy.EvalErrors != 0 {
		t.Errorf("healthy inverter reported %d eval errors: %v", healthy.EvalErrors, healthy.EvalErrorDetail)
	}
}
