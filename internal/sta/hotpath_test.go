package sta

import (
	"math"
	"reflect"
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/reduce"
	"qwm/internal/stages"
)

func extractSingleStage(t *testing.T, nl *circuit.Netlist) *circuit.Stage {
	t.Helper()
	sts := circuit.ExtractStages(nl, []string{"out"})
	if len(sts) != 1 {
		t.Fatalf("expected 1 stage, got %d", len(sts))
	}
	return sts[0]
}

// wideFixture analyzes stages.WideNetlist on a fresh Analyzer with the given
// feature configuration and returns the result.
func wideFixture(t *testing.T, fan, segs, workers int, red reduce.Config, memo MemoConfig) *Result {
	t.Helper()
	nl, ins, outs, err := stages.WideNetlist(tech, fan, segs, 1e-6, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	a := New(tech, lib, Config{Workers: workers, Reduction: red, Memo: memo})
	primary := map[string]Arrival{}
	for _, in := range ins {
		primary[in] = Arrival{}
	}
	res, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReductionOffBitIdentical is the features-off guarantee: an Analyzer
// with an explicit zero Reduction/Memo configuration produces exactly the
// result a default Analyzer does — same arrivals bit for bit, same
// evaluation count, same diagnostics. (The signatures of disabled features
// are empty strings, so even the cache key namespace is unchanged.)
func TestReductionOffBitIdentical(t *testing.T) {
	base := wideFixture(t, 4, 12, 1, reduce.Config{}, MemoConfig{})
	explicit := wideFixture(t, 4, 12, 1, reduce.Config{Enabled: false, TolPct: 5}, MemoConfig{Enabled: false, Interp: true})
	if !reflect.DeepEqual(base.Arrivals, explicit.Arrivals) {
		t.Fatalf("disabled features changed arrivals:\n%v\nvs\n%v", base.Arrivals, explicit.Arrivals)
	}
	if base.StagesEvaluated != explicit.StagesEvaluated {
		t.Fatalf("evaluation count changed: %d vs %d", base.StagesEvaluated, explicit.StagesEvaluated)
	}
	if base.ReducedNodes != 0 || explicit.ReducedNodes != 0 || explicit.ClassCount != 0 {
		t.Fatalf("disabled features reported activity: %+v vs %+v", base.Diagnostics, explicit.Diagnostics)
	}
}

// TestReductionBoundedError: with the pre-pass on, long wire runs collapse
// (ReducedNodes > 0) and every arrival stays within a few percent of the
// unreduced answer — the moment-matching tolerance at work.
func TestReductionBoundedError(t *testing.T) {
	off := wideFixture(t, 4, 24, 1, reduce.Config{}, MemoConfig{})
	on := wideFixture(t, 4, 24, 1, reduce.Config{Enabled: true}, MemoConfig{})
	if on.ReducedNodes == 0 {
		t.Fatal("reduction enabled but no nodes removed on a 24-segment wire netlist")
	}
	for net, want := range off.Arrivals {
		got, ok := on.Arrivals[net]
		if !ok {
			t.Fatalf("reduced run lost arrival for %s", net)
		}
		for _, pair := range [][2]float64{{want.Rise, got.Rise}, {want.Fall, got.Fall}} {
			if pair[0] == 0 {
				continue
			}
			if relErr := math.Abs(pair[1]-pair[0]) / pair[0]; relErr > 0.03 {
				t.Errorf("%s: reduced arrival off by %.2f%% (%g vs %g)", net, 100*relErr, pair[1], pair[0])
			}
		}
	}
}

// TestMemoClassSharing: the fan branches are structurally identical, so Memo
// collapses their evaluations — far fewer cache misses, ClassHits > 0 — while
// arrivals stay within the slew-bucket snapping tolerance of the exact run.
func TestMemoClassSharing(t *testing.T) {
	off := wideFixture(t, 8, 12, 1, reduce.Config{}, MemoConfig{})
	on := wideFixture(t, 8, 12, 1, reduce.Config{}, MemoConfig{Enabled: true})
	if on.StagesEvaluated >= off.StagesEvaluated {
		t.Fatalf("memo did not reduce evaluations: %d vs %d", on.StagesEvaluated, off.StagesEvaluated)
	}
	if on.ClassCount == 0 || on.ClassHits == 0 {
		t.Fatalf("memo accounting empty: %+v", on.Diagnostics)
	}
	for net, want := range off.Arrivals {
		got := on.Arrivals[net]
		for _, pair := range [][2]float64{{want.Rise, got.Rise}, {want.Fall, got.Fall}} {
			if pair[0] == 0 {
				continue
			}
			// Bucket-floor snapping perturbs the evaluation slew by < 5 ps;
			// stage delays shift by a few percent at most.
			if relErr := math.Abs(pair[1]-pair[0]) / pair[0]; relErr > 0.10 {
				t.Errorf("%s: memoized arrival off by %.2f%% (%g vs %g)", net, 100*relErr, pair[1], pair[0])
			}
		}
	}
}

// TestMemoInterpTightensSnapping: interpolation evaluates both bucket
// boundaries and lerps at the exact slew, so it should land at least as close
// to the exact answer as plain floor-snapping on the worst output.
func TestMemoInterpTightensSnapping(t *testing.T) {
	exact := wideFixture(t, 4, 12, 1, reduce.Config{}, MemoConfig{})
	snap := wideFixture(t, 4, 12, 1, reduce.Config{}, MemoConfig{Enabled: true})
	interp := wideFixture(t, 4, 12, 1, reduce.Config{}, MemoConfig{Enabled: true, Interp: true})
	errOf := func(r *Result) float64 {
		return math.Abs(r.WorstArrival-exact.WorstArrival) / exact.WorstArrival
	}
	if errOf(interp) > errOf(snap)+1e-9 {
		t.Fatalf("interp error %.4f%% worse than snapping error %.4f%%",
			100*errOf(interp), 100*errOf(snap))
	}
}

// TestFeaturesOnWorkersIdentical is the acceptance determinism gate: with
// reduction, memoization and interpolation all enabled, a serial and an
// 8-worker run produce bit-identical arrivals, critical path, evaluation
// counts and class accounting.
func TestFeaturesOnWorkersIdentical(t *testing.T) {
	red := reduce.Config{Enabled: true, LumpLeaves: true}
	memo := MemoConfig{Enabled: true, Interp: true}
	serial := wideFixture(t, 8, 24, 1, red, memo)
	parallel := wideFixture(t, 8, 24, 8, red, memo)
	if !reflect.DeepEqual(serial.Arrivals, parallel.Arrivals) {
		t.Fatalf("arrivals differ between Workers=1 and Workers=8:\n%v\nvs\n%v",
			serial.Arrivals, parallel.Arrivals)
	}
	if !reflect.DeepEqual(serial.CriticalPath, parallel.CriticalPath) {
		t.Fatalf("critical paths differ: %v vs %v", serial.CriticalPath, parallel.CriticalPath)
	}
	if serial.StagesEvaluated != parallel.StagesEvaluated ||
		serial.ClassCount != parallel.ClassCount ||
		serial.ClassHits != parallel.ClassHits ||
		serial.ReducedNodes != parallel.ReducedNodes {
		t.Fatalf("accounting differs: %+v vs %+v", serial.Diagnostics, parallel.Diagnostics)
	}
}

// TestMemoRespectsLoadDifferences guards the PR 2 aliasing trap at the class
// level: two stages that are structurally identical but drive different
// fanout loads must land in DIFFERENT classes (the load values are part of
// the fingerprint), so memoization can never serve one the other's delay.
func TestMemoRespectsLoadDifferences(t *testing.T) {
	nl := inverterChain(1, 1e-6, 2e-6)
	stageOf := func(loads map[string]float64) string {
		sts := extractSingleStage(t, nl)
		fp, ok := fingerprint(sts, "out", "0", loads)
		if !ok {
			t.Fatal("fingerprint failed on inverter")
		}
		return fp
	}
	light := stageOf(map[string]float64{"out": 5e-15})
	heavy := stageOf(map[string]float64{"out": 50e-15})
	if light == heavy {
		t.Fatal("fingerprints identical across different loads — class memo would alias them")
	}
	// Off-path loads are part of the class too (they feed the spice tier).
	offA := stageOf(map[string]float64{"out": 5e-15, "n_stray": 1e-15})
	if light == offA {
		t.Fatal("fingerprint ignores off-path loads")
	}
}

// TestAllocBudget is the arena regression gate: a warm (all cache hits)
// Analyze of the 3-bit decoder must stay within the allocation budget. The
// pre-arena engine spent 1185 allocs/op here; the pooled scratch, interned
// keys and byte-keyed cache bring it under 400, and the budget below leaves
// headroom only for compiler-version noise — a map or formatting regression
// on the hot path blows it immediately.
func TestAllocBudget(t *testing.T) {
	nl, ins, outs, err := stages.DecoderNetlist(tech, 3, 1e-6, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	a := New(tech, lib, Config{Workers: 1})
	primary := map[string]Arrival{}
	for _, in := range ins {
		primary[in] = Arrival{}
	}
	if _, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs}); err != nil {
		t.Fatal(err)
	}
	const budget = 700 // issue target: >= 40% under the 1185 baseline
	avg := testing.AllocsPerRun(10, func() {
		if _, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs}); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Fatalf("warm Analyze allocates %.0f/op, budget %d", avg, budget)
	}
}
