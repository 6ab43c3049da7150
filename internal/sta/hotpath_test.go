package sta

import (
	"math"
	"reflect"
	"testing"

	"qwm/internal/race"
	"qwm/internal/reduce"
	"qwm/internal/stages"
)

// wideFixture analyzes stages.WideNetlist on a fresh Analyzer with the given
// feature configuration and returns the result.
func wideFixture(t *testing.T, fan, segs, workers int, red reduce.Config) *Result {
	t.Helper()
	nl, ins, outs, err := stages.WideNetlist(tech, fan, segs, 1e-6, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	a := New(tech, lib, Config{Workers: workers, Reduction: red})
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
// with an explicitly disabled Reduction configuration produces exactly the
// result a default Analyzer does — same arrivals bit for bit, same
// evaluation count, same diagnostics. (A disabled reduction's signature is
// the empty string, so even the cache key namespace is unchanged.)
func TestReductionOffBitIdentical(t *testing.T) {
	base := wideFixture(t, 4, 12, 1, reduce.Config{})
	explicit := wideFixture(t, 4, 12, 1, reduce.Config{TolPct: -5})
	if !reflect.DeepEqual(base.Arrivals, explicit.Arrivals) {
		t.Fatalf("disabled features changed arrivals:\n%v\nvs\n%v", base.Arrivals, explicit.Arrivals)
	}
	if base.StagesEvaluated != explicit.StagesEvaluated {
		t.Fatalf("evaluation count changed: %d vs %d", base.StagesEvaluated, explicit.StagesEvaluated)
	}
	if base.ReducedNodes != 0 || explicit.ReducedNodes != 0 {
		t.Fatalf("disabled features reported activity: %+v vs %+v", base.Diagnostics, explicit.Diagnostics)
	}
}

// TestReductionBoundedError: with the pre-pass on, long wire runs collapse
// (ReducedNodes > 0) and every arrival stays within a few percent of the
// unreduced answer — the moment-matching tolerance at work.
func TestReductionBoundedError(t *testing.T) {
	off := wideFixture(t, 4, 24, 1, reduce.Config{})
	on := wideFixture(t, 4, 24, 1, reduce.Config{TolPct: 1})
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

// TestFeaturesOnWorkersIdentical is the acceptance determinism gate: with
// reduction enabled, a serial and an 8-worker run produce bit-identical
// arrivals, critical path, evaluation counts and reduction accounting.
func TestFeaturesOnWorkersIdentical(t *testing.T) {
	red := reduce.Config{TolPct: 1}
	serial := wideFixture(t, 8, 24, 1, red)
	parallel := wideFixture(t, 8, 24, 8, red)
	if !reflect.DeepEqual(serial.Arrivals, parallel.Arrivals) {
		t.Fatalf("arrivals differ between Workers=1 and Workers=8:\n%v\nvs\n%v",
			serial.Arrivals, parallel.Arrivals)
	}
	if !reflect.DeepEqual(serial.CriticalPath, parallel.CriticalPath) {
		t.Fatalf("critical paths differ: %v vs %v", serial.CriticalPath, parallel.CriticalPath)
	}
	if serial.StagesEvaluated != parallel.StagesEvaluated ||
		serial.ReducedNodes != parallel.ReducedNodes {
		t.Fatalf("accounting differs: %+v vs %+v", serial.Diagnostics, parallel.Diagnostics)
	}
}

// TestAllocBudget is the arena regression gate: a warm (all cache hits)
// Analyze of the 3-bit decoder must stay within the allocation budget. The
// pre-arena engine spent 1185 allocs/op here and the arena alone 272; with
// the front end (node table, stage slabs) in the arena too it spends 9. The
// budget keeps the headroom ratio the 700 budget had over 272 — a map or
// formatting regression on the hot path blows it immediately.
func TestAllocBudget(t *testing.T) {
	if n := warmAnalyzeAllocs(t, 3, 10e-15); n > 23 {
		t.Fatalf("warm Analyze allocates %.0f/op, budget 23", n)
	}
}

// TestWarmDecoder4AllocBudget is the same gate on the 4-bit decoder, the
// service-fleet deck: 475 allocs/op before the front end moved into the
// arena, 9 after.
func TestWarmDecoder4AllocBudget(t *testing.T) {
	if n := warmAnalyzeAllocs(t, 4, 20e-15); n > 23 {
		t.Fatalf("warm Analyze allocates %.0f/op, budget 23", n)
	}
}

// warmAnalyzeAllocs counts the allocations of a warm Analyze of a decoder:
// the mean of ten runs. Under the race detector sync.Pool drops a quarter of
// its puts, so a run may pay for a fresh arena; there the count is the least
// of ten single runs, the one with the arena pool warm.
func warmAnalyzeAllocs(t *testing.T, bits int, cl float64) float64 {
	t.Helper()
	nl, ins, outs, err := stages.DecoderNetlist(tech, bits, 1e-6, cl)
	if err != nil {
		t.Fatal(err)
	}
	a := New(tech, lib, Config{Workers: 1})
	primary := map[string]Arrival{}
	for _, in := range ins {
		primary[in] = Arrival{}
	}
	req := Request{Netlist: nl, Primary: primary, Outputs: outs}
	if _, err := a.AnalyzeContext(nil, req); err != nil {
		t.Fatal(err)
	}
	measure := func(runs int) float64 {
		return testing.AllocsPerRun(runs, func() {
			if _, err := a.AnalyzeContext(nil, req); err != nil {
				t.Fatal(err)
			}
		})
	}
	if !race.Enabled {
		return measure(10)
	}
	least := math.Inf(1)
	for i := 0; i < 10; i++ {
		least = math.Min(least, measure(1))
	}
	return least
}

// TestColdAnalyzeAllocBudget is the cold-path gate: a fresh analyzer's
// Analyze of the 3-bit decoder (38 evaluations, Workers = 1) must stay
// within 1050 allocations. With an arena pool per analyzer, a worst-path
// search that enumerated every path over string-keyed maps and a chain
// build that formatted a label per element, it made 1910; with one arena
// pool per process, one DFS over edge indices and slab-built chains it
// makes about 1000. The count is the least of several runs, the one with
// the arena, path-search and solver pools warmest.
//
// Under the race detector sync.Pool drops a quarter of its puts, and a cold
// Analyze makes about 150 of them, so no run sees the pools warm: the least
// of five runs is about 1400 there, where the old engine made about 2350.
// The race build holds the looser budget of 1800.
func TestColdAnalyzeAllocBudget(t *testing.T) {
	nl, primary, outs := decoderFixture(t)
	req := Request{Netlist: nl, Primary: primary, Outputs: outs}
	run := func() {
		res, err := New(tech, lib, Config{Workers: 1}).AnalyzeContext(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.StagesEvaluated == 0 {
			t.Fatal("a fresh analyzer evaluated nothing")
		}
	}
	run() // characterizes the library's tables for the decoder's lengths
	least := math.Inf(1)
	for i := 0; i < 5; i++ {
		least = math.Min(least, testing.AllocsPerRun(1, run))
	}
	budget := 1050.0
	if race.Enabled {
		budget = 1800
	}
	if least > budget {
		t.Fatalf("cold Analyze allocates %.0f/op, budget %.0f", least, budget)
	}
}
