package verify

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"qwm/internal/mos"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestRunSmall is the short-budget go test entry for the stage sweep: a
// 10-case sweep must pass every gate the full cmd/verify run enforces —
// median QWM-vs-SPICE accuracy >= 95 %, zero engine errors — and be
// reproducible.
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

// Run refuses a negative case count and a tolerance that is negative or not
// finite; it used to rewrite them to the defaults and report those.
func TestRunRefusesBadConfig(t *testing.T) {
	for _, cfg := range []Config{{N: -3}, {TolPct: -1}, {TolPct: math.NaN()}, {TolPct: math.Inf(1)}} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run(N %d, TolPct %g) succeeded, want an error", cfg.N, cfg.TolPct)
		}
	}
}
