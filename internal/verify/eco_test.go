package verify

import "testing"

// TestRunECOSmoke runs a reduced-budget edit-sequence sweep: every workload ×
// variant sequence, one edit of each kind, must pass the warm serial ≡
// parallel and evaluation-bound gates. The full-budget sweep
// runs via `make eco`.
func TestRunECOSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("eco sweep in -short mode")
	}
	rep, err := RunECO(ECOConfig{Seed: 1, Edits: 4, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Sequences {
		if !s.Pass {
			t.Errorf("%s/%s: %v", s.Workload, s.Variant, s.Problems)
		}
	}
	if !rep.Pass {
		t.Fatalf("eco sweep failed: %d sequences", rep.Failures)
	}
}
