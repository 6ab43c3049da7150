package verify

import (
	"encoding/json"
	"testing"

	"qwm/internal/faultinject"
)

// TestRunChaosSmall is the in-process smoke of the chaos sweep: one
// generated case re-run under every fault class must pass all three
// invariants (completeness, determinism, conservatism), cover the full
// taxonomy, and actually fire on every cell at rate 1.
func TestRunChaosSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep runs dozens of analyzes; skipped in -short")
	}
	rep, err := RunChaos(ChaosConfig{Seed: 1, N: 1, Rate: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The engine sweep covers every non-network class; network classes have
	// no fire site without a remote tier and are gated by remotecache's
	// TestNetworkChaosBitIdentical.
	want := 0
	for c := faultinject.Class(0); c < faultinject.NumClasses; c++ {
		if !c.Network() {
			want++
		}
	}
	if len(rep.Cells) != want {
		t.Fatalf("got %d cells, want one per engine fault class (%d)", len(rep.Cells), want)
	}
	seen := map[string]bool{}
	for _, cell := range rep.Cells {
		seen[cell.Class] = true
		if !cell.Pass {
			t.Errorf("cell %s/%s failed: %v", cell.Case, cell.Class, cell.Problems)
		}
		if cell.Fired == 0 {
			t.Errorf("cell %s/%s: injector never fired at rate 1", cell.Case, cell.Class)
		}
	}
	for _, name := range faultinject.Classes() {
		if c, err := faultinject.ParseClass(name); err == nil && c.Network() {
			continue
		}
		if !seen[name] {
			t.Errorf("fault class %s missing from the sweep", name)
		}
	}
	if !rep.Pass || rep.Failures != 0 {
		t.Errorf("report: pass=%v failures=%d", rep.Pass, rep.Failures)
	}

	// The report must round-trip as JSON (it is the -chaos CLI's output).
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back ChaosReport
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("report JSON does not round-trip: %v", err)
	}
	if back.Seed != rep.Seed || len(back.Cells) != len(rep.Cells) {
		t.Errorf("round-tripped report differs: seed %d/%d, cells %d/%d",
			back.Seed, rep.Seed, len(back.Cells), len(rep.Cells))
	}
}

// TestRunChaosReportDeterministic: two sweeps at the same seed must render
// byte-identical reports — the property that makes a chaos failure
// reproducible from nothing but the seed in the JSON.
func TestRunChaosReportDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep runs dozens of analyzes; skipped in -short")
	}
	cfg := ChaosConfig{Seed: 42, N: 1, Rate: 1, Workers: 2}
	r1, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := r1.JSON()
	b2, _ := r2.JSON()
	if string(b1) != string(b2) {
		t.Error("same-seed chaos reports are not byte-identical")
	}
}
