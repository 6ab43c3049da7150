package verify

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestDumpWorstBundle runs a tiny sweep, dumps the worst case, and checks
// the bundle is complete, valid JSON, and matches the report's worst case.
func TestDumpWorstBundle(t *testing.T) {
	if testing.Short() {
		t.Skip("forensic dump runs a SPICE-differential sweep")
	}
	rep, err := Run(Config{Seed: 11, N: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	b, err := DumpWorst(rep, dir)
	if err != nil {
		t.Fatal(err)
	}

	idx := WorstStageIndex(rep)
	if b.Index != idx || b.Case.Name != rep.Stage[idx].Name || b.Seed != rep.Seed {
		t.Fatalf("bundle header %+v does not match report worst case %d (%s)", b, idx, rep.Stage[idx].Name)
	}

	want := []string{"manifest.json", "case.json", "waveforms.json", "trace.json"}
	for _, name := range want {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("%s: invalid JSON: %v", name, err)
		}
	}

	// waveforms.json must carry a non-trivial region trail and per-node
	// piecewise-quadratic waveforms.
	raw, _ := os.ReadFile(filepath.Join(dir, "waveforms.json"))
	var wf struct {
		Label  string `json:"label"`
		Events []struct {
			Kind string  `json:"kind"`
			Tau  float64 `json:"tau"`
		} `json:"events"`
		Folded []struct {
			Segs []map[string]float64 `json:"Segs"`
		} `json:"folded"`
		Stats struct {
			Regions int `json:"Regions"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(raw, &wf); err != nil {
		t.Fatal(err)
	}
	if wf.Label != b.Case.Name {
		t.Fatalf("waveform label %q, want %q", wf.Label, b.Case.Name)
	}
	if len(wf.Events) == 0 || len(wf.Events) != wf.Stats.Regions {
		t.Fatalf("captured %d events for %d regions", len(wf.Events), wf.Stats.Regions)
	}
	if len(wf.Folded) == 0 || len(wf.Folded[len(wf.Folded)-1].Segs) == 0 {
		t.Fatal("output waveform has no segments")
	}

	// trace.json must be a Chrome trace: object form with one X event per
	// captured region plus metadata events.
	raw, _ = os.ReadFile(filepath.Join(dir, "trace.json"))
	var tr struct {
		TraceEvents []struct {
			Ph  string   `json:"ph"`
			Dur *float64 `json:"dur"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	var x int
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "X":
			x++
			if ev.Dur == nil || *ev.Dur <= 0 {
				t.Fatal("X event without positive dur")
			}
		case "M":
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if x != wf.Stats.Regions {
		t.Fatalf("trace has %d region spans, want %d", x, wf.Stats.Regions)
	}
	if tr.Metadata["case"] != b.Case.Name {
		t.Fatalf("trace metadata case = %v", tr.Metadata["case"])
	}
}

func TestWorstStageIndex(t *testing.T) {
	rep := &Report{Stage: []StageDiff{
		{Name: "a", DelayErrPct: 1.2},
		{Name: "b", DelayErrPct: 7.5},
		{Name: "c", DelayErrPct: 0.3},
	}}
	if got := WorstStageIndex(rep); got != 1 {
		t.Fatalf("worst = %d, want 1", got)
	}
	rep.Stage[2].Err = "qwm: diverged"
	if got := WorstStageIndex(rep); got != 2 {
		t.Fatalf("worst with engine error = %d, want 2", got)
	}
	if got := WorstStageIndex(&Report{}); got != -1 {
		t.Fatalf("empty report worst = %d, want -1", got)
	}
}
