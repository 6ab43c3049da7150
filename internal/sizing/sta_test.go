package sizing

import (
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/sta"
	"qwm/internal/stages"
)

// newDecoderEval builds an STAEvaluator over the decoder's row-0 driver pair.
func newDecoderEval(t *testing.T, full bool) (*STAEvaluator, []float64) {
	t.Helper()
	tech := mos.CMOSP35()
	nl, ins, outs, err := stages.DecoderNetlist(tech, 3, 1e-6, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	primary := map[string]sta.Arrival{}
	for _, in := range ins {
		primary[in] = sta.Arrival{}
	}
	// Objective: the row-0 arrival. The decoder's rows are symmetric, so the
	// all-rows worst arrival is insensitive to a single row's widths.
	outs = outs[:1]
	var devs []*circuit.Transistor
	for _, name := range []string{"mnd0", "mpd0"} {
		found := false
		for _, tr := range nl.Transistors {
			if tr.Name == name {
				devs, found = append(devs, tr), true
				break
			}
		}
		if !found {
			t.Fatalf("device %q not found", name)
		}
	}
	a := sta.New(tech, devmodel.NewLibrary(tech), sta.Config{Workers: 1})
	init := make([]float64, len(devs))
	for i, d := range devs {
		init[i] = d.W
	}
	return &STAEvaluator{
		Analyzer: a, Netlist: nl, Primary: primary, Outputs: outs,
		Devices: devs, FullReanalysis: full,
	}, init
}

// TestSTAEvaluatorIncrementalMatchesFull: the optimizer must converge to the
// same widths and delay whether the inner loop re-analyzes from scratch or
// incrementally, and the incremental loop must skip most of the netlist.
func TestSTAEvaluatorIncrementalMatchesFull(t *testing.T) {
	run := func(full bool) (*Result, *STAEvaluator) {
		ev, init := newDecoderEval(t, full)
		res, err := Minimize(Problem{
			Eval: ev.Eval, Init: init,
			WMin: 0.6e-6, WMax: 4e-6, Sweeps: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, ev
	}
	fullRes, fullEv := run(true)
	incRes, incEv := run(false)

	if fullRes.Delay != incRes.Delay || fullRes.InitDelay != incRes.InitDelay {
		t.Fatalf("incremental objective diverged: %.17g vs %.17g (init %.17g vs %.17g)",
			incRes.Delay, fullRes.Delay, incRes.InitDelay, fullRes.InitDelay)
	}
	for i := range fullRes.Widths {
		if fullRes.Widths[i] != incRes.Widths[i] {
			t.Fatalf("width %d diverged: %g vs %g", i, incRes.Widths[i], fullRes.Widths[i])
		}
	}
	if fullEv.Analyses != incEv.Analyses {
		t.Fatalf("evaluation counts diverged: %d vs %d", incEv.Analyses, fullEv.Analyses)
	}
	// The full loop re-walks every stage every time; the incremental loop
	// must replay far more stages than it re-evaluates (after the all-dirty
	// first analysis, a two-device edit touches a handful of stages).
	if incEv.Skipped <= incEv.Dirty {
		t.Fatalf("incremental loop skipped %d stages but dirtied %d", incEv.Skipped, incEv.Dirty)
	}
	if incRes.Delay >= incRes.InitDelay {
		t.Fatalf("optimizer made no progress: %g -> %g", incRes.InitDelay, incRes.Delay)
	}
}

// TestSTAEvaluatorWidthMismatch pins the arity check.
func TestSTAEvaluatorWidthMismatch(t *testing.T) {
	ev, _ := newDecoderEval(t, false)
	if _, err := ev.Eval([]float64{1e-6}); err == nil {
		t.Fatal("want error for width/device arity mismatch")
	}
}
