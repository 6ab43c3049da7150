package qwm

import (
	"math"
	"testing"

	"qwm/internal/stages"
	"qwm/internal/wave"
)

// paperPins are the Table I and Table II step-input results of the engine
// before the junction table, the seeded region solve and the segment slab:
// 50 % delay and 10–90 % slew of the folded output (s) and the region count.
var paperPins = []struct {
	name        string
	delay, slew float64
	regions     int
}{
	{"inv", 5.0612759562e-11, 9.2532550380e-11, 21},
	{"nand2", 1.0199496714e-10, 1.7970331704e-10, 36},
	{"nand3", 1.7116243444e-10, 2.9896334759e-10, 28},
	{"nand4", 2.5897379839e-10, 4.4845546669e-10, 30},
	{"5/ckt1", 1.4420633674e-10, 1.9778916715e-10, 34},
	{"5/ckt2", 1.3554916275e-10, 1.8049364882e-10, 38},
	{"5/ckt3", 1.7492007835e-10, 2.5088311814e-10, 34},
	{"6/ckt1", 2.1897989397e-10, 3.1683494615e-10, 27},
	{"6/ckt2", 2.1673801111e-10, 2.6505536965e-10, 43},
	{"6/ckt3", 1.2848667453e-10, 1.1241894000e-10, 33},
	{"7/ckt1", 2.0794109211e-10, 2.0926626992e-10, 38},
	{"7/ckt2", 1.9890954556e-10, 2.1250505028e-10, 34},
	{"7/ckt3", 2.6400093116e-10, 3.1407087862e-10, 35},
	{"8/ckt1", 3.1784564374e-10, 3.6344370331e-10, 38},
	{"8/ckt2", 3.1771150053e-10, 3.4263733738e-10, 34},
	{"8/ckt3", 2.6417556319e-10, 2.5805355792e-10, 40},
	{"9/ckt1", 5.2184280430e-10, 6.4340624633e-10, 47},
	{"9/ckt2", 3.1623177946e-10, 2.9314482181e-10, 59},
	{"9/ckt3", 3.1696914804e-10, 3.4843194498e-10, 39},
	{"10/ckt1", 3.8464425913e-10, 4.3263145207e-10, 41},
	{"10/ckt2", 3.7659780794e-10, 3.4582035468e-10, 44},
	{"10/ckt3", 3.6751356623e-10, 3.7423235897e-10, 44},
}

// TestPaperTablesMatchPins is the differential check on the paper's own
// circuits: the characterized junction table, the probe-seeded region solve
// and the allocation-free waveforms move results only in the low bits —
// delays within 1e-6 relative, slews within 1e-4 — and leave every region
// count unchanged.
func TestPaperTablesMatchPins(t *testing.T) {
	t1, err := stages.TableI(tech)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := stages.TableII(tech)
	if err != nil {
		t.Fatal(err)
	}
	ws := append(t1, t2...)
	worstD, worstS := 0.0, 0.0
	if len(ws) != len(paperPins) {
		t.Fatalf("%d circuits, %d pins", len(ws), len(paperPins))
	}
	for i, w := range ws {
		pin := paperPins[i]
		if w.Name != pin.name {
			t.Fatalf("circuit %d is %q, pinned %q", i, w.Name, pin.name)
		}
		ch, err := Build(BuildInput{
			Tech: tech, Lib: testLib,
			Stage: w.Stage, Path: w.Path,
			Inputs: w.Inputs, Loads: w.Loads, V0: w.IC,
		})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		res, err := Evaluate(ch, Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		d, err := res.Delay50(w.SwitchAt, tech.VDD)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		s, err := wave.Slew(res.Folded[len(res.Folded)-1], tech.VDD, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		rd, rs := math.Abs(d-pin.delay)/pin.delay, math.Abs(s-pin.slew)/pin.slew
		worstD, worstS = math.Max(worstD, rd), math.Max(worstS, rs)
		if rd > 1e-6 {
			t.Errorf("%s: delay %.10e, pinned %.10e (%.2g relative, limit 1e-6)", w.Name, d, pin.delay, rd)
		}
		if rs > 1e-4 {
			t.Errorf("%s: slew %.10e, pinned %.10e (%.2g relative, limit 1e-4)", w.Name, s, pin.slew, rs)
		}
		if res.Stats.Regions != pin.regions {
			t.Errorf("%s: %d regions, pinned %d", w.Name, res.Stats.Regions, pin.regions)
		}
	}
	t.Logf("worst deviation from the pins: delay %.2g, slew %.2g relative", worstD, worstS)
}
