package qwm

import (
	"math"
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/mos"
	"qwm/internal/stages"
	"qwm/internal/wave"
)

func TestBuildFromNANDStage(t *testing.T) {
	w, err := stages.NAND(tech, 3, 1e-6, 2e-6, 10e-15, 0)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Build(BuildInput{
		Tech: tech, Lib: testLib,
		Stage: w.Stage, Path: w.Path,
		Inputs: w.Inputs, Loads: w.Loads, V0: w.IC,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Pol != mos.NMOS {
		t.Errorf("polarity = %v", ch.Pol)
	}
	if ch.Transistors() != 3 {
		t.Errorf("K = %d, want 3", ch.Transistors())
	}
	// The output node must carry the load plus the PMOS junctions.
	outCap := ch.Caps[len(ch.Caps)-1]
	if outCap.Fixed < 10e-15 {
		t.Errorf("output fixed cap %g misses the explicit load", outCap.Fixed)
	}
	// Junctions sharing device parameters are merged into one entry: the
	// top NMOS and the three PMOS drains give one NMOS and one PMOS entry.
	if len(outCap.Junctions) != 2 {
		t.Fatalf("output has %d junction entries, want 2", len(outCap.Junctions))
	}
	if outCap.Junctions[0].P != &tech.N || outCap.Junctions[1].P != &tech.P {
		t.Errorf("output junction entries are not (NMOS, PMOS)")
	}
	if got, want := outCap.Junctions[1].J.Area, 3*tech.P.DefaultJunction(2e-6).Area; math.Abs(got-want) > 1e-12*want {
		t.Errorf("output PMOS junction area = %g, want %g (three drains)", got, want)
	}
	// An internal node's two NMOS junctions (devices above and below) merge
	// into one entry carrying both areas and perimeters.
	in := ch.Caps[0].Junctions
	if len(in) != 1 {
		t.Fatalf("internal node junction entries = %d, want 1", len(in))
	}
	one := tech.N.DefaultJunction(1e-6)
	if in[0].P != &tech.N || in[0].J.Area != 2*one.Area || in[0].J.Perim != 2*one.Perim {
		t.Errorf("internal node junction = %+v, want NMOS with twice %+v", in[0].J, one)
	}
	res, err := Evaluate(ch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Delay50(0, tech.VDD); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRejectsMissingInput(t *testing.T) {
	w, err := stages.NAND(tech, 2, 1e-6, 2e-6, 10e-15, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Build(BuildInput{
		Tech: tech, Lib: testLib,
		Stage: w.Stage, Path: w.Path,
		Inputs: map[string]wave.Waveform{}, // nothing
	})
	if err == nil {
		t.Fatal("expected missing-input error")
	}
}

func TestBuildRejectsMixedPolarity(t *testing.T) {
	// A path pretending to pull down through a PMOS.
	st := &circuit.Stage{
		Edges: []*circuit.StageEdge{
			{Kind: circuit.KindPMOS, Src: "out", Snk: "0", Gate: "g", W: 1e-6, L: tech.LMin},
		},
	}
	p := &circuit.Path{
		Rail: "0", Output: "out",
		Elems: []circuit.PathElem{{Edge: st.Edges[0], Lower: "0", Upper: "out"}},
	}
	_, err := Build(BuildInput{
		Tech: tech, Lib: testLib, Stage: st, Path: p,
		Inputs: map[string]wave.Waveform{"g": wave.DC(0)},
	})
	if err == nil {
		t.Fatal("expected polarity error")
	}
}

func TestBuildRequiresLibraryUnlessAnalytic(t *testing.T) {
	w, err := stages.NAND(tech, 2, 1e-6, 2e-6, 10e-15, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(BuildInput{Tech: tech, Stage: w.Stage, Path: w.Path, Inputs: w.Inputs}); err == nil {
		t.Fatal("expected missing-library error")
	}
	ch, err := Build(BuildInput{
		Tech: tech, Stage: w.Stage, Path: w.Path,
		Inputs: w.Inputs, Loads: w.Loads, V0: w.IC, Analytic: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(ch, Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildPMOSPullUpPath(t *testing.T) {
	// Two series PMOS from VDD to out (a NOR-style pull-up), switching low.
	n := &circuit.Netlist{}
	sw := wave.Step{At: 0, Low: tech.VDD, High: 0}
	n.AddVSource("vvdd", "vdd", "0", wave.DC(tech.VDD))
	n.AddVSource("va", "a", "0", sw)
	n.AddVSource("vb", "b", "0", wave.DC(0))
	n.AddTransistor(&circuit.Transistor{Name: "mp1", Kind: circuit.KindPMOS, Drain: "y1", Gate: "a", Source: "vdd", Body: "vdd", W: 2e-6, L: tech.LMin})
	n.AddTransistor(&circuit.Transistor{Name: "mp2", Kind: circuit.KindPMOS, Drain: "out", Gate: "b", Source: "y1", Body: "vdd", W: 2e-6, L: tech.LMin})
	n.AddTransistor(&circuit.Transistor{Name: "mn1", Kind: circuit.KindNMOS, Drain: "out", Gate: "a", Source: "0", Body: "0", W: 1e-6, L: tech.LMin})
	n.AddTransistor(&circuit.Transistor{Name: "mn2", Kind: circuit.KindNMOS, Drain: "out", Gate: "b", Source: "0", Body: "0", W: 1e-6, L: tech.LMin})
	n.AddCapacitor("cl", "out", "0", 10e-15)
	sts := circuit.ExtractStages(n, []string{"out"})
	if len(sts) != 1 {
		t.Fatalf("stages = %d", len(sts))
	}
	path, err := circuit.LongestPath(sts[0], "out", "vdd")
	if err != nil {
		t.Fatal(err)
	}
	ch, err := Build(BuildInput{
		Tech: tech, Lib: testLib, Stage: sts[0], Path: path,
		Inputs: map[string]wave.Waveform{"a": sw, "b": wave.DC(0)},
		Loads:  map[string]float64{"out": 10e-15},
		V0:     map[string]float64{"out": 0, "y1": 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Pol != mos.PMOS {
		t.Fatalf("polarity = %v, want PMOS", ch.Pol)
	}
	res, err := Evaluate(ch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, t1 := res.Output.Span()
	if v := res.Output.Eval(t1); v < 0.9*tech.VDD {
		t.Errorf("pull-up output final = %g, want near VDD", v)
	}
}

// The Thomas breakdown test is scale-free, so the paper's own circuits
// never leave the O(K) Thomas + Sherman–Morrison path: no Table I or
// Table II stage records a dense-LU fallback without an injected fault.
func TestPaperTablesStayOnThomasPath(t *testing.T) {
	t1, err := stages.TableI(tech)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := stages.TableII(tech)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range append(t1, t2...) {
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
		if res.Stats.NRIters == 0 || res.Stats.DenseFallbacks != 0 {
			t.Errorf("%s: %d dense-LU fallbacks in %d NR iterations, want 0", w.Name, res.Stats.DenseFallbacks, res.Stats.NRIters)
		}
	}
}
