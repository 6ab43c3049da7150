package sta

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/faultinject"
	"qwm/internal/reduce"
	"qwm/internal/stages"
)

// decoderFixture builds the decoder workload and its primary map.
func decoderFixture(t testing.TB) (*circuit.Netlist, map[string]Arrival, []string) {
	t.Helper()
	nl, ins, outs, err := stages.DecoderNetlist(tech, 3, 1e-6, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	primary := map[string]Arrival{}
	for _, in := range ins {
		primary[in] = Arrival{}
	}
	return nl, primary, outs
}

// findDevice returns the named transistor or fails the test.
func findDevice(t testing.TB, nl *circuit.Netlist, name string) *circuit.Transistor {
	t.Helper()
	for _, tr := range nl.Transistors {
		if tr.Name == name {
			return tr
		}
	}
	t.Fatalf("device %q not found", name)
	return nil
}

// analyzeOnce performs one analysis and fails on error.
func analyzeOnce(t testing.TB, a *Analyzer, nl *circuit.Netlist, primary map[string]Arrival, outs []string) *Result {
	t.Helper()
	res, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireSameTiming asserts bitwise equality of everything a result reports
// about the circuit: arrivals, worst output, critical path and diagnostics.
// StagesEvaluated depends on the analyzer's cache history and is compared by
// the callers that need it.
func requireSameTiming(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if !reflect.DeepEqual(ref.Arrivals, got.Arrivals) {
		t.Fatalf("%s: arrivals diverged\nref: %v\ngot: %v", label, ref.Arrivals, got.Arrivals)
	}
	if ref.WorstArrival != got.WorstArrival || ref.WorstOutput != got.WorstOutput {
		t.Fatalf("%s: worst diverged: (%g, %s) vs (%g, %s)",
			label, ref.WorstArrival, ref.WorstOutput, got.WorstArrival, got.WorstOutput)
	}
	if !reflect.DeepEqual(ref.CriticalPath, got.CriticalPath) {
		t.Fatalf("%s: critical path diverged: %v vs %v", label, ref.CriticalPath, got.CriticalPath)
	}
	if ref.TierCounts != got.TierCounts || ref.Degraded != got.Degraded ||
		ref.EvalErrors != got.EvalErrors || ref.SlewFallbacks != got.SlewFallbacks ||
		ref.ReducedNodes != got.ReducedNodes {
		t.Fatalf("%s: diagnostics diverged:\nref: %s\ngot: %s", label, ref.Diagnostics, got.Diagnostics)
	}
}

// TestIncrementalMatchesScratch drives an edit sequence (resize, load change,
// revert) through one persistent analyzer per worker count — re-analysis
// after an edit is a plain re-run on a warm analyzer — and checks every step
// bit-for-bit against a persistent serial analyzer with the same history,
// with reduction off and on.
//
// The reference shares the cache history rather than starting cold:
// delay-cache entries are keyed by 5 ps slew bucket but evaluated at the
// first-seen exact slew, so a warm re-analysis can differ from a cold
// analyzer in low-order bits when an edit moves a slew within its bucket.
func TestIncrementalMatchesScratch(t *testing.T) {
	variants := []struct {
		name string
		red  reduce.Config
	}{
		{"plain", reduce.Config{}},
		{"reduce", reduce.Config{Enabled: true}},
	}
	for _, v := range variants {
		for _, workers := range []int{1, 8} {
			t.Run(v.name, func(t *testing.T) {
				nl, primary, outs := decoderFixture(t)
				warm := New(tech, lib, Config{Workers: workers, Reduction: v.red})
				serial := New(tech, lib, Config{Workers: 1, Reduction: v.red})

				// Every step's netlist is new to the analyzers, so each
				// must evaluate something.
				step := func(label string) {
					ref := analyzeOnce(t, serial, nl, primary, outs)
					got := analyzeOnce(t, warm, nl, primary, outs)
					requireSameTiming(t, label, ref, got)
					if got.StagesEvaluated != ref.StagesEvaluated {
						t.Fatalf("%s: workers %d evaluated %d directions, serial %d",
							label, workers, got.StagesEvaluated, ref.StagesEvaluated)
					}
					if got.StagesEvaluated == 0 {
						t.Fatalf("%s: the edit re-evaluated nothing", label)
					}
				}

				step("baseline")
				dev := findDevice(t, nl, "mnd0")
				dev.W *= 1.7
				step("resize")
				nl.Capacitors[0].C *= 1.5
				step("load")
				dev.W /= 1.7
				step("revert")
			})
		}
	}
}

// TestIncrementalNoEditAllClean: re-running a warm analyzer on an untouched
// netlist must answer everything from the cache — zero evaluations, zero
// misses — with identical results.
func TestIncrementalNoEditAllClean(t *testing.T) {
	nl, primary, outs := decoderFixture(t)
	a := New(tech, lib)
	first := analyzeOnce(t, a, nl, primary, outs)
	before := a.CacheStats()
	second := analyzeOnce(t, a, nl, primary, outs)
	if second.StagesEvaluated != 0 {
		t.Fatalf("no-edit rerun evaluated %d directions", second.StagesEvaluated)
	}
	if after := a.CacheStats(); after.Misses != before.Misses {
		t.Fatalf("no-edit rerun paid %d cache misses", after.Misses-before.Misses)
	}
	requireSameTiming(t, "no-edit", first, second)
}

// TestIncrementalDirtyCone: resizing one row driver of the decoder on a warm
// analyzer must re-evaluate exactly the two directions of each of two stages
// — the driver itself (geometry) and the NAND driving its gate (the resize
// moves the driver's gate capacitance, so the NAND's load map changes). The
// driver's outputs are primary outputs, so nothing lies further downstream;
// every other stage's key is unchanged and hits.
func TestIncrementalDirtyCone(t *testing.T) {
	nl, primary, outs := decoderFixture(t)
	a := New(tech, lib)
	first := analyzeOnce(t, a, nl, primary, outs)

	findDevice(t, nl, "mnd0").W *= 1.3
	res := analyzeOnce(t, a, nl, primary, outs)
	if res.StagesEvaluated != 4 {
		t.Fatalf("row-driver resize evaluated %d directions, want 4 (driver + fanin NAND, both directions)", res.StagesEvaluated)
	}
	if res.StagesEvaluated*5 > first.StagesEvaluated {
		t.Fatalf("re-analysis %d evaluations not ≥5× under the cold %d", res.StagesEvaluated, first.StagesEvaluated)
	}
	cold := analyzeOnce(t, New(tech, lib, Config{Workers: 1}), nl, primary, outs)
	requireSameTiming(t, "resize", cold, res)
}

// singleInverter builds one inverter in → out with a load cap.
func singleInverter(in, out string) *circuit.Netlist {
	nl := &circuit.Netlist{}
	nl.AddTransistor(&circuit.Transistor{
		Name: "mn_" + out, Kind: circuit.KindNMOS,
		Drain: out, Gate: in, Source: "0", Body: "0", W: 1e-6, L: tech.LMin,
	})
	nl.AddTransistor(&circuit.Transistor{
		Name: "mp_" + out, Kind: circuit.KindPMOS,
		Drain: out, Gate: in, Source: "vdd", Body: "vdd", W: 2e-6, L: tech.LMin,
	})
	nl.AddCapacitor("cl_"+out, out, "0", 15e-15)
	return nl
}

// spiceSiblingPair builds two renamed-isomorphic inverters in one netlist,
// with declaration (and name sort) order controlled by swap. Before the
// spice tier renamed its sub-netlist canonically, a TierSpice timing
// depended on the node names that built its MNA matrix, so the siblings'
// arrivals differed in their low bits.
func spiceSiblingPair(swap bool) (*circuit.Netlist, map[string]Arrival, []string) {
	nl := &circuit.Netlist{}
	add := func(in, out string) {
		nl.AddTransistor(&circuit.Transistor{
			Name: "mn_" + out, Kind: circuit.KindNMOS,
			Drain: out, Gate: in, Source: "0", Body: "0", W: 1.3e-6, L: tech.LMin,
		})
		nl.AddTransistor(&circuit.Transistor{
			Name: "mp_" + out, Kind: circuit.KindPMOS,
			Drain: out, Gate: in, Source: "vdd", Body: "vdd", W: 2.6e-6, L: tech.LMin,
		})
		nl.AddCapacitor("cl_"+out, out, "0", 12e-15)
	}
	if swap {
		add("zz_in", "zz_out")
		add("aa_in", "aa_out")
	} else {
		add("aa_in", "aa_out")
		add("zz_in", "zz_out")
	}
	return nl, map[string]Arrival{"aa_in": {}, "zz_in": {}}, []string{"aa_out", "zz_out"}
}

// renameNets returns a copy of nl with every non-rail net renamed, in an
// order that reverses the nets' sort order, and the rename map.
func renameNets(nl *circuit.Netlist) (*circuit.Netlist, map[string]string) {
	ren := map[string]string{circuit.GroundNode: circuit.GroundNode, circuit.SupplyNode: circuit.SupplyNode}
	var nets []string
	note := func(ns ...string) {
		for _, n := range ns {
			if _, ok := ren[n]; !ok {
				ren[n] = ""
				nets = append(nets, n)
			}
		}
	}
	for _, t := range nl.Transistors {
		note(t.Drain, t.Gate, t.Source, t.Body)
	}
	for _, c := range nl.Capacitors {
		note(c.A, c.B)
	}
	slices.Sort(nets)
	for i, n := range nets {
		ren[n] = fmt.Sprintf("q%03d", len(nets)-i)
	}
	out := &circuit.Netlist{}
	for _, t := range nl.Transistors {
		c := *t
		c.Drain, c.Gate, c.Source, c.Body = ren[t.Drain], ren[t.Gate], ren[t.Source], ren[t.Body]
		out.AddTransistor(&c)
	}
	for _, c := range nl.Capacitors {
		out.AddCapacitor(c.Name, ren[c.A], ren[c.B], c.C)
	}
	return out, ren
}

// TestSpiceCrossMemberBitIdentity pins name invariance below the QWM tiers:
// a timing depends on the circuit, never on what its nets are called. With
// every evaluation forced to TierSpice (rate-1 NR divergence kills both QWM
// tiers), the renamed-isomorphic sibling pair must time bit-identically
// within one run and across both declaration orders. The 3-bit decoder with
// every non-rail net renamed must reproduce every arrival bit for bit, both
// plain and forced to the spice tier.
func TestSpiceCrossMemberBitIdentity(t *testing.T) {
	spiceCfg := func() Config {
		return Config{Workers: 1, FaultPlan: faultinject.New(3).Enable(faultinject.NRDivergence, 1)}
	}
	analyze := func(cfg Config, nl *circuit.Netlist, primary map[string]Arrival, outs []string) *Result {
		res, err := New(tech, lib, cfg).AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs})
		if err != nil {
			t.Fatal(err)
		}
		if cfg.FaultPlan != nil && res.TierCounts[TierSpice] == 0 {
			t.Fatalf("divergence injection did not reach the spice tier: %v", res.TierCounts)
		}
		return res
	}
	analyzeOrder := func(swap bool) *Result {
		nl, primary, outs := spiceSiblingPair(swap)
		return analyze(spiceCfg(), nl, primary, outs)
	}
	ab := analyzeOrder(false)
	ba := analyzeOrder(true)
	for _, res := range []*Result{ab, ba} {
		d1 := res.Arrivals["aa_out"]
		d2 := res.Arrivals["zz_out"]
		if d1 != d2 {
			t.Fatalf("renamed siblings diverged within one run: %+v vs %+v", d1, d2)
		}
	}
	if ab.Arrivals["aa_out"] != ba.Arrivals["aa_out"] {
		t.Fatalf("spice-tier timing depends on declaration order:\nAB: %+v\nBA: %+v",
			ab.Arrivals["aa_out"], ba.Arrivals["aa_out"])
	}

	nl, primary, outs := decoderFixture(t)
	rnl, ren := renameNets(nl)
	rprimary := map[string]Arrival{}
	for n, ar := range primary {
		rprimary[ren[n]] = ar
	}
	routs := make([]string, len(outs))
	for i, o := range outs {
		routs[i] = ren[o]
	}
	for _, mode := range []struct {
		name string
		cfg  func() Config
	}{{"plain", func() Config { return Config{Workers: 1} }}, {"spice", spiceCfg}} {
		ref := analyze(mode.cfg(), nl, primary, outs)
		got := analyze(mode.cfg(), rnl, rprimary, routs)
		if len(got.Arrivals) != len(ref.Arrivals) {
			t.Fatalf("%s: renamed decoder has %d arrivals, want %d", mode.name, len(got.Arrivals), len(ref.Arrivals))
		}
		for n, want := range ref.Arrivals {
			if g := got.Arrivals[ren[n]]; g != want {
				t.Errorf("%s: arrival of %s (renamed %s) moved: %+v vs %+v", mode.name, n, ren[n], g, want)
			}
		}
	}
}

// TestEvalSpicePathCanonical drives evalSpicePath directly on two
// renamed-isomorphic stages whose node names sort in opposite orders: the
// canonical sub-netlist rename must make the float results bitwise equal.
func TestEvalSpicePathCanonical(t *testing.T) {
	eval := func(in, out string) dirResult {
		nl := singleInverter(in, out)
		sts := circuit.ExtractStages(nl, []string{out})
		if len(sts) != 1 {
			t.Fatalf("want 1 stage, got %d", len(sts))
		}
		st := sts[0]
		path, err := circuit.LongestPath(st, out, circuit.GroundNode)
		if err != nil {
			t.Fatal(err)
		}
		a := New(tech, lib)
		r, err := a.evalSpicePath(st, path, out, circuit.GroundNode, map[string]float64{out: 15e-15}, 20e-12)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	r1 := eval("aa_in", "ab_out")
	r2 := eval("zz_in", "zy_out")
	if r1 != r2 {
		t.Fatalf("evalSpicePath depends on node names:\n%+v\nvs\n%+v", r1, r2)
	}
}

// BenchmarkReanalyzeAfterEdit times one re-analysis of the 3-bit decoder
// after a one-device edit (mnd0 toggled between two widths). /cold builds a
// fresh analyzer per edit, so it pays every evaluation; /warm re-runs one
// analyzer, whose delay cache already holds both geometries, so an edit
// costs the gather and lookup walk over every stage and no evaluation.
func BenchmarkReanalyzeAfterEdit(b *testing.B) {
	nl, primary, outs := decoderFixture(b)
	dev := findDevice(b, nl, "mnd0")
	toggle := func(i int) {
		dev.W = 1e-6
		if i%2 == 1 {
			dev.W = 1.5e-6
		}
	}
	run := func(b *testing.B, fresh bool) {
		a := New(tech, lib, Config{Workers: 1})
		for i := 0; i < 2; i++ {
			toggle(i)
			analyzeOnce(b, a, nl, primary, outs)
		}
		evals := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			toggle(i)
			if fresh {
				a = New(tech, lib, Config{Workers: 1})
			}
			evals += analyzeOnce(b, a, nl, primary, outs).StagesEvaluated
		}
		b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
	}
	b.Run("cold", func(b *testing.B) { run(b, true) })
	b.Run("warm", func(b *testing.B) { run(b, false) })
}
