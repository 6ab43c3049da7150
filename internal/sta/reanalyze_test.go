package sta

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/faultinject"
	"qwm/internal/mos"
	"qwm/internal/obs"
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
		ref.ReducedNodes != got.ReducedNodes || ref.PanicsRecovered != got.PanicsRecovered ||
		!reflect.DeepEqual(ref.EvalTier, got.EvalTier) {
		t.Fatalf("%s: diagnostics diverged:\nref: %s %v\ngot: %s %v", label, ref.Diagnostics, ref.EvalTier, got.Diagnostics, got.EvalTier)
	}
}

// wideEditFixture builds stages.WideNetlist(4, 6): one input inverter
// fanning out to four drivers, each through a 6-segment RC line into a
// receiver inverter mnr<f>/mpr<f> loaded by cl<f>.
func wideEditFixture(t testing.TB) (*circuit.Netlist, map[string]Arrival, []string) {
	t.Helper()
	nl, ins, outs, err := stages.WideNetlist(tech, 4, 6, 1e-6, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	return nl, map[string]Arrival{ins[0]: {}}, outs
}

// findCap returns the named capacitor or fails the test.
func findCap(t testing.TB, nl *circuit.Netlist, name string) *circuit.Capacitor {
	t.Helper()
	for _, c := range nl.Capacitors {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("capacitor %q not found", name)
	return nil
}

// insertBuffer re-gates the named devices, all gated by one net, through
// two new inverters: net -> eb1 -> eb2 -> devices.
func insertBuffer(t testing.TB, nl *circuit.Netlist, devices ...string) {
	t.Helper()
	net := findDevice(t, nl, devices[0]).Gate
	for i, nets := range [][2]string{{net, "eb1"}, {"eb1", "eb2"}} {
		nl.AddTransistor(&circuit.Transistor{Name: fmt.Sprintf("mneb%d", i), Kind: circuit.KindNMOS,
			Drain: nets[1], Gate: nets[0], Source: "0", Body: "0", W: 1e-6, L: tech.LMin})
		nl.AddTransistor(&circuit.Transistor{Name: fmt.Sprintf("mpeb%d", i), Kind: circuit.KindPMOS,
			Drain: nets[1], Gate: nets[0], Source: "vdd", Body: "vdd", W: 2e-6, L: tech.LMin})
	}
	for _, d := range devices {
		findDevice(t, nl, d).Gate = "eb2"
	}
}

// editStep is one row of an edit sequence: an in-place netlist edit and the
// most directions a warm re-analysis after it may evaluate — both
// directions of every stage the edit touches (its geometry, or the loads
// on its nets) and of every stage downstream of those.
type editStep struct {
	name string
	edit func(t testing.TB, nl *circuit.Netlist)
	max  int
}

// TestIncrementalMatchesScratch drives edit sequences — resize, junction
// geometry (AD/PD/AS/PS), load, buffer insertion, revert — through one
// persistent analyzer per row, for {plain, reduce, rate-1 NR divergence}
// × Workers {1, 8} × {3-bit decoder, WideNetlist(4, 6)}: re-analysis after
// an edit is a plain re-run on a warm analyzer. Every step must:
//   - match a persistent serial analyzer with the same history bit for
//     bit, evaluation count included;
//   - evaluate at least one direction (an edit answered wholly from
//     pre-edit entries means the key omits what it changed) and at most the
//     step's bound;
//   - be followed by a no-op re-run that evaluates nothing, misses nothing
//     and repeats the step's result bit for bit.
//
// The divergence variant forces every evaluation onto the spice tier. The
// reference shares the cache history rather than starting cold: delay-cache
// entries are keyed by 5 ps slew bucket but evaluated at the first-seen
// exact slew, so a warm re-analysis can differ from a cold analyzer in
// low-order bits when an edit moves a slew within its bucket.
func TestIncrementalMatchesScratch(t *testing.T) {
	variants := []struct {
		name string
		cfg  func(workers int) Config
	}{
		{"plain", func(w int) Config { return Config{Workers: w} }},
		{"reduce", func(w int) Config { return Config{Workers: w, Reduction: reduce.Config{Enabled: true}} }},
		{"nr-divergence", func(w int) Config {
			return Config{Workers: w, FaultPlan: faultinject.New(3).Enable(faultinject.NRDivergence, 1)}
		}},
	}
	resize := func(dev string, f float64) func(testing.TB, *circuit.Netlist) {
		return func(t testing.TB, nl *circuit.Netlist) { findDevice(t, nl, dev).W *= f }
	}
	revert := func(dev string, f float64) func(testing.TB, *circuit.Netlist) {
		return func(t testing.TB, nl *circuit.Netlist) { findDevice(t, nl, dev).W /= f }
	}
	junction := func(dev string) func(testing.TB, *circuit.Netlist) {
		return func(t testing.TB, nl *circuit.Netlist) {
			d := findDevice(t, nl, dev)
			d.DrainJunc = mos.Junction{Area: 12e-12, Perim: 14e-6}
			d.SourceJunc = mos.Junction{Area: 3e-12, Perim: 5e-6}
		}
	}
	load := func(c string) func(testing.TB, *circuit.Netlist) {
		return func(t testing.TB, nl *circuit.Netlist) { findCap(t, nl, c).C *= 1.5 }
	}
	buffer := func(devs ...string) func(testing.TB, *circuit.Netlist) {
		return func(t testing.TB, nl *circuit.Netlist) { insertBuffer(t, nl, devs...) }
	}
	workloads := []struct {
		name    string
		fixture func(testing.TB) (*circuit.Netlist, map[string]Arrival, []string)
		steps   []editStep
	}{
		// Stages: 3 address inverters, NAND w<r> per row, driver y<r>.
		{"decoder", decoderFixture, []editStep{
			{"baseline", nil, 38},                 // 19 stages, cold
			{"resize", resize("mnd0", 1.7), 4},    // driver y0, NAND w0 (its load)
			{"junction", junction("mnn0_0"), 4},   // NAND w0, driver y0
			{"load", load("cl0"), 2},              // driver y0
			{"buffer", buffer("mnd1", "mpd1"), 8}, // NAND w1 (its load), eb1, eb2, driver y1
			{"revert", revert("mnd0", 1.7), 4},    // driver y0, NAND w0
		}},
		// Stages: input inverter, driver + RC line r<f>, receiver y<f>.
		{"wide", wideEditFixture, []editStep{
			{"baseline", nil, 18},                 // 9 stages, cold
			{"resize", resize("mnr0", 1.7), 4},    // receiver y0, driver r0 (its load)
			{"junction", junction("mnr1"), 2},     // receiver y1
			{"load", load("cl0"), 2},              // receiver y0
			{"buffer", buffer("mnr3", "mpr3"), 8}, // driver r3 (its load), eb1, eb2, receiver y3
			{"revert", revert("mnr0", 1.7), 4},    // receiver y0, driver r0
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for _, wl := range workloads {
				for _, workers := range []int{1, 8} {
					t.Run(fmt.Sprintf("w%d/%s", workers, wl.name), func(t *testing.T) {
						nl, primary, outs := wl.fixture(t)
						cfg := v.cfg(workers)
						cfg.Metrics = obs.NewRegistry()
						warm := New(tech, lib, cfg)
						serial := New(tech, lib, v.cfg(1))
						for _, st := range wl.steps {
							if st.edit != nil {
								st.edit(t, nl)
							}
							ref := analyzeOnce(t, serial, nl, primary, outs)
							got := analyzeOnce(t, warm, nl, primary, outs)
							requireSameTiming(t, st.name, ref, got)
							if got.StagesEvaluated != ref.StagesEvaluated {
								t.Fatalf("%s: workers %d evaluated %d directions, serial %d",
									st.name, workers, got.StagesEvaluated, ref.StagesEvaluated)
							}
							if got.StagesEvaluated < 1 || got.StagesEvaluated > st.max {
								t.Fatalf("%s: evaluated %d directions, want 1..%d", st.name, got.StagesEvaluated, st.max)
							}

							before := count(cfg.Metrics, mCacheMisses)
							again := analyzeOnce(t, warm, nl, primary, outs)
							if again.StagesEvaluated != 0 {
								t.Fatalf("%s: no-op re-run evaluated %d directions", st.name, again.StagesEvaluated)
							}
							if after := count(cfg.Metrics, mCacheMisses); after != before {
								t.Fatalf("%s: no-op re-run paid %d cache misses", st.name, after-before)
							}
							requireSameTiming(t, st.name+" no-op re-run", got, again)
						}
					})
				}
			}
		})
	}
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
