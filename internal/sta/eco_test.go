package sta

import (
	"reflect"
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/faultinject"
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

// ecoRunOnce performs one incremental analysis and fails on error.
func ecoRunOnce(t testing.TB, a *Analyzer, nl *circuit.Netlist, primary map[string]Arrival, outs []string, eps float64) *Result {
	t.Helper()
	res, err := a.AnalyzeContext(nil, Request{
		Netlist: nl, Primary: primary, Outputs: outs,
		Incremental: true, Epsilon: eps,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireSameTiming asserts the fields the incremental ≡ from-scratch
// guarantee covers: arrivals (bitwise), worst output, critical path, and the
// replayable diagnostics. ClassCount/ClassHits are intentionally excluded —
// an incremental run only resolves classes for dirty stages.
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
// revert) through a persistent incremental Analyzer and checks every step
// bit-for-bit against the from-scratch schedule — across worker counts and
// the memo/interp/reduce feature matrix.
//
// The reference is a PERSISTENT non-incremental Analyzer running the same
// edit sequence, not a fresh one per step: raw (non-memo) delay-cache entries
// are keyed by 5 ps slew bucket but evaluated at the first-seen exact slew,
// so any warm re-analysis — incremental or not — can legitimately differ from
// a cold analyzer in low-order bits when an edit moves a slew within its
// bucket. The differential therefore isolates exactly what ECO changes: the
// Incremental flag may only change scheduling, never results. Memo-mode
// entries are pure functions of their key (bucket-floor snap / boundary
// interp), so for memo variants the steps are additionally checked against a
// cold from-scratch analyzer.
func TestIncrementalMatchesScratch(t *testing.T) {
	variants := []struct {
		name string
		red  reduce.Config
		memo MemoConfig
	}{
		{"plain", reduce.Config{}, MemoConfig{}},
		{"memo", reduce.Config{}, MemoConfig{Enabled: true}},
		{"interp", reduce.Config{}, MemoConfig{Enabled: true, Interp: true}},
		{"reduce", reduce.Config{Enabled: true}, MemoConfig{}},
	}
	for _, v := range variants {
		for _, workers := range []int{1, 8} {
			t.Run(v.name, func(t *testing.T) {
				nl, primary, outs := decoderFixture(t)
				inc := New(tech, lib, Config{Workers: workers, Reduction: v.red, Memo: v.memo})
				scratch := New(tech, lib, Config{Workers: 1, Reduction: v.red, Memo: v.memo})

				step := func(label string) {
					ref, err := scratch.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs})
					if err != nil {
						t.Fatal(err)
					}
					got := ecoRunOnce(t, inc, nl, primary, outs, 0)
					requireSameTiming(t, label, ref, got)
					if v.memo.Enabled {
						cold := New(tech, lib, Config{Workers: 1, Reduction: v.red, Memo: v.memo})
						cref, err := cold.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs})
						if err != nil {
							t.Fatal(err)
						}
						requireSameTiming(t, label+"/cold", cref, got)
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

// TestIncrementalNoEditAllClean: a repeat incremental call with an untouched
// netlist must replay everything — zero dirty stages, zero cache misses, and
// identical results.
func TestIncrementalNoEditAllClean(t *testing.T) {
	nl, primary, outs := decoderFixture(t)
	a := New(tech, lib)
	first := ecoRunOnce(t, a, nl, primary, outs, 0)
	total := first.ECO.DirtyStages + first.ECO.SkippedStages
	if first.ECO.DirtyStages != total || first.ECO.SkippedStages != 0 {
		t.Fatalf("first incremental run must be all-dirty: %+v", first.ECO)
	}
	second := ecoRunOnce(t, a, nl, primary, outs, 0)
	if second.ECO.DirtyStages != 0 || second.ECO.SkippedStages != total {
		t.Fatalf("no-edit rerun not fully clean: %+v", second.ECO)
	}
	if second.StagesEvaluated != 0 {
		t.Fatalf("no-edit rerun paid %d cache misses", second.StagesEvaluated)
	}
	requireSameTiming(t, "no-edit", first, second)
}

// TestIncrementalDirtyCone: resizing one row driver of the decoder must
// re-evaluate exactly two of the 19 stages — the driver itself (geometry)
// and the NAND driving its gate (the resize moves the driver's gate
// capacitance, so the NAND's fanout-load digest shifts). Everything else
// replays. This is the ≥ 5× stage-eval reduction the acceptance criteria
// name, in its exact form.
func TestIncrementalDirtyCone(t *testing.T) {
	nl, primary, outs := decoderFixture(t)
	a := New(tech, lib)
	first := ecoRunOnce(t, a, nl, primary, outs, 0)
	total := first.ECO.DirtyStages

	findDevice(t, nl, "mnd0").W *= 1.3
	res := ecoRunOnce(t, a, nl, primary, outs, 0)
	if res.ECO.DirtyStages != 2 {
		t.Fatalf("row-driver resize dirtied %d stages, want 2 (driver + fanin NAND) (%+v)", res.ECO.DirtyStages, res.ECO)
	}
	if res.ECO.SkippedStages != total-2 {
		t.Fatalf("skipped %d stages, want %d", res.ECO.SkippedStages, total-2)
	}
	if res.ECO.DirtyStages*5 > total {
		t.Fatalf("dirty cone %d not ≥5× under total %d", res.ECO.DirtyStages, total)
	}
}

// TestIncrementalEpsilonEarlyStop: a sub-epsilon geometry perturbation on an
// address inverter (a stage with a deep fanout cone) re-evaluates only that
// stage — the arrival moves within epsilon, the early-stop fires, and the
// cone below it stays clean. With epsilon 0 the same edit floods the cone.
func TestIncrementalEpsilonEarlyStop(t *testing.T) {
	nl, primary, outs := decoderFixture(t)
	dev := findDevice(t, nl, "mni0")

	exact := New(tech, lib)
	ecoRunOnce(t, exact, nl, primary, outs, 0)
	dev.W *= 1.0000001
	flood := ecoRunOnce(t, exact, nl, primary, outs, 0)
	if flood.ECO.DirtyStages <= 1 {
		t.Fatalf("epsilon-0 run did not propagate the edit: %+v", flood.ECO)
	}

	dev.W /= 1.0000001
	loose := New(tech, lib)
	ecoRunOnce(t, loose, nl, primary, outs, 0)
	dev.W *= 1.0000001
	res := ecoRunOnce(t, loose, nl, primary, outs, 100e-12)
	if res.ECO.DirtyStages != 1 {
		t.Fatalf("epsilon run dirtied %d stages, want 1 (%+v)", res.ECO.DirtyStages, res.ECO)
	}
	if res.ECO.EarlyStops == 0 {
		t.Fatal("epsilon run recorded no early stops")
	}
}

// TestIncrementalFPInvalidation: with Memo on, editing a stage must drop its
// stale fpTable resolutions during the incremental diff (counted on
// sta/class/fp_evictions) — the raw-key → class-key memo would otherwise
// keep one dead entry per edited stage forever.
func TestIncrementalFPInvalidation(t *testing.T) {
	nl, primary, outs := decoderFixture(t)
	reg := obs.NewRegistry()
	a := New(tech, lib, Config{Memo: MemoConfig{Enabled: true}, Metrics: reg})
	ecoRunOnce(t, a, nl, primary, outs, 0)

	evictions := func() int64 {
		return reg.Snapshot().Counters["sta/class/fp_evictions"]
	}
	before := evictions()
	findDevice(t, nl, "mnd0").W *= 1.4
	ecoRunOnce(t, a, nl, primary, outs, 0)
	if after := evictions(); after <= before {
		t.Fatalf("edit evicted no fpTable entries (before %d, after %d)", before, after)
	}
}

// TestFPTableCap: an insert that would exceed the cap flushes the table (the
// flush size is reported for the eviction metric), and the capped table
// keeps serving lookups afterwards.
func TestFPTableCap(t *testing.T) {
	var tab fpTable
	if ev := tab.store("a", "ca", 2); ev != 0 {
		t.Fatalf("first insert evicted %d", ev)
	}
	if ev := tab.store("b", "cb", 2); ev != 0 {
		t.Fatalf("second insert evicted %d", ev)
	}
	// Overwriting an existing key never flushes.
	if ev := tab.store("a", "ca2", 2); ev != 0 {
		t.Fatalf("overwrite evicted %d", ev)
	}
	if ev := tab.store("c", "cc", 2); ev != 2 {
		t.Fatalf("cap-exceeding insert evicted %d, want 2", ev)
	}
	if got, ok := tab.lookup("c"); !ok || got != "cc" {
		t.Fatalf("post-flush lookup: %q, %v", got, ok)
	}
	if _, ok := tab.lookup("a"); ok {
		t.Fatal("flushed entry survived")
	}
	// Cap resolution: 0 → default, negative → unbounded.
	if c := (MemoConfig{}).fpCap(); c != defaultFPCap {
		t.Fatalf("default cap %d", c)
	}
	if c := (MemoConfig{FPCap: -1}).fpCap(); c != 0 {
		t.Fatalf("negative cap %d", c)
	}
	if c := (MemoConfig{FPCap: 7}).fpCap(); c != 7 {
		t.Fatalf("explicit cap %d", c)
	}
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

// TestInterpBoundarySharesSnapNamespace pins the satellite-3 fix: interp
// mode's boundary evaluations share snap mode's "|b" bucket-floor keys, so a
// slew sitting exactly on a bucket boundary costs exactly the snap-mode eval
// count and returns bit-identical arrivals, while an off-boundary slew pays
// the two boundary evals interpolation needs.
func TestInterpBoundarySharesSnapNamespace(t *testing.T) {
	run := func(memo MemoConfig, slew float64) *Result {
		a := New(tech, lib, Config{Memo: memo})
		nl := singleInverter("in", "out")
		res, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{
			"in": {RiseSlew: slew, FallSlew: slew},
		}, Outputs: []string{"out"}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	boundary := 2 * slewPitch // exactly on a bucket floor
	snap := run(MemoConfig{Enabled: true}, boundary)
	interp := run(MemoConfig{Enabled: true, Interp: true}, boundary)
	if interp.StagesEvaluated != snap.StagesEvaluated {
		t.Fatalf("boundary slew: interp paid %d evals, snap %d — ceil eval not skipped or namespace split",
			interp.StagesEvaluated, snap.StagesEvaluated)
	}
	if !reflect.DeepEqual(snap.Arrivals, interp.Arrivals) {
		t.Fatalf("boundary slew: interp diverged from snap:\n%v\nvs\n%v", snap.Arrivals, interp.Arrivals)
	}

	off := run(MemoConfig{Enabled: true, Interp: true}, boundary+slewPitch/3)
	if off.StagesEvaluated != 2*snap.StagesEvaluated {
		t.Fatalf("off-boundary slew: interp paid %d evals, want %d (both boundaries per direction)",
			off.StagesEvaluated, 2*snap.StagesEvaluated)
	}
}

// spiceSiblingPair builds two renamed-isomorphic inverters in one netlist,
// with declaration (and name sort) order controlled by swap — the shape that
// exposed the PR 6 residual: under class memoization both members share one
// TierSpice cache entry, and pre-canonicalization its float value depended
// on WHICH member's node names built the MNA matrix.
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

// TestSpiceCrossMemberBitIdentity is the satellite-1 pin: force every
// evaluation to TierSpice (rate-1 NR divergence kills both QWM tiers) with
// class memoization on, and run the sibling pair in both declaration orders.
// The shared class entry must be bitwise independent of which member
// computed it: both members see one value, and both orders produce it.
func TestSpiceCrossMemberBitIdentity(t *testing.T) {
	analyzeOrder := func(swap bool) *Result {
		nl, primary, outs := spiceSiblingPair(swap)
		a := New(tech, lib, Config{
			Workers:   1,
			Memo:      MemoConfig{Enabled: true},
			FaultPlan: faultinject.New(3).Enable(faultinject.NRDivergence, 1),
		})
		res, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs})
		if err != nil {
			t.Fatal(err)
		}
		if res.TierCounts[TierSpice] == 0 {
			t.Fatalf("divergence injection did not reach the spice tier: %v", res.TierCounts)
		}
		return res
	}
	ab := analyzeOrder(false)
	ba := analyzeOrder(true)
	// Within one run the siblings share the class entry, so their relative
	// delays must match bitwise.
	for _, res := range []*Result{ab, ba} {
		d1 := res.Arrivals["aa_out"]
		d2 := res.Arrivals["zz_out"]
		if d1 != d2 {
			t.Fatalf("class siblings diverged within one run: %+v vs %+v", d1, d2)
		}
	}
	// Across runs, the entry's value must not depend on which member (name
	// set) computed it.
	if ab.Arrivals["aa_out"] != ba.Arrivals["aa_out"] {
		t.Fatalf("spice-tier class entry depends on computing member:\nAB: %+v\nBA: %+v",
			ab.Arrivals["aa_out"], ba.Arrivals["aa_out"])
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

// BenchmarkAnalyzeIncremental compares the single-edit re-analysis cost:
// /full re-analyzes the decoder from scratch after each one-device toggle,
// /eco runs the same toggle through the incremental path. The stage-evals/op
// metric is the acceptance number (≥ 5× fewer for /eco).
func BenchmarkAnalyzeIncremental(b *testing.B) {
	nl, ins, outs, err := stages.DecoderNetlist(tech, 3, 1e-6, 10e-15)
	if err != nil {
		b.Fatal(err)
	}
	primary := map[string]Arrival{}
	for _, in := range ins {
		primary[in] = Arrival{}
	}
	var dev *circuit.Transistor
	for _, tr := range nl.Transistors {
		if tr.Name == "mnd0" {
			dev = tr
		}
	}
	toggle := func(i int) {
		dev.W = 1e-6
		if i%2 == 1 {
			dev.W = 1.5e-6
		}
	}

	b.Run("full", func(b *testing.B) {
		// A from-scratch Analyze walks (gathers, keys, resolves) every stage
		// of the netlist, edit or no edit.
		nStages := len(circuit.ExtractStages(nl, outs))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			toggle(i)
			a := New(tech, lib, Config{Workers: 1})
			if _, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(nStages), "stageevals/op")
	})

	b.Run("eco", func(b *testing.B) {
		a := New(tech, lib, Config{Workers: 1})
		// Warm both toggle variants so the steady state is a pure dirty-cone
		// walk (the delay cache already holds both geometries).
		for i := 0; i < 2; i++ {
			toggle(i)
			if _, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs, Incremental: true}); err != nil {
				b.Fatal(err)
			}
		}
		dirty := 0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			toggle(i)
			res, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: outs, Incremental: true})
			if err != nil {
				b.Fatal(err)
			}
			dirty += res.ECO.DirtyStages
		}
		b.ReportMetric(float64(dirty)/float64(b.N), "stageevals/op")
	})
}
