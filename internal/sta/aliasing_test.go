package sta

import (
	"reflect"
	"slices"
	"strconv"
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/netlist"
	"qwm/internal/reduce"
	"qwm/internal/stages"
)

// loadedInverter builds a single inverter in -> out with the given explicit
// output load. Every call uses the same node names and geometry, so two
// netlists differing only in cl are "structurally identical stages with
// different fanout" — the shape that aliased under the load-blind cache key.
func loadedInverter(cl float64) *circuit.Netlist {
	nl := &circuit.Netlist{}
	nl.AddTransistor(&circuit.Transistor{Name: "mn", Kind: circuit.KindNMOS, Drain: "out", Gate: "in", Source: "0", Body: "0", W: 1e-6, L: tech.LMin})
	nl.AddTransistor(&circuit.Transistor{Name: "mp", Kind: circuit.KindPMOS, Drain: "out", Gate: "in", Source: "vdd", Body: "vdd", W: 2e-6, L: tech.LMin})
	nl.AddCapacitor("cl", "out", "0", cl)
	return nl
}

// TestCacheKeyIncludesLoad is the headline regression: a shared analyzer
// sees the identical netlist twice, first lightly and then heavily loaded.
// The pre-fix cache key (stage content | rail | slew bucket, no load
// digest) aliased both to one entry, so the heavy analysis silently
// inherited the light delay. Post-fix the two evaluations get distinct
// entries, and every cached arrival is bit-for-bit identical to an uncached
// analyzer of the row's configuration at Workers = 1 and at Workers = 4.
// Rows: one inverter driving 1 fF then 50 fF, and, with reduction on (its
// keys carry the reduction signature and the loads it rewrites),
// stages.WideNetlist(4, 12) driving 10 fF then 200 fF.
func TestCacheKeyIncludesLoad(t *testing.T) {
	wide := func(cl float64) Request {
		nl, _, outs, err := stages.WideNetlist(tech, 4, 12, 1e-6, cl)
		if err != nil {
			t.Fatal(err)
		}
		return Request{Netlist: nl, Primary: map[string]Arrival{"in": {}}, Outputs: outs}
	}
	inverter := func(cl float64) Request {
		return Request{Netlist: loadedInverter(cl), Primary: map[string]Arrival{"in": {}}, Outputs: []string{"out"}}
	}
	for _, row := range []struct {
		name         string
		cfg          Config
		build        func(cl float64) Request
		light, heavy float64
		slower       float64 // the heavy worst arrival exceeds slower × the light one
	}{
		{"inverter", Config{}, inverter, 1e-15, 50e-15, 2},
		{"reduce-wide", Config{Reduction: reduce.Config{TolPct: 1}}, wide, 10e-15, 200e-15, 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			analyze := func(a *Analyzer, cl float64) *Result {
				req := row.build(cl)
				return analyzeOnce(t, a, req.Netlist, req.Primary, req.Outputs)
			}
			with := func(workers int) *Analyzer {
				cfg := row.cfg
				cfg.Workers = workers
				return New(tech, lib, cfg)
			}
			shared := with(0)
			light := analyze(shared, row.light)
			heavy := analyze(shared, row.heavy)

			// The heavy load must be distinctly slower — with the load-blind
			// key the arrivals came out equal (heavy aliased to light's
			// entries).
			if reflect.DeepEqual(heavy.Arrivals, light.Arrivals) {
				t.Fatalf("identical stages with a heavy load aliased to the light-load cache entries: %+v", heavy.Arrivals)
			}
			if heavy.WorstArrival <= row.slower*light.WorstArrival {
				t.Errorf("heavy-load arrival %g not plausibly slower than light-load arrival %g", heavy.WorstArrival, light.WorstArrival)
			}
			// The second analysis had to actually evaluate, not hit the alias.
			if heavy.StagesEvaluated == 0 {
				t.Errorf("heavy-load analysis evaluated 0 stages: served entirely from the light-load cache")
			}
			if row.cfg.Reduction.TolPct > 0 && heavy.ReducedNodes == 0 {
				t.Errorf("reduction removed no nodes")
			}

			// Ground truth: fresh, uncached serial analyzers. Cached
			// arrivals must match bit-for-bit (including slews and critical
			// path), and so must a fresh parallel analyzer.
			for _, tc := range []struct {
				cl     float64
				cached *Result
			}{{row.light, light}, {row.heavy, heavy}} {
				ref := analyze(with(1), tc.cl)
				if !reflect.DeepEqual(tc.cached.Arrivals, ref.Arrivals) {
					t.Errorf("%g F: cached arrivals %+v != uncached serial %+v", tc.cl, tc.cached.Arrivals, ref.Arrivals)
				}
				if !reflect.DeepEqual(tc.cached.CriticalPath, ref.CriticalPath) {
					t.Errorf("%g F: critical path %v != uncached %v", tc.cl, tc.cached.CriticalPath, ref.CriticalPath)
				}
				if pref := analyze(with(4), tc.cl); !reflect.DeepEqual(pref.Arrivals, ref.Arrivals) {
					t.Errorf("%g F: parallel arrivals differ from serial", tc.cl)
				}
			}
		})
	}
}

// TestSharedIdentityFanoutSiblings covers the same bug class within a single
// netlist: one input drives two geometrically identical inverters whose
// outputs carry 1 fF and 50 fF. Their arrivals must differ and match an
// uncached serial run bit-for-bit at every worker count.
func TestSharedIdentityFanoutSiblings(t *testing.T) {
	build := func() *circuit.Netlist {
		nl := &circuit.Netlist{}
		for i, out := range []string{"o1", "o2"} {
			nl.AddTransistor(&circuit.Transistor{Name: "mn" + out, Kind: circuit.KindNMOS, Drain: out, Gate: "in", Source: "0", Body: "0", W: 1e-6, L: tech.LMin})
			nl.AddTransistor(&circuit.Transistor{Name: "mp" + out, Kind: circuit.KindPMOS, Drain: out, Gate: "in", Source: "vdd", Body: "vdd", W: 2e-6, L: tech.LMin})
			cl := 1e-15
			if i == 1 {
				cl = 50e-15
			}
			nl.AddCapacitor("c"+out, out, "0", cl)
		}
		return nl
	}
	primary := map[string]Arrival{"in": {}}
	outs := []string{"o1", "o2"}

	serial := New(tech, lib, Config{Workers: 1})
	ref, err := serial.AnalyzeContext(nil, Request{Netlist: build(), Primary: primary, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Arrivals["o1"] == ref.Arrivals["o2"] {
		t.Fatalf("sibling inverters with 1 fF and 50 fF loads got identical arrivals %+v", ref.Arrivals["o1"])
	}
	if ref.Arrivals["o2"].Fall <= ref.Arrivals["o1"].Fall {
		t.Errorf("50 fF sibling fall %g not slower than 1 fF sibling %g",
			ref.Arrivals["o2"].Fall, ref.Arrivals["o1"].Fall)
	}
	for _, workers := range []int{2, 8} {
		par := New(tech, lib, Config{Workers: workers})
		got, err := par.AnalyzeContext(nil, Request{Netlist: build(), Primary: primary, Outputs: outs})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Arrivals, ref.Arrivals) {
			t.Errorf("workers=%d: arrivals differ from serial", workers)
		}
	}
}

// TestLoadDigest pins the canonical digest: sorted node order and
// sensitivity to any load change, down to the last bit.
func TestLoadDigest(t *testing.T) {
	if got := loadDigest(nil); got != "" {
		t.Errorf("empty load map digest = %q, want empty", got)
	}
	a := loadDigest(map[string]float64{"b": 2e-15, "a": 1e-15})
	b := loadDigest(map[string]float64{"a": 1e-15, "b": 2e-15})
	if a != b || a == "" {
		t.Errorf("digest not canonical across map order: %q vs %q", a, b)
	}
	if c := loadDigest(map[string]float64{"a": 1e-15, "b": 2.5e-15}); c == a {
		t.Errorf("digest insensitive to a load change: %q", c)
	}
	// A change in the 8th digit splits the digest too.
	d1 := loadDigest(map[string]float64{"a": 1.0000001e-15})
	d2 := loadDigest(map[string]float64{"a": 1.0000002e-15})
	if d1 == d2 {
		t.Errorf("digest insensitive to an 8th-digit load change: %q", d1)
	}
}

// aliasGate is a gate net name that spells, in the text cache key format
// (fields joined by ':', '>', '@', edges by ';'), the tail of one edge and
// the head of another: "nmos:out>0@" + aliasGate + ":1e-06:3.5e-07:0" is the
// text of two parallel pull-down edges gated by g and h.
const aliasGate = "g:1e-06:3.5e-07:0;nmos:out>0@h"

// aliasDecks builds the two decks whose out stages shared one text cache
// key: deck A is a NOR2 (pull-down nmos g ∥ nmos h, pull-up pmos g — pmos h
// in series); deck B has the same pull-up but a single pull-down nmos gated
// by aliasGate. Both drive 10 fF.
func aliasDecks() (a, b *circuit.Netlist) {
	build := func(pullDown ...string) *circuit.Netlist {
		nl := &circuit.Netlist{}
		for i, g := range pullDown {
			nl.AddTransistor(&circuit.Transistor{Name: "mn" + strconv.Itoa(i), Kind: circuit.KindNMOS, Drain: "out", Gate: g, Source: "0", Body: "0", W: 1e-6, L: 3.5e-7})
		}
		nl.AddTransistor(&circuit.Transistor{Name: "mpg", Kind: circuit.KindPMOS, Drain: "m", Gate: "g", Source: "vdd", Body: "vdd", W: 2e-6, L: 3.5e-7})
		nl.AddTransistor(&circuit.Transistor{Name: "mph", Kind: circuit.KindPMOS, Drain: "out", Gate: "h", Source: "m", Body: "vdd", W: 2e-6, L: 3.5e-7})
		nl.AddCapacitor("cl", "out", "0", 10e-15)
		return nl
	}
	return build("g", "h"), build(aliasGate)
}

// openDiskTier opens a persistent disk tier namespace in dir, returning it
// with its close function (which drains the write-behind queue). The
// diskcache package imports sta, so the opener is installed by an external
// test file (disk_hook_test.go) through export_test.go.
var openDiskTier func(dir, signature string) (TierStore, func() error, error)

// TestCacheKeySeparatorInNames: node names may contain the text key's
// separators, so deck B's out stage spelled deck A's text key, and an
// analyzer (or a tier) that had seen B answered A's arrivals from B's
// entries with 0 evaluations. Digest keys length-prefix every name: A must
// evaluate and match a fresh serial analyzer bit for bit, both on a
// memory-warm analyzer and over a disk namespace warmed by B.
func TestCacheKeySeparatorInNames(t *testing.T) {
	deckA, deckB := aliasDecks()
	outs := []string{"out"}
	stageOf := func(nl *circuit.Netlist) *circuit.Stage {
		for _, st := range circuit.ExtractStages(nl, outs) {
			if slices.Contains(st.Outputs, "out") {
				return st
			}
		}
		t.Fatal("no stage drives out")
		return nil
	}
	// The decks really did alias under the text keys.
	stA, stB := stageOf(deckA), stageOf(deckB)
	if stageKey(stA, "out") != stageKey(stB, "out") {
		t.Fatalf("decks no longer alias under the text key:\nA %s\nB %s", stageKey(stA, "out"), stageKey(stB, "out"))
	}
	requireWarmMatchesFresh(t, deckB, deckA, outs)
}

// junctionInverter is one inverter driving 10 fF whose devices both declare
// the drain area ad (no perimeter), parsed from deck text.
func junctionInverter(t *testing.T, ad string) *circuit.Netlist {
	return inverterDeck(t, " AD="+ad, "10f")
}

// inverterDeck parses an inverter whose devices carry the extra card text
// geom and whose output drives the load cap cl.
func inverterDeck(t *testing.T, geom, cl string) *circuit.Netlist {
	t.Helper()
	d, err := netlist.ParseString("* inverter\n" +
		"M1 out in 0 0 NMOS W=1u L=0.35u" + geom + "\n" +
		"M2 out in vdd vdd PMOS W=2u L=0.35u" + geom + "\n" +
		"CL out 0 " + cl + "\n.end\n")
	if err != nil {
		t.Fatal(err)
	}
	return d.Netlist
}

// TestCacheKeyJunctionGeometry: qwm.Build charges a path node with the
// declared junction geometry (AD/PD/AS/PS) of the device terminals on it,
// but the key covered only kind, nodes, gate, W, L and R, so two decks
// differing only in a drain area shared entries: after AD=1p, a warm
// analyzer answered AD=20p from the 1p entries with 0 evaluations (fall
// 28.06 ps against 90.79 ps fresh). The digest now encodes each device's
// junctions, so AD=20p must evaluate and match a fresh serial analyzer bit
// for bit, on a memory-warm analyzer and over a disk namespace warmed with
// AD=1p.
func TestCacheKeyJunctionGeometry(t *testing.T) {
	small, large := junctionInverter(t, "1p"), junctionInverter(t, "20p")
	requireWarmMatchesFresh(t, small, large, []string{"out"})
}

// TestCacheKeyExactLoad: the key held each load cap as 6-digit text, so an
// inverter loaded with 10.0000004 fF was answered, with 0 evaluations, from
// the entries of one loaded with 10 fF (rise 27.12194471 ps against
// 27.12194539 ps fresh). Loads are now keyed by their exact bits.
func TestCacheKeyExactLoad(t *testing.T) {
	requireWarmMatchesFresh(t, inverterDeck(t, "", "10f"), inverterDeck(t, "", "10.0000004f"), []string{"out"})
}

// requireWarmMatchesFresh analyzes deck on an analyzer warmed with warmDeck —
// in memory, and over a disk namespace warmed by another analyzer — and
// requires that deck evaluates at least one direction and matches a fresh
// Workers = 1 analyzer bit for bit: warmDeck's entries must not answer it.
func requireWarmMatchesFresh(t *testing.T, warmDeck, deck *circuit.Netlist, outs []string) {
	t.Helper()
	ref, err := New(tech, lib, Config{Workers: 1}).AnalyzeContext(nil, Request{Netlist: deck, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, got *Result) {
		t.Helper()
		if got.StagesEvaluated == 0 {
			t.Error("deck evaluated 0 stages: answered from the warm deck's entries")
		}
		if !reflect.DeepEqual(got.Arrivals, ref.Arrivals) {
			t.Errorf("warm arrivals %+v, fresh serial analyzer %+v", got.Arrivals, ref.Arrivals)
		}
	}

	t.Run("memory-warm", func(t *testing.T) {
		a := New(tech, lib)
		if _, err := a.AnalyzeContext(nil, Request{Netlist: warmDeck, Outputs: outs}); err != nil {
			t.Fatal(err)
		}
		got, err := a.AnalyzeContext(nil, Request{Netlist: deck, Outputs: outs})
		if err != nil {
			t.Fatal(err)
		}
		check(t, got)
	})

	t.Run("disk-warm", func(t *testing.T) {
		dir, sig := t.TempDir(), (Config{}).Signature()
		analyze := func(nl *circuit.Netlist) *Result {
			store, closeStore, err := openDiskTier(dir, sig)
			if err != nil {
				t.Fatal(err)
			}
			defer closeStore()
			res, err := New(tech, lib, Config{Tiers: []TierStore{store}}).AnalyzeContext(nil, Request{Netlist: nl, Outputs: outs})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		analyze(warmDeck)
		check(t, analyze(deck))
	})
}
