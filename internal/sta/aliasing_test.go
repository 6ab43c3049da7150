package sta

import (
	"reflect"
	"testing"

	"qwm/internal/circuit"
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
// sees the identical inverter twice, first driving 1 fF and then 50 fF. The
// pre-fix cache key (stage content | rail | slew bucket, no load digest)
// aliased both to one entry, so the 50 fF analysis silently inherited the
// 1 fF delay. Post-fix the two evaluations get distinct entries, and every
// cached arrival is bit-for-bit identical to an uncached Workers=1 run and
// to a parallel run.
func TestCacheKeyIncludesLoad(t *testing.T) {
	primary := map[string]Arrival{"in": {}}
	outs := []string{"out"}

	shared := New(tech, lib)
	light, err := shared.AnalyzeContext(nil, Request{Netlist: loadedInverter(1e-15), Primary: primary, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := shared.AnalyzeContext(nil, Request{Netlist: loadedInverter(50e-15), Primary: primary, Outputs: outs})
	if err != nil {
		t.Fatal(err)
	}

	// 50 fF must be distinctly slower than 1 fF — with the load-blind key
	// the arrivals came out equal (heavy aliased to light's entry).
	if heavy.Arrivals["out"] == light.Arrivals["out"] {
		t.Fatalf("identical stage with 50 fF load aliased to the 1 fF cache entry: %+v", heavy.Arrivals["out"])
	}
	if heavy.WorstArrival <= 2*light.WorstArrival {
		t.Errorf("50 fF arrival %g not plausibly slower than 1 fF arrival %g", heavy.WorstArrival, light.WorstArrival)
	}
	// The second analysis had to actually evaluate, not hit the alias.
	if heavy.StagesEvaluated == 0 {
		t.Errorf("heavy-load analysis evaluated 0 stages: served entirely from the light-load cache")
	}

	// Ground truth: fresh, uncached serial analyzers. Cached arrivals must
	// match bit-for-bit (including slews and critical path).
	for _, tc := range []struct {
		name   string
		cl     float64
		cached *Result
	}{
		{"1fF", 1e-15, light},
		{"50fF", 50e-15, heavy},
	} {
		fresh := New(tech, lib, Config{Workers: 1})
		ref, err := fresh.AnalyzeContext(nil, Request{Netlist: loadedInverter(tc.cl), Primary: primary, Outputs: outs})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tc.cached.Arrivals, ref.Arrivals) {
			t.Errorf("%s: cached arrivals %+v != uncached serial %+v", tc.name, tc.cached.Arrivals, ref.Arrivals)
		}
		if !reflect.DeepEqual(tc.cached.CriticalPath, ref.CriticalPath) {
			t.Errorf("%s: critical path %v != uncached %v", tc.name, tc.cached.CriticalPath, ref.CriticalPath)
		}

		par := New(tech, lib, Config{Workers: 4})
		pref, err := par.AnalyzeContext(nil, Request{Netlist: loadedInverter(tc.cl), Primary: primary, Outputs: outs})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pref.Arrivals, ref.Arrivals) {
			t.Errorf("%s: parallel arrivals differ from serial", tc.name)
		}
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

// TestLoadDigest pins the canonical digest: sorted node order, fixed
// precision, and sensitivity to load changes above that precision.
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
	// Sub-precision jitter (below 6 significant digits) shares an entry.
	d1 := loadDigest(map[string]float64{"a": 1.0000001e-15})
	d2 := loadDigest(map[string]float64{"a": 1.0000002e-15})
	if d1 != d2 {
		t.Errorf("sub-precision jitter split the digest: %q vs %q", d1, d2)
	}
}
