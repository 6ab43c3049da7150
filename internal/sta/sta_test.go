package sta

import (
	"fmt"
	"math"
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/devmodel"
	"qwm/internal/mos"
)

var (
	tech = mos.CMOSP35()
	lib  = devmodel.NewLibrary(tech)
)

// inverterChain builds n cascaded inverters in0 -> n1 -> ... -> out.
func inverterChain(n int, wn, wp float64) *circuit.Netlist {
	nl := &circuit.Netlist{}
	prev := "in0"
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("n%d", i+1)
		if i == n-1 {
			out = "out"
		}
		nl.AddTransistor(&circuit.Transistor{
			Name: fmt.Sprintf("mn%d", i), Kind: circuit.KindNMOS,
			Drain: out, Gate: prev, Source: "0", Body: "0", W: wn, L: tech.LMin,
		})
		nl.AddTransistor(&circuit.Transistor{
			Name: fmt.Sprintf("mp%d", i), Kind: circuit.KindPMOS,
			Drain: out, Gate: prev, Source: "vdd", Body: "vdd", W: wp, L: tech.LMin,
		})
		prev = out
	}
	nl.AddCapacitor("cl", "out", "0", 20e-15)
	return nl
}

func TestAnalyzeInverterChain(t *testing.T) {
	a := New(tech, lib)
	nl := inverterChain(4, 1e-6, 2e-6)
	res, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{"in0": {}}, Outputs: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	ar := res.Arrivals["out"]
	if ar.Rise <= 0 || ar.Fall <= 0 {
		t.Fatalf("output arrivals not positive: %+v", ar)
	}
	// Four stages of tens of ps each: total in the 100 ps .. 1.5 ns band.
	if res.WorstArrival < 50e-12 || res.WorstArrival > 1.5e-9 {
		t.Errorf("worst arrival %g s implausible", res.WorstArrival)
	}
	// Arrivals must grow monotonically along the chain.
	prevWorst := 0.0
	for _, net := range []string{"n1", "n2", "n3", "out"} {
		w := math.Max(res.Arrivals[net].Rise, res.Arrivals[net].Fall)
		if w <= prevWorst {
			t.Errorf("arrival at %s (%g) not after predecessor (%g)", net, w, prevWorst)
		}
		prevWorst = w
	}
	// Critical path runs from out back toward the input.
	if len(res.CriticalPath) < 4 || res.CriticalPath[0] != "out" {
		t.Errorf("critical path = %v", res.CriticalPath)
	}
}

func TestAnalyzePrimaryArrivalShifts(t *testing.T) {
	a := New(tech, lib)
	nl := inverterChain(2, 1e-6, 2e-6)
	base, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{"in0": {}}, Outputs: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{"in0": {Rise: 100e-12, Fall: 100e-12}}, Outputs: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	d := shifted.WorstArrival - base.WorstArrival
	if math.Abs(d-100e-12) > 1e-15 {
		t.Errorf("input shift should shift the output arrival by exactly 100 ps, got %g", d)
	}
	// Second run reused every cached stage delay.
	if shifted.StagesEvaluated != 0 {
		t.Errorf("re-analysis evaluated %d stages, want 0 (cache)", shifted.StagesEvaluated)
	}
}

func TestIncrementalReanalysis(t *testing.T) {
	a := New(tech, lib)
	nl := inverterChain(5, 1e-6, 2e-6)
	first, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{"in0": {}}, Outputs: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	// Five stages × two directions, every direction a distinct cache key.
	if first.StagesEvaluated != 10 {
		t.Fatalf("first analysis evaluated %d stage directions, want 10", first.StagesEvaluated)
	}
	// Widen one middle inverter: the edited stage recomputes (its content
	// key changed), and so does the stage driving the widened gate (its
	// fanout-load digest changed — before the load entered the cache key
	// that stage silently reused its stale, lighter-load delay). Downstream
	// stages re-evaluate only if their input-slew bucket shifted — never the
	// whole chain.
	nl.Transistors[4].W *= 2 // mn2
	second, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{"in0": {}}, Outputs: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	if second.StagesEvaluated < 4 || second.StagesEvaluated > 8 {
		t.Errorf("incremental analysis evaluated %d stage directions, want 4–8", second.StagesEvaluated)
	}
	// The incremental result must agree with a cold, uncached analysis of
	// the edited netlist to within the 5 ps slew-bucket quantization. (The
	// old load-blind cache asserted the arrival *decreased* — an artifact of
	// reusing the stale delay of the widened gate's driver; in truth the
	// extra gate load outweighs the drive improvement here.)
	cold, err := New(tech, lib).AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{"in0": {}}, Outputs: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	if cold.WorstArrival <= first.WorstArrival {
		t.Errorf("widening mn2 should increase the true worst arrival: cold %g vs pre-edit %g",
			cold.WorstArrival, first.WorstArrival)
	}
	if d := math.Abs(second.WorstArrival-cold.WorstArrival) / cold.WorstArrival; d > 0.02 {
		t.Errorf("incremental worst arrival %g deviates %.2f%% from cold %g (want < 2%%)",
			second.WorstArrival, 100*d, cold.WorstArrival)
	}
}

func TestAnalyzeNANDIntoInverter(t *testing.T) {
	nl := &circuit.Netlist{}
	// NAND2 (a, b) -> x; inverter x -> out.
	nl.AddTransistor(&circuit.Transistor{Name: "mn1", Kind: circuit.KindNMOS, Drain: "t1", Gate: "a", Source: "0", Body: "0", W: 1e-6, L: tech.LMin})
	nl.AddTransistor(&circuit.Transistor{Name: "mn2", Kind: circuit.KindNMOS, Drain: "x", Gate: "b", Source: "t1", Body: "0", W: 1e-6, L: tech.LMin})
	nl.AddTransistor(&circuit.Transistor{Name: "mp1", Kind: circuit.KindPMOS, Drain: "x", Gate: "a", Source: "vdd", Body: "vdd", W: 2e-6, L: tech.LMin})
	nl.AddTransistor(&circuit.Transistor{Name: "mp2", Kind: circuit.KindPMOS, Drain: "x", Gate: "b", Source: "vdd", Body: "vdd", W: 2e-6, L: tech.LMin})
	nl.AddTransistor(&circuit.Transistor{Name: "mn3", Kind: circuit.KindNMOS, Drain: "out", Gate: "x", Source: "0", Body: "0", W: 1e-6, L: tech.LMin})
	nl.AddTransistor(&circuit.Transistor{Name: "mp3", Kind: circuit.KindPMOS, Drain: "out", Gate: "x", Source: "vdd", Body: "vdd", W: 2e-6, L: tech.LMin})
	nl.AddCapacitor("cl", "out", "0", 10e-15)

	a := New(tech, lib)
	// Input b arrives late: it must dominate the worst path.
	res, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{
		"a": {},
		"b": {Rise: 200e-12, Fall: 200e-12},
	}, Outputs: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstArrival <= 200e-12 {
		t.Errorf("worst arrival %g should exceed the late input's 200 ps", res.WorstArrival)
	}
	// The x net must arrive after b.
	if res.Arrivals["x"].Fall <= 200e-12 && res.Arrivals["x"].Rise <= 200e-12 {
		t.Errorf("x arrivals %+v ignore the late input", res.Arrivals["x"])
	}
}

func TestAnalyzeCombinationalLoopRejected(t *testing.T) {
	nl := &circuit.Netlist{}
	// Two inverters in a ring: a -> b -> a.
	nl.AddTransistor(&circuit.Transistor{Name: "mn1", Kind: circuit.KindNMOS, Drain: "b", Gate: "a", Source: "0", Body: "0", W: 1e-6, L: tech.LMin})
	nl.AddTransistor(&circuit.Transistor{Name: "mp1", Kind: circuit.KindPMOS, Drain: "b", Gate: "a", Source: "vdd", Body: "vdd", W: 2e-6, L: tech.LMin})
	nl.AddTransistor(&circuit.Transistor{Name: "mn2", Kind: circuit.KindNMOS, Drain: "a", Gate: "b", Source: "0", Body: "0", W: 1e-6, L: tech.LMin})
	nl.AddTransistor(&circuit.Transistor{Name: "mp2", Kind: circuit.KindPMOS, Drain: "a", Gate: "b", Source: "vdd", Body: "vdd", W: 2e-6, L: tech.LMin})
	a := New(tech, lib)
	if _, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{}, Outputs: []string{"a"}}); err == nil {
		t.Fatal("combinational loop accepted")
	}
}

func TestAnalyzeErrors(t *testing.T) {
	a := New(tech, lib)
	if _, err := a.AnalyzeContext(nil, Request{Netlist: &circuit.Netlist{}, Outputs: []string{"out"}}); err == nil {
		t.Error("empty netlist accepted")
	}
	nl := inverterChain(1, 1e-6, 2e-6)
	if _, err := a.AnalyzeContext(nil, Request{Netlist: nl, Outputs: []string{"nonexistent"}}); err == nil {
		t.Error("unknown output accepted")
	}
}

// Slew propagation: a slow edge at the primary input must lengthen the
// first stage's delay relative to an ideal step, and the effect decays
// down the chain as stages regenerate the edge.
func TestSlewPropagation(t *testing.T) {
	a := New(tech, lib)
	nl := inverterChain(3, 1e-6, 2e-6)
	sharp, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{"in0": {}}, Outputs: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{
		"in0": {RiseSlew: 200e-12, FallSlew: 200e-12},
	}, Outputs: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	if slow.WorstArrival <= sharp.WorstArrival {
		t.Errorf("a 200 ps input slew should increase the arrival: %g vs %g",
			slow.WorstArrival, sharp.WorstArrival)
	}
	// Output slews settle to the chain's own regenerated values: the final
	// stage's slew should not inherit the full 200 ps.
	ar := slow.Arrivals["out"]
	if ar.FallSlew > 150e-12 || ar.RiseSlew > 150e-12 {
		t.Errorf("output slews did not regenerate: %+v", ar)
	}
}
