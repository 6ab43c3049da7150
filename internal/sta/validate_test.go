package sta

import (
	"errors"
	"math"
	"strings"
	"testing"

	"qwm/internal/circuit"
)

// analyzeExpectInvalid runs an Analyze and asserts the typed pre-flight
// rejection: the error must wrap ErrInvalidNetlist and mention `frag`.
func analyzeExpectInvalid(t *testing.T, nl *circuit.Netlist, frag string) {
	t.Helper()
	_, err := New(tech, lib).AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{"in0": {}}, Outputs: []string{"out"}})
	if err == nil {
		t.Fatalf("malformed netlist (%s) accepted", frag)
	}
	if !errors.Is(err, ErrInvalidNetlist) {
		t.Fatalf("error %v does not wrap ErrInvalidNetlist", err)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Errorf("error %q does not mention %q", err, frag)
	}
}

func TestPreflightNilNetlist(t *testing.T) {
	_, err := New(tech, lib).AnalyzeContext(nil, Request{Outputs: []string{"out"}})
	if !errors.Is(err, ErrInvalidNetlist) {
		t.Fatalf("nil netlist error = %v, want ErrInvalidNetlist", err)
	}
}

func TestPreflightDuplicateNames(t *testing.T) {
	nl := inverterChain(1, 1e-6, 2e-6)
	// A resistor reusing a transistor's name across device kinds.
	nl.AddResistor("mn0", "out", "x", 100)
	analyzeExpectInvalid(t, nl, `duplicate device name "mn0"`)
}

func TestPreflightNonFiniteParameters(t *testing.T) {
	cases := []struct {
		name string
		mut  func(nl *circuit.Netlist)
	}{
		{"NaN transistor width", func(nl *circuit.Netlist) {
			nl.AddTransistor(&circuit.Transistor{Name: "mx", Kind: circuit.KindNMOS,
				Drain: "out", Gate: "in0", Source: "0", Body: "0", W: math.NaN(), L: tech.LMin})
		}},
		{"Inf resistance", func(nl *circuit.Netlist) {
			nl.AddResistor("rx", "out", "n1", math.Inf(1))
		}},
		{"NaN capacitance", func(nl *circuit.Netlist) {
			nl.AddCapacitor("cx", "out", "0", math.NaN())
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nl := inverterChain(2, 1e-6, 2e-6)
			c.mut(nl)
			analyzeExpectInvalid(t, nl, "non-finite")
		})
	}
}

func TestPreflightFloatingCapTerminal(t *testing.T) {
	nl := inverterChain(1, 1e-6, 2e-6)
	// "ghost" is touched by nothing but this capacitor: load on a node that
	// can never move, i.e. a typo in the node name.
	nl.AddCapacitor("cx", "ghost", "0", 1e-15)
	analyzeExpectInvalid(t, nl, "floating")

	// Two caps in series between dead nets are just as floating — the touch
	// count must not treat a sibling capacitor as a driver.
	nl2 := inverterChain(1, 1e-6, 2e-6)
	nl2.AddCapacitor("ca", "ghost1", "ghost2", 1e-15)
	nl2.AddCapacitor("cb", "ghost2", "0", 1e-15)
	analyzeExpectInvalid(t, nl2, "floating")
}

// TestPreflightGeometryBounds pins the channel-geometry gate: W and L
// outside [MinChannel*, MaxChannel*] are ErrInvalidNetlist naming the
// dimension, and the bounds themselves are accepted.
func TestPreflightGeometryBounds(t *testing.T) {
	cases := []struct {
		name string
		w, l float64
		frag string // "" = accepted
	}{
		{"W 1 pm", 1e-12, tech.LMin, "channel width"},
		{"W 1 m", 1, tech.LMin, "channel width"},
		{"L 1 mm", 1e-6, 1e-3, "channel length"},
		{"L 350 m", 1e-6, 350, "channel length"},
		{"L 1 nm", 1e-6, 1e-9, "channel length"},
		{"at the lower bounds", MinChannelWidth, MinChannelLength, ""},
		{"at the upper bounds", MaxChannelWidth, MaxChannelLength, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nl := inverterChain(1, 1e-6, 2e-6)
			nl.AddTransistor(&circuit.Transistor{Name: "mx", Kind: circuit.KindNMOS,
				Drain: "out", Gate: "in0", Source: "0", Body: "0", W: c.w, L: c.l})
			if c.frag == "" {
				if err := newScratch().preflight(nl, nil); err != nil {
					t.Fatalf("W=%g L=%g rejected: %v", c.w, c.l, err)
				}
				return
			}
			analyzeExpectInvalid(t, nl, c.frag)
		})
	}
}

// TestPreflightCanonicalTouch: touch counts are per canonical node, so a
// netlist built without the Add methods may spell one node two ways ("OUT"
// on the device, "out" on the cap, "GND" for ground) and still pass, while a
// cap on a node nothing else touches is floating under its canonical name.
func TestPreflightCanonicalTouch(t *testing.T) {
	mk := func(capNode string) *circuit.Netlist {
		return &circuit.Netlist{
			Transistors: []*circuit.Transistor{
				{Name: "mn", Kind: circuit.KindNMOS, Drain: "OUT", Gate: "In", Source: "0", Body: "0", W: 1e-6, L: tech.LMin},
				{Name: "mp", Kind: circuit.KindPMOS, Drain: "OUT", Gate: "In", Source: "vdd", Body: "vdd", W: 2e-6, L: tech.LMin},
			},
			Capacitors: []*circuit.Capacitor{{Name: "cl", A: capNode, B: "GND", C: 1e-15}},
		}
	}
	if err := newScratch().preflight(mk("out"), nil); err != nil {
		t.Fatalf("cap on the canonical spelling of a driven node rejected: %v", err)
	}
	err := newScratch().preflight(mk(" Ghost"), nil)
	if !errors.Is(err, ErrInvalidNetlist) || !strings.Contains(err.Error(), `terminal "ghost" is floating`) {
		t.Fatalf("floating cap error = %v", err)
	}
}

func TestPreflightRailCapsAllowed(t *testing.T) {
	// Decoupling caps to the rails are legitimate and must pass.
	nl := inverterChain(1, 1e-6, 2e-6)
	nl.AddCapacitor("cdec", "vdd", "0", 1e-12)
	if _, err := New(tech, lib).AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{"in0": {}}, Outputs: []string{"out"}}); err != nil {
		t.Fatalf("rail decoupling cap rejected: %v", err)
	}
}

func TestCombinationalLoopIsInvalidNetlist(t *testing.T) {
	// Two cross-coupled inverters: each stage's input is the other's output,
	// so levelization finds no valid order. The failure must carry the same
	// typed sentinel as the rest of the pre-flight family.
	nl := &circuit.Netlist{}
	mk := func(i int, in, out string) {
		nl.AddTransistor(&circuit.Transistor{Name: "mn" + string(rune('0'+i)), Kind: circuit.KindNMOS,
			Drain: out, Gate: in, Source: "0", Body: "0", W: 1e-6, L: tech.LMin})
		nl.AddTransistor(&circuit.Transistor{Name: "mp" + string(rune('0'+i)), Kind: circuit.KindPMOS,
			Drain: out, Gate: in, Source: "vdd", Body: "vdd", W: 2e-6, L: tech.LMin})
	}
	mk(0, "a", "b")
	mk(1, "b", "a")
	nl.AddCapacitor("cl", "b", "0", 5e-15)
	_, err := New(tech, lib).AnalyzeContext(nil, Request{Netlist: nl, Outputs: []string{"b"}})
	if err == nil {
		t.Fatal("combinational loop accepted")
	}
	if !errors.Is(err, ErrInvalidNetlist) {
		t.Fatalf("loop error %v does not wrap ErrInvalidNetlist", err)
	}
}

func TestPreflightAcceptsHealthyNetlist(t *testing.T) {
	if err := newScratch().preflight(inverterChain(4, 1e-6, 2e-6), nil); err != nil {
		t.Fatalf("healthy netlist rejected: %v", err)
	}
}

// TestPreflightPrimaryInputs pins the primary-input gate: non-finite times
// or slews, negative slews and slews above MaxInputSlew are rejected with
// ErrInvalidInput before any solver work (an unbounded slew would stretch
// the spice rescue tier's simulation window without limit); negative
// arrival times and slews up to the limit are legal.
func TestPreflightPrimaryInputs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		ar   Arrival
		frag string // "" = accepted
	}{
		{"ideal step", Arrival{}, ""},
		{"negative arrival time", Arrival{Rise: -1e-9, Fall: -2e-9, RiseSlew: 50e-12, FallSlew: 50e-12}, ""},
		{"slew at limit", Arrival{RiseSlew: MaxInputSlew, FallSlew: MaxInputSlew}, ""},
		{"NaN rise", Arrival{Rise: nan}, "non-finite"},
		{"Inf fall", Arrival{Fall: -inf}, "non-finite"},
		{"NaN slew", Arrival{FallSlew: nan}, "non-finite"},
		{"Inf slew", Arrival{RiseSlew: inf}, "non-finite"},
		{"negative slew", Arrival{RiseSlew: -1e-9}, "negative slew"},
		{"slew over limit", Arrival{FallSlew: 1e-5}, "above"},
		{"huge slew", Arrival{RiseSlew: 1e300}, "above"},
	}
	nl := inverterChain(1, 1e-6, 2e-6)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			primary := map[string]Arrival{"in0": c.ar}
			if c.frag == "" {
				if err := newScratch().preflight(nl, primary); err != nil {
					t.Fatalf("arrival %+v rejected: %v", c.ar, err)
				}
				return
			}
			a := New(tech, lib)
			_, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: primary, Outputs: []string{"out"}})
			if !errors.Is(err, ErrInvalidInput) {
				t.Fatalf("arrival %+v: error %v, want ErrInvalidInput", c.ar, err)
			}
			if !strings.Contains(err.Error(), c.frag) || !strings.Contains(err.Error(), `"in0"`) {
				t.Errorf("error %q does not name the input and mention %q", err, c.frag)
			}
			if st := a.CacheStats(); st.Misses != 0 || st.Entries != 0 {
				t.Errorf("rejected request touched the delay cache: %+v", st)
			}
		})
	}
	// Several bad inputs: the error names the lexically first, whatever the
	// map order.
	bad := map[string]Arrival{"b": {RiseSlew: -1}, "a": {FallSlew: nan}, "c": {}}
	for i := 0; i < 8; i++ {
		if err := checkPrimary(bad); err == nil || !strings.Contains(err.Error(), `"a"`) {
			t.Fatalf("error %v does not name input \"a\"", err)
		}
	}
	// A negative arrival time runs end to end.
	if _, err := New(tech, lib).AnalyzeContext(nil, Request{Netlist: nl,
		Primary: map[string]Arrival{"in0": {Rise: -1e-9, Fall: -1e-9}}, Outputs: []string{"out"}}); err != nil {
		t.Fatalf("negative arrival time rejected: %v", err)
	}
}
