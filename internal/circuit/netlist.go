// Package circuit implements the paper's §III-A circuit model: a flat
// transistor-level netlist, the CMOS logic stage as a polar directed graph
// (Definition 1), channel-connected-component extraction, and series-path
// enumeration for the charge/discharge analysis QWM performs.
package circuit

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"qwm/internal/mos"
	"qwm/internal/wave"
)

// Ground and the conventional supply node names. Node names are
// case-insensitive; "0" and "gnd" are aliases.
const (
	GroundNode = "0"
	SupplyNode = "vdd"
)

// CanonName normalizes a node name: lower-case, with ground aliases folded
// to "0".
func CanonName(n string) string {
	n = strings.ToLower(strings.TrimSpace(n))
	if n == "gnd" || n == "ground" || n == "vss" {
		return GroundNode
	}
	return n
}

// DeviceKind enumerates the circuit element kinds of the paper's Definition 1
// plus the lumped elements the SPICE substrate needs.
type DeviceKind int

const (
	KindNMOS DeviceKind = iota
	KindPMOS
	KindWire // a resistive wire segment (reduced interconnect)
	KindCap  // lumped capacitor to ground
	KindVSrc // voltage source (inputs, supply)
)

func (k DeviceKind) String() string {
	switch k {
	case KindNMOS:
		return "nmos"
	case KindPMOS:
		return "pmos"
	case KindWire:
		return "wire"
	case KindCap:
		return "cap"
	case KindVSrc:
		return "vsrc"
	}
	return "unknown"
}

// Transistor is a MOS device instance.
type Transistor struct {
	Name       string
	Kind       DeviceKind // KindNMOS or KindPMOS
	Drain      string
	Gate       string
	Source     string
	Body       string
	W, L       float64
	DrainJunc  mos.Junction // zero => derived from W
	SourceJunc mos.Junction
}

// Resistor is a two-terminal resistance (wire segments reduce to these).
type Resistor struct {
	Name string
	A, B string
	R    float64
}

// Capacitor is a two-terminal capacitance; B is usually ground.
type Capacitor struct {
	Name string
	A, B string
	C    float64
}

// VSource is an independent voltage source from node A to ground reference B.
type VSource struct {
	Name string
	A, B string
	// Wave gives v(t); nil means DC 0.
	Wave wave.Waveform
}

// Netlist is a flat transistor-level circuit.
type Netlist struct {
	Transistors []*Transistor
	Resistors   []*Resistor
	Capacitors  []*Capacitor
	VSources    []*VSource
}

// AddTransistor appends a transistor with canonical node names.
func (n *Netlist) AddTransistor(t *Transistor) *Transistor {
	t.Drain = CanonName(t.Drain)
	t.Gate = CanonName(t.Gate)
	t.Source = CanonName(t.Source)
	t.Body = CanonName(t.Body)
	n.Transistors = append(n.Transistors, t)
	return t
}

// AddResistor appends a resistor with canonical node names.
func (n *Netlist) AddResistor(name, a, b string, r float64) *Resistor {
	res := &Resistor{Name: name, A: CanonName(a), B: CanonName(b), R: r}
	n.Resistors = append(n.Resistors, res)
	return res
}

// AddCapacitor appends a capacitor with canonical node names.
func (n *Netlist) AddCapacitor(name, a, b string, c float64) *Capacitor {
	el := &Capacitor{Name: name, A: CanonName(a), B: CanonName(b), C: c}
	n.Capacitors = append(n.Capacitors, el)
	return el
}

// AddVSource appends a voltage source with canonical node names.
func (n *Netlist) AddVSource(name, a, b string, w wave.Waveform) *VSource {
	v := &VSource{Name: name, A: CanonName(a), B: CanonName(b), Wave: w}
	n.VSources = append(n.VSources, v)
	return v
}

// Nodes returns the sorted set of node names appearing in the netlist.
func (n *Netlist) Nodes() []string {
	set := map[string]bool{}
	add := func(names ...string) {
		for _, s := range names {
			if s != "" {
				set[s] = true
			}
		}
	}
	for _, t := range n.Transistors {
		add(t.Drain, t.Gate, t.Source, t.Body)
	}
	for _, r := range n.Resistors {
		add(r.A, r.B)
	}
	for _, c := range n.Capacitors {
		add(c.A, c.B)
	}
	for _, v := range n.VSources {
		add(v.A, v.B)
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Validate performs basic sanity checks: positive and finite geometry and
// resistance, non-negative finite capacitance, distinct terminals where
// required. NaN propagates silently through every solver in the stack, so
// non-finite parameters are rejected here rather than surfacing later as a
// mysterious convergence failure.
func (n *Netlist) Validate() error {
	finite := func(vals ...float64) bool {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	for _, t := range n.Transistors {
		if t.Kind != KindNMOS && t.Kind != KindPMOS {
			return fmt.Errorf("circuit: %s: transistor kind must be nmos or pmos", t.Name)
		}
		if !finite(t.W, t.L) {
			return fmt.Errorf("circuit: %s: non-finite geometry W=%g L=%g", t.Name, t.W, t.L)
		}
		if t.W <= 0 || t.L <= 0 {
			return fmt.Errorf("circuit: %s: non-positive geometry W=%g L=%g", t.Name, t.W, t.L)
		}
		if t.Drain == t.Source {
			return fmt.Errorf("circuit: %s: drain and source are the same node %q", t.Name, t.Drain)
		}
	}
	for _, r := range n.Resistors {
		if !finite(r.R) {
			return fmt.Errorf("circuit: %s: non-finite resistance %g", r.Name, r.R)
		}
		if r.R <= 0 {
			return fmt.Errorf("circuit: %s: non-positive resistance %g", r.Name, r.R)
		}
		if r.A == r.B {
			return fmt.Errorf("circuit: %s: both terminals on node %q", r.Name, r.A)
		}
	}
	for _, c := range n.Capacitors {
		if !finite(c.C) {
			return fmt.Errorf("circuit: %s: non-finite capacitance %g", c.Name, c.C)
		}
		if c.C < 0 {
			return fmt.Errorf("circuit: %s: negative capacitance %g", c.Name, c.C)
		}
	}
	return nil
}
