package sta

import (
	"fmt"
	"math"

	"qwm/internal/circuit"
	"qwm/internal/slab"
)

// MaxInputSlew is the largest primary-input transition time (10–90 %, in
// seconds) an analysis accepts. 100 ns is far slower than any on-chip edge,
// so a slower one is a malformed request rather than a transition to time.
// It does not bound the spice rescue tier's cost: that tier's window grows
// with the slew, but its step bound grows with the window, so it takes
// about a thousand steps at any slew.
const MaxInputSlew = 100e-9

// Device geometry bounds. Channels outside them are far from any process the
// device tables model: a picometre-wide or metre-wide device gives the solver
// tiers nothing to converge on, so its analysis would run the whole
// degradation ladder and answer with bound-tier delays. The bounds are loose
// deliberately — a generous margin on every geometry a real deck carries.
const (
	MinChannelLength = 10e-9  // 10 nm
	MaxChannelLength = 100e-6 // 100 µm
	MinChannelWidth  = 10e-9  // 10 nm
	MaxChannelWidth  = 1e-3   // 1 mm
)

// preflight is the STA engine's input gate: every check a malformed request
// can fail before any solver work starts. Netlist defects are wrapped in
// ErrInvalidNetlist and out-of-range primary inputs in ErrInvalidInput, so
// callers classify each family with one errors.Is. It layers on top of
// circuit.Netlist.Validate (device-local sanity, non-finite and non-positive
// parameters included) the checks only an analysis-level view can make:
// duplicate device names, device geometry outside the channel bounds, and
// floating capacitor terminals. Combinational cycles are detected later by
// levelization and wrapped with ErrInvalidNetlist.
//
// preflight also numbers the netlist's nodes into s.ex.Nodes, which the
// extraction and the load index then reuse; the cross-device checks run over
// slices indexed by those IDs.
func (s *analyzeScratch) preflight(n *circuit.Netlist, primary map[string]Arrival) error {
	if n == nil {
		return fmt.Errorf("%w: nil netlist", ErrInvalidNetlist)
	}
	if err := n.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidNetlist, err)
	}
	if err := checkPrimary(primary); err != nil {
		return err
	}
	nodes := &s.ex.Nodes
	nodes.Build(n)

	// Duplicate device names (across all device kinds): a name collision
	// makes reports and incremental edits ambiguous. Unnamed devices are
	// skipped — the builder APIs allow them and they collide vacuously.
	if s.devNames == nil {
		s.devNames = make(map[string]string, len(n.Transistors)+len(n.Resistors)+len(n.VSources)+len(n.Capacitors))
	}
	seen := s.devNames
	dup := func(name, kind string) error {
		if name == "" {
			return nil
		}
		if prev, ok := seen[name]; ok {
			return fmt.Errorf("%w: duplicate device name %q (%s and %s)", ErrInvalidNetlist, name, prev, kind)
		}
		seen[name] = kind
		return nil
	}

	// Touch counts are per canonical node: canon maps a node ID to the ID of
	// its canonical name, numbering that name first when no terminal spells
	// it (a netlist built without the Add methods may carry "OUT" or "gnd").
	nn := len(nodes.Names)
	s.canon = slab.Resize(s.canon, nn)
	for id := 0; id < nn; id++ {
		name := nodes.Names[id]
		c := int32(id)
		if cn := circuit.CanonName(name); cn != name {
			c = nodes.ID(cn)
		}
		s.canon[id] = c
	}
	// touch counts how many device terminals (transistor channel/gate,
	// resistor ends, source ends) connect to each canonical node.
	s.touch = slab.Resize(s.touch, len(nodes.Names))
	clear(s.touch)
	bump := func(ids ...int32) {
		for _, id := range ids {
			s.touch[s.canon[id]]++
		}
	}
	for i, t := range n.Transistors {
		if err := dup(t.Name, "transistor"); err != nil {
			return err
		}
		if err := checkGeometry(t); err != nil {
			return err
		}
		bump(nodes.Drain(i), nodes.Gate(i), nodes.Source(i))
	}
	for i, r := range n.Resistors {
		if err := dup(r.Name, "resistor"); err != nil {
			return err
		}
		bump(nodes.ResistorEnds(i))
	}
	for i, v := range n.VSources {
		if err := dup(v.Name, "source"); err != nil {
			return err
		}
		bump(nodes.VSourceEnds(i))
	}
	for _, c := range n.Capacitors {
		if err := dup(c.Name, "capacitor"); err != nil {
			return err
		}
	}

	// Dangling capacitor terminals: a cap wired to a net no transistor,
	// resistor or source touches models load on a node that cannot move —
	// almost always a typo in the node name. Rails are exempt (they are
	// implicit nets). The count deliberately excludes capacitor terminals
	// themselves: two caps in series between otherwise-floating nets are
	// just as dead as one.
	for i, c := range n.Capacitors {
		a, b := nodes.CapacitorEnds(i)
		for _, id := range [2]int32{a, b} {
			cid := s.canon[id]
			nd := nodes.Names[cid]
			if nd == circuit.GroundNode || nd == circuit.SupplyNode {
				continue
			}
			if s.touch[cid] == 0 {
				return fmt.Errorf("%w: capacitor %q terminal %q is floating (no device drives the node)", ErrInvalidNetlist, c.Name, nd)
			}
		}
	}
	return nil
}

// checkGeometry rejects a transistor whose channel lies outside the
// MinChannel*/MaxChannel* bounds. Netlist.Validate refuses non-finite values
// first.
func checkGeometry(t *circuit.Transistor) error {
	if t.L < MinChannelLength || t.L > MaxChannelLength {
		return fmt.Errorf("%w: device %q has channel length %g m, outside [%g, %g] m",
			ErrInvalidNetlist, t.Name, t.L, MinChannelLength, MaxChannelLength)
	}
	if t.W < MinChannelWidth || t.W > MaxChannelWidth {
		return fmt.Errorf("%w: device %q has channel width %g m, outside [%g, %g] m",
			ErrInvalidNetlist, t.Name, t.W, MinChannelWidth, MaxChannelWidth)
	}
	return nil
}

// checkPrimary rejects primary-input arrivals the engine cannot time:
// non-finite times or slews, negative slews, and slews above MaxInputSlew.
// Negative arrival times are legal (an input may switch before t = 0). With
// several bad inputs the error names the lexically first, so the message is
// independent of map order.
func checkPrimary(primary map[string]Arrival) error {
	bad, why := "", ""
	for net, ar := range primary {
		if bad != "" && net >= bad {
			continue
		}
		if w := arrivalDefect(ar); w != "" {
			bad, why = net, w
		}
	}
	if bad == "" {
		return nil
	}
	return fmt.Errorf("%w: input %q %s", ErrInvalidInput, bad, why)
}

// arrivalDefect describes what is out of range in one arrival, or "".
func arrivalDefect(ar Arrival) string {
	for _, v := range [...]float64{ar.Rise, ar.Fall, ar.RiseSlew, ar.FallSlew} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Sprintf("has a non-finite arrival or slew %v", v)
		}
	}
	for _, s := range [...]float64{ar.RiseSlew, ar.FallSlew} {
		if s < 0 {
			return fmt.Sprintf("has a negative slew %g s", s)
		}
		if s > MaxInputSlew {
			return fmt.Sprintf("has a slew of %g s, above the %g s limit", s, MaxInputSlew)
		}
	}
	return ""
}
