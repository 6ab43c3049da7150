package sta

import (
	"fmt"
	"math"

	"qwm/internal/circuit"
)

// MaxInputSlew is the largest primary-input transition time (10–90 %, in
// seconds) an analysis accepts. The spice rescue tier simulates for
// 1.25·slew + 2 ns at a 5 ps step, so its cost grows linearly with the slew;
// a microsecond-scale edge already takes tens of seconds, and an unbounded
// one pins a worker indefinitely. 100 ns is far slower than any on-chip edge.
const MaxInputSlew = 100e-9

// preflight is the STA engine's input gate: every check a malformed request
// can fail before any solver work starts. Netlist defects are wrapped in
// ErrInvalidNetlist and out-of-range primary inputs in ErrInvalidInput, so
// callers classify each family with one errors.Is. It layers on top of
// circuit.Netlist.Validate (device-local sanity) the cross-device checks
// only an analysis-level view can make: duplicate device names, non-finite
// parameters, and floating capacitor terminals. Combinational cycles are
// detected later by levelization and wrapped with ErrInvalidNetlist.
func preflight(n *circuit.Netlist, primary map[string]Arrival) error {
	if n == nil {
		return fmt.Errorf("%w: nil netlist", ErrInvalidNetlist)
	}
	if err := n.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalidNetlist, err)
	}
	if err := checkPrimary(primary); err != nil {
		return err
	}

	// Duplicate device names (across all device kinds): a name collision
	// makes reports and incremental edits ambiguous. Unnamed devices are
	// skipped — the builder APIs allow them and they collide vacuously.
	seen := map[string]string{}
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
	finite := func(name string, vals ...float64) error {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: device %q has a non-finite parameter %v", ErrInvalidNetlist, name, v)
			}
		}
		return nil
	}

	// touch counts how many device terminals (transistor channel/gate,
	// resistor ends, source ends) connect to each node.
	touch := map[string]int{}
	bump := func(nodes ...string) {
		for _, nd := range nodes {
			touch[circuit.CanonName(nd)]++
		}
	}
	for _, t := range n.Transistors {
		if err := dup(t.Name, "transistor"); err != nil {
			return err
		}
		if err := finite(t.Name, t.W, t.L); err != nil {
			return err
		}
		bump(t.Drain, t.Gate, t.Source)
	}
	for _, r := range n.Resistors {
		if err := dup(r.Name, "resistor"); err != nil {
			return err
		}
		if err := finite(r.Name, r.R); err != nil {
			return err
		}
		bump(r.A, r.B)
	}
	for _, s := range n.VSources {
		if err := dup(s.Name, "source"); err != nil {
			return err
		}
		bump(s.A, s.B)
	}
	for _, c := range n.Capacitors {
		if err := dup(c.Name, "capacitor"); err != nil {
			return err
		}
		if err := finite(c.Name, c.C); err != nil {
			return err
		}
	}

	// Dangling capacitor terminals: a cap wired to a net no transistor,
	// resistor or source touches models load on a node that cannot move —
	// almost always a typo in the node name. Rails are exempt (they are
	// implicit nets). The count deliberately excludes capacitor terminals
	// themselves: two caps in series between otherwise-floating nets are
	// just as dead as one.
	for _, c := range n.Capacitors {
		for _, nd := range [2]string{c.A, c.B} {
			nd = circuit.CanonName(nd)
			if nd == circuit.GroundNode || nd == circuit.SupplyNode {
				continue
			}
			if touch[nd] == 0 {
				return fmt.Errorf("%w: capacitor %q terminal %q is floating (no device drives the node)", ErrInvalidNetlist, c.Name, nd)
			}
		}
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
