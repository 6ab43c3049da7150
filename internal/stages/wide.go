package stages

import (
	"fmt"

	"qwm/internal/circuit"
	"qwm/internal/mos"
)

// WideNetlist builds the workload shape the hot-path optimizations target: a
// single input inverter fans out to `fan` STRUCTURALLY IDENTICAL branches,
// each a driver inverter pushing a long distributed RC wire (`segs` series
// segments, 50 Ω / 2 fF each) into a receiver inverter loaded with cl.
//
//	in ─▷○── d0 ──┬─▷○── r0_0 ─R─C─R─C─…─ x0 ──▷○── y0 ─┤cl
//	              ├─▷○── r1_0 ─R─C─R─C─…─ x1 ──▷○── y1 ─┤cl
//	              └─ … (fan branches)
//
// The branches differ only in node names, and the wire runs are long series
// chains the model-order-reduction pre-pass (reduce.Config) collapses to
// moment-matched stubs. With it off, every branch pays a full-length
// evaluation.
//
// It returns the netlist, the primary inputs ("in") and the branch outputs
// (y0 … y{fan−1}).
func WideNetlist(tech *mos.Tech, fan, segs int, w, cl float64) (*circuit.Netlist, []string, []string, error) {
	if fan < 1 {
		return nil, nil, nil, fmt.Errorf("stages: wide fan must be >= 1, got %d", fan)
	}
	if segs < 2 {
		return nil, nil, nil, fmt.Errorf("stages: wide segs must be >= 2, got %d", segs)
	}
	const (
		rSeg = 50.0  // Ω per wire segment
		cSeg = 2e-15 // F per internal wire node
	)
	n := &circuit.Netlist{}
	wn, wp := w, 2*w
	lmin := tech.LMin

	inv := func(tag, in, out string) {
		n.AddTransistor(&circuit.Transistor{
			Name: "mn" + tag, Kind: circuit.KindNMOS,
			Drain: out, Gate: in, Source: "0", Body: "0", W: wn, L: lmin,
		})
		n.AddTransistor(&circuit.Transistor{
			Name: "mp" + tag, Kind: circuit.KindPMOS,
			Drain: out, Gate: in, Source: "vdd", Body: "vdd", W: wp, L: lmin,
		})
	}

	inv("i", "in", "d0")
	outputs := make([]string, fan)
	for f := 0; f < fan; f++ {
		drive := fmt.Sprintf("r%d_0", f)
		inv(fmt.Sprintf("d%d", f), "d0", drive)
		// Distributed RC line drive -> x_f: segs resistors with a grounded
		// cap at every internal node.
		prev := drive
		end := fmt.Sprintf("x%d", f)
		for s := 0; s < segs; s++ {
			next := fmt.Sprintf("r%d_%d", f, s+1)
			if s == segs-1 {
				next = end
			}
			n.AddResistor(fmt.Sprintf("rw%d_%d", f, s), prev, next, rSeg)
			if s < segs-1 {
				n.AddCapacitor(fmt.Sprintf("cw%d_%d", f, s), next, "0", cSeg)
			}
			prev = next
		}
		y := fmt.Sprintf("y%d", f)
		outputs[f] = y
		inv(fmt.Sprintf("r%d", f), end, y)
		n.AddCapacitor(fmt.Sprintf("cl%d", f), y, "0", cl)
	}
	return n, []string{"in"}, outputs, nil
}
