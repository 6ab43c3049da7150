package spice_test

import (
	"math"
	"testing"

	"qwm/internal/mos"
	"qwm/internal/spice"
	"qwm/internal/stages"
	"qwm/internal/wave"
)

// refPin is one pinned SPICE reference: the output's 50 % delay and 10–90 %
// slew (s), the accepted time points and the Newton iterations they took.
type refPin struct {
	name        string
	delay, slew float64
	steps, nr   int
}

// fixedPins are the fixed 1 ps trapezoidal references of Table I and the
// first three Table II stacks, the baseline every QWM accuracy and speed-up
// figure is measured against.
var fixedPins = []refPin{
	{"inv", 5.1044937591e-11, 9.1336146408e-11, 2000, 2150},
	{"nand2", 1.0170542199e-10, 1.7809247983e-10, 3000, 3277},
	{"nand3", 1.7001581472e-10, 2.9804003973e-10, 3000, 3438},
	{"nand4", 2.5710207884e-10, 4.4868647624e-10, 3000, 3623},
	{"5/ckt1", 1.4347587533e-10, 1.9815439487e-10, 7500, 7927},
	{"5/ckt2", 1.3464052909e-10, 1.8154304355e-10, 7500, 7913},
	{"5/ckt3", 1.7448587051e-10, 2.5185214439e-10, 7500, 8014},
}

// adaptivePins are LTE-controlled runs (HMax 20 ps, as the verify sweep
// uses): an NMOS stack under a step input and a PMOS stack under an 80 ps
// input ramp.
var adaptivePins = []refPin{
	{"nstack3", 1.0330813359e-10, 1.5062014425e-10, 546, 761},
	{"pstack2", 9.3189597043e-11, 1.2935451303e-10, 433, 643},
}

// measure reads the delay and slew of a workload's recorded output.
func measure(t *testing.T, w *stages.Workload, res *spice.Result, vdd float64) (float64, float64) {
	t.Helper()
	out, err := res.Waveform(w.Output)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	d, err := wave.Delay50(out, w.SwitchAt, vdd, w.Rising)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	s, err := wave.Slew(out, vdd, w.Rising)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return d, s
}

// checkPin compares one run against its pin: delays and slews within 1e-9
// relative, step and iteration counts exactly. The -v log line is the pin
// literal of the run, for re-pinning after a deliberate change.
func checkPin(t *testing.T, pin refPin, d, s float64, st spice.Stats) {
	t.Helper()
	t.Logf("{%q, %.10e, %.10e, %d, %d},", pin.name, d, s, st.Steps, st.NRIterations)
	if rd := math.Abs(d-pin.delay) / pin.delay; !(rd <= 1e-9) {
		t.Errorf("%s: delay %.10e, pinned %.10e", pin.name, d, pin.delay)
	}
	if rs := math.Abs(s-pin.slew) / pin.slew; !(rs <= 1e-9) {
		t.Errorf("%s: slew %.10e, pinned %.10e", pin.name, s, pin.slew)
	}
	if st.Steps != pin.steps || st.NRIterations != pin.nr {
		t.Errorf("%s: %d steps / %d NR iterations, pinned %d / %d", pin.name, st.Steps, st.NRIterations, pin.steps, pin.nr)
	}
}

func TestFixedStepReferencesMatchPins(t *testing.T) {
	tech := mos.CMOSP35()
	t1, err := stages.TableI(tech)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := stages.TableII(tech)
	if err != nil {
		t.Fatal(err)
	}
	ws := append(t1, t2[:3]...)
	if len(ws) != len(fixedPins) {
		t.Fatalf("%d circuits, %d pins", len(ws), len(fixedPins))
	}
	for i, w := range ws {
		pin := fixedPins[i]
		if w.Name != pin.name {
			t.Fatalf("circuit %d is %q, pinned %q", i, w.Name, pin.name)
		}
		sim, err := spice.New(w.Netlist, tech)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Transient(spice.Options{TStop: w.TStop, Step: 1e-12, IC: w.IC, RecordNodes: []string{w.Output}})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		d, s := measure(t, w, res, tech.VDD)
		checkPin(t, pin, d, s, res.Stats)
	}
}

func TestAdaptiveReferencesMatchPins(t *testing.T) {
	tech := mos.CMOSP35()
	specs := []stages.StackSpec{
		{Widths: []float64{2e-6, 1.5e-6, 1e-6}, NodeCaps: []float64{2e-15, 2e-15, 0}, CL: 20e-15, At: 10e-12},
		{PMOS: true, Widths: []float64{3e-6, 2e-6}, CL: 15e-15, At: 10e-12, InSlew: 80e-12},
	}
	if len(specs) != len(adaptivePins) {
		t.Fatalf("%d stacks, %d pins", len(specs), len(adaptivePins))
	}
	for i, sp := range specs {
		pin := adaptivePins[i]
		w, err := stages.CustomStack(tech, sp)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name != pin.name {
			t.Fatalf("stack %d is %q, pinned %q", i, w.Name, pin.name)
		}
		sim, err := spice.New(w.Netlist, tech)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.TransientAdaptive(spice.AdaptiveOptions{TStop: w.TStop, HMax: 20e-12, IC: w.IC, RecordNodes: []string{w.Output}})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		d, s := measure(t, w, res, tech.VDD)
		checkPin(t, pin, d, s, res.Stats)
	}
}
