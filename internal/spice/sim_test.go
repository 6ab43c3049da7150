package spice

import (
	"math"
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/mos"
	"qwm/internal/wave"
)

var tech = mos.CMOSP35()

func feq(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }

// rcNet builds V(step) — R — node "out" — C — gnd.
func rcNet(r, c float64, src wave.Waveform) *circuit.Netlist {
	n := &circuit.Netlist{}
	n.AddVSource("vin", "in", "0", src)
	n.AddResistor("r1", "in", "out", r)
	n.AddCapacitor("c1", "out", "0", c)
	return n
}

func TestRCChargeMatchesAnalytic(t *testing.T) {
	const (
		R   = 1e3
		C   = 1e-12
		tau = R * C
	)
	n := rcNet(R, C, wave.Step{At: 0, Low: 0, High: 1})
	s, err := New(n, tech)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Transient(Options{TStop: 5 * tau, Step: tau / 200, IC: map[string]float64{"out": 0}})
	if err != nil {
		t.Fatal(err)
	}
	w, err := res.Waveform("out")
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []float64{0.5 * tau, tau, 2 * tau, 4 * tau} {
		want := 1 - math.Exp(-tt/tau)
		if got := w.Eval(tt); !feq(got, want, 5e-3) {
			t.Errorf("v(%g·tau) = %g, want %g", tt/tau, got, want)
		}
	}
}

// Integration-order check on a smooth input: halving the step shrinks the
// trapezoidal error ~4× (second order).
func TestIntegrationOrders(t *testing.T) {
	const (
		R   = 1e3
		C   = 1e-12
		tau = R * C
	)
	// Ramp response of an RC: v(t) = k(t − τ + τ·e^(−t/τ)) while ramping.
	ramp := wave.Ramp{T0: 0, T1: 10 * tau, Low: 0, High: 1}
	k := 1.0 / (10 * tau)
	analytic := func(tt float64) float64 {
		return k * (tt - tau + tau*math.Exp(-tt/tau))
	}
	n := rcNet(R, C, ramp)
	s, _ := New(n, tech)
	errAt := func(h float64) float64 {
		res, err := s.Transient(Options{TStop: 5 * tau, Step: h, IC: map[string]float64{"out": 0}})
		if err != nil {
			t.Fatal(err)
		}
		w, _ := res.Waveform("out")
		return math.Abs(w.Eval(5*tau) - analytic(5*tau))
	}
	if ratio := errAt(tau/10) / errAt(tau/20); ratio < 3.2 {
		t.Errorf("trapezoidal error ratio %g, want ≈4 (second order)", ratio)
	}
}

func TestDCOpVoltageDivider(t *testing.T) {
	n := &circuit.Netlist{}
	n.AddVSource("v1", "a", "0", wave.DC(2))
	n.AddResistor("r1", "a", "mid", 1e3)
	n.AddResistor("r2", "mid", "0", 3e3)
	s, err := New(n, tech)
	if err != nil {
		t.Fatal(err)
	}
	op, err := s.DCOp(0)
	if err != nil {
		t.Fatal(err)
	}
	if !feq(op["mid"], 1.5, 1e-6) {
		t.Errorf("divider mid = %g, want 1.5", op["mid"])
	}
}

// inverterNet builds a CMOS inverter driving a load cap.
func inverterNet(in wave.Waveform, cl float64) *circuit.Netlist {
	n := &circuit.Netlist{}
	n.AddVSource("vdd", "vdd", "0", wave.DC(tech.VDD))
	n.AddVSource("vin", "in", "0", in)
	n.AddTransistor(&circuit.Transistor{Name: "mn", Kind: circuit.KindNMOS, Drain: "out", Gate: "in", Source: "0", Body: "0", W: 1e-6, L: 0.35e-6})
	n.AddTransistor(&circuit.Transistor{Name: "mp", Kind: circuit.KindPMOS, Drain: "out", Gate: "in", Source: "vdd", Body: "vdd", W: 2e-6, L: 0.35e-6})
	if cl > 0 {
		n.AddCapacitor("cl", "out", "0", cl)
	}
	return n
}

func TestInverterDCTransferEndpoints(t *testing.T) {
	s, err := New(inverterNet(wave.DC(0), 0), tech)
	if err != nil {
		t.Fatal(err)
	}
	op, err := s.DCOp(0)
	if err != nil {
		t.Fatal(err)
	}
	if op["out"] < tech.VDD-0.01 {
		t.Errorf("input low: out = %g, want ≈ %g", op["out"], tech.VDD)
	}
	s2, _ := New(inverterNet(wave.DC(tech.VDD), 0), tech)
	op2, err := s2.DCOp(0)
	if err != nil {
		t.Fatal(err)
	}
	if op2["out"] > 0.01 {
		t.Errorf("input high: out = %g, want ≈ 0", op2["out"])
	}
}

func TestInverterDCOpMidpointMonotone(t *testing.T) {
	// Sweep the DC transfer curve: output must fall monotonically.
	prev := math.Inf(1)
	for vin := 0.0; vin <= 3.3001; vin += 0.3 {
		s, _ := New(inverterNet(wave.DC(vin), 0), tech)
		op, err := s.DCOp(0)
		if err != nil {
			t.Fatalf("vin=%g: %v", vin, err)
		}
		if op["out"] > prev+1e-6 {
			t.Fatalf("transfer curve not monotone at vin=%g: %g > %g", vin, op["out"], prev)
		}
		prev = op["out"]
	}
}

func TestInverterTransientFallingEdge(t *testing.T) {
	in := wave.Step{At: 50e-12, Low: 0, High: tech.VDD}
	s, err := New(inverterNet(in, 20e-15), tech)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Transient(Options{TStop: 2e-9, Step: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := res.Waveform("out")
	if v0 := w.Eval(0); !feq(v0, tech.VDD, 0.02) {
		t.Errorf("initial out = %g, want ≈ VDD", v0)
	}
	if vEnd := w.Eval(2e-9); vEnd > 0.05 {
		t.Errorf("final out = %g, want ≈ 0", vEnd)
	}
	d, err := wave.Delay50(w, 50e-12, tech.VDD, false)
	if err != nil {
		t.Fatal(err)
	}
	// A minimum inverter with 20 fF load: delay in the tens-to-hundreds of ps.
	if d < 5e-12 || d > 1e-9 {
		t.Errorf("inverter delay %g s implausible", d)
	}
	if res.Stats.NonConverged > 0 {
		t.Errorf("%d non-converged time points", res.Stats.NonConverged)
	}
}

func TestInverterDelayGrowsWithLoad(t *testing.T) {
	delay := func(cl float64) float64 {
		in := wave.Step{At: 10e-12, Low: 0, High: tech.VDD}
		s, _ := New(inverterNet(in, cl), tech)
		res, err := s.Transient(Options{TStop: 4e-9, Step: 2e-12})
		if err != nil {
			t.Fatal(err)
		}
		w, _ := res.Waveform("out")
		d, err := wave.Delay50(w, 10e-12, tech.VDD, false)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d1, d2 := delay(10e-15), delay(40e-15)
	if d2 <= d1*1.5 {
		t.Errorf("delay should grow ≈linearly with load: %g -> %g", d1, d2)
	}
}

func TestTransientICMode(t *testing.T) {
	// Discharge a floating cap through a resistor from a forced IC.
	n := &circuit.Netlist{}
	n.AddResistor("r1", "x", "0", 1e3)
	n.AddCapacitor("c1", "x", "0", 1e-12)
	s, err := New(n, tech)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Transient(Options{TStop: 3e-9, Step: 1e-12, IC: map[string]float64{"x": 2}})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := res.Waveform("x")
	tau := 1e-9
	if got, want := w.Eval(tau), 2*math.Exp(-1); !feq(got, want, 5e-3) {
		t.Errorf("v(tau) = %g, want %g", got, want)
	}
}

func TestTransientValidation(t *testing.T) {
	s, _ := New(rcNet(1e3, 1e-12, wave.DC(1)), tech)
	if _, err := s.Transient(Options{TStop: 0, Step: 1e-12}); err == nil {
		t.Error("TStop=0 accepted")
	}
	if _, err := s.Transient(Options{TStop: 1e-9, Step: 0}); err == nil {
		t.Error("Step=0 accepted")
	}
	if _, err := (&Result{V: map[string][]float64{}}).Waveform("nope"); err == nil {
		t.Error("missing node accepted")
	}
}

func TestRecordNodesSubset(t *testing.T) {
	n := rcNet(1e3, 1e-12, wave.Step{At: 0, Low: 0, High: 1})
	s, _ := New(n, tech)
	res, err := s.Transient(Options{TStop: 1e-10, Step: 1e-12, RecordNodes: []string{"out"}, IC: map[string]float64{"out": 0}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.V["out"]; !ok {
		t.Error("out not recorded")
	}
	if _, ok := res.V["in"]; ok {
		t.Error("in recorded despite subset")
	}
}

func TestNewRejectsInvalidNetlist(t *testing.T) {
	n := &circuit.Netlist{}
	n.AddResistor("r", "a", "b", -1)
	if _, err := New(n, tech); err == nil {
		t.Error("invalid netlist accepted")
	}
}

func TestAdaptiveTransientMatchesFixed(t *testing.T) {
	in := wave.Step{At: 20e-12, Low: 0, High: tech.VDD}
	s, err := New(inverterNet(in, 20e-15), tech)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := s.Transient(Options{TStop: 2e-9, Step: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := New(inverterNet(in, 20e-15), tech)
	adaptive, err := s2.TransientAdaptive(AdaptiveOptions{TStop: 2e-9, LTETol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	wf, _ := fixed.Waveform("out")
	wa, _ := adaptive.Waveform("out")
	df, err := wave.Delay50(wf, 20e-12, tech.VDD, false)
	if err != nil {
		t.Fatal(err)
	}
	da, err := wave.Delay50(wa, 20e-12, tech.VDD, false)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(da-df) / df; e > 0.02 {
		t.Errorf("adaptive delay %g vs fixed %g (%.2f%%)", da, df, 100*e)
	}
	if adaptive.Stats.Steps >= fixed.Stats.Steps/3 {
		t.Errorf("adaptive used %d steps, fixed used %d — expected ≥3× fewer",
			adaptive.Stats.Steps, fixed.Stats.Steps)
	}
}

func TestAdaptiveRCAnalytic(t *testing.T) {
	const (
		R   = 1e3
		C   = 1e-12
		tau = R * C
	)
	n := rcNet(R, C, wave.Step{At: 0, Low: 0, High: 1})
	s, _ := New(n, tech)
	res, err := s.TransientAdaptive(AdaptiveOptions{
		TStop: 5 * tau, LTETol: 2e-4, IC: map[string]float64{"out": 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := res.Waveform("out")
	for _, tt := range []float64{0.5 * tau, tau, 2 * tau, 4 * tau} {
		want := 1 - math.Exp(-tt/tau)
		if got := w.Eval(tt); !feq(got, want, 8e-3) {
			t.Errorf("v(%g·tau) = %g, want %g", tt/tau, got, want)
		}
	}
	if _, err := s.TransientAdaptive(AdaptiveOptions{TStop: 0}); err == nil {
		t.Error("TStop=0 accepted")
	}
}
