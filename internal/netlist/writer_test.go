package netlist

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"qwm/internal/circuit"
	"qwm/internal/mos"
	"qwm/internal/wave"
)

func TestFormatValueRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1, -2.5, 1500, 2e6, 3e9, 15e-15, 10e-12, 3.3, 0.35e-6, 5e-3, 47e-9} {
		s := FormatValue(v)
		got, err := ParseValue(s)
		if err != nil {
			t.Fatalf("ParseValue(FormatValue(%g) = %q): %v", v, s, err)
		}
		if math.Abs(got-v) > 1e-6*math.Abs(v)+1e-30 {
			t.Errorf("round trip %g -> %q -> %g", v, s, got)
		}
	}
}

func TestFormatDeckRoundTrip(t *testing.T) {
	d, err := ParseString(nandDeck)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(d)
	d2, err := ParseString(text)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, text)
	}
	n1, n2 := d.Netlist, d2.Netlist
	if len(n1.Transistors) != len(n2.Transistors) ||
		len(n1.Resistors) != len(n2.Resistors) ||
		len(n1.Capacitors) != len(n2.Capacitors) ||
		len(n1.VSources) != len(n2.VSources) {
		t.Fatalf("element counts differ:\n%s", text)
	}
	for i := range n1.Transistors {
		a, b := n1.Transistors[i], n2.Transistors[i]
		if a.Drain != b.Drain || a.Gate != b.Gate || a.Source != b.Source ||
			a.Kind != b.Kind || math.Abs(a.W-b.W) > 1e-12 || math.Abs(a.L-b.L) > 1e-12 {
			t.Errorf("transistor %d differs: %+v vs %+v", i, a, b)
		}
	}
	if d2.TranStep != d.TranStep || d2.TranStop != d.TranStop {
		t.Errorf("tran params differ")
	}
	for k, v := range d.IC {
		if math.Abs(d2.IC[k]-v) > 1e-9 {
			t.Errorf("ic[%s] differs", k)
		}
	}
	// Source waveforms behave identically.
	for i := range n1.VSources {
		w1, w2 := n1.VSources[i].Wave, n2.VSources[i].Wave
		for _, tt := range []float64{0, 0.5e-12, 1e-12, 1e-9} {
			if math.Abs(w1.Eval(tt)-w2.Eval(tt)) > 1e-6 {
				t.Errorf("source %d differs at t=%g", i, tt)
			}
		}
	}
}

func TestFormatSourceKinds(t *testing.T) {
	d := &Deck{Netlist: &circuit.Netlist{}, IC: map[string]float64{}}
	d.Netlist.AddVSource("v1", "a", "0", wave.DC(3.3))
	d.Netlist.AddVSource("v2", "b", "0", wave.Step{At: 10e-12, Low: 0, High: 3.3})
	d.Netlist.AddVSource("v3", "c", "0", wave.Ramp{T0: 0, T1: 50e-12, Low: 3.3, High: 0})
	text := Format(d)
	if !strings.Contains(text, "DC 3.3") {
		t.Errorf("DC source missing:\n%s", text)
	}
	d2, err := ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	// The step becomes a steep PWL: value just after the edge is High.
	if got := d2.Netlist.VSources[1].Wave.Eval(11e-12); math.Abs(got-3.3) > 1e-9 {
		t.Errorf("step re-parse = %g", got)
	}
	// The ramp midpoint survives.
	if got := d2.Netlist.VSources[2].Wave.Eval(25e-12); math.Abs(got-1.65) > 1e-6 {
		t.Errorf("ramp re-parse = %g", got)
	}
}

// dcAt is a waveform type Format does not know: it renders as DC at t = 0.
type dcAt struct{}

func (dcAt) Eval(float64) float64     { return 1.25 }
func (dcAt) Span() (float64, float64) { return 0, 0 }

// Format writes with strconv into one buffer; the bytes must stay those of
// the fmt.Fprintf writer it replaced, pinned here for every card and source
// kind.
func TestFormatBytesPinned(t *testing.T) {
	n := &circuit.Netlist{}
	n.AddVSource("Vdd", "vdd", "0", wave.DC(3.3))
	n.AddVSource("Vs", "a", "0", wave.Step{At: 2e-12, Low: 0, High: 3.3})
	n.AddVSource("Vn", "b", "0", wave.Step{At: -1e-12, Low: 3.3, High: 0})
	n.AddVSource("Vr", "c", "0", wave.Ramp{T0: 1e-12, T1: 41e-12, Low: 0, High: 1.8})
	pwl, err := wave.NewPWL([]float64{0, 1e-12, 2.5e-9}, []float64{0, 3.3, -0.125})
	if err != nil {
		t.Fatal(err)
	}
	n.AddVSource("Vp", "d", "0", pwl)
	n.AddVSource("Vz", "e", "0", nil)
	n.AddVSource("Vq", "f", "0", dcAt{})
	n.AddTransistor(&circuit.Transistor{Name: "M1", Kind: circuit.KindNMOS, Drain: "x", Gate: "a", Source: "0", Body: "0", W: 1.2e-6, L: 0.35e-6})
	n.AddTransistor(&circuit.Transistor{Name: "MP2", Kind: circuit.KindPMOS, Drain: "x", Gate: "b", Source: "vdd", Body: "vdd", W: 2.4e-6, L: 0.35e-6,
		DrainJunc: mos.Junction{Area: 1.7e-12, Perim: 5.3e-6}, SourceJunc: mos.Junction{Area: 2e-12, Perim: 6e-6}})
	n.AddResistor("R1", "x", "y", 1234.5678)
	n.AddResistor("R2", "y", "z", 2.2e6)
	n.AddCapacitor("C1", "z", "0", 15e-15)
	n.AddCapacitor("C2", "y", "0", 1e-9)
	d := &Deck{Netlist: n, TranStep: 1e-12, TranStop: 2e-9, IC: map[string]float64{"z": 0, "y": 3.3, "x": 1.65}}
	want := "* untitled\nVdd vdd 0 DC 3.3\nVs a 0 PWL(2p 0 2.001p 3.3)\nVn b 0 PWL(0 3.3 1f 0)\nVr c 0 PWL(1p 0 41p 1.8)\nVp d 0 PWL(0 0 1p 3.3 2.5n -125m)\nVz e 0 DC 0\nVq f 0 DC 1.25\nM1 x a 0 0 NMOS W=1.2u L=350n\nMP2 x b vdd vdd PMOS W=2.4u L=350n AD=1.7p PD=5.3u AS=2p PS=6u\nR1 x y 1.23457k\nR2 y z 2.2meg\nC1 z 0 15f\nC2 y 0 1n\n.ic V(x)=1.65 V(y)=3.3 V(z)=0\n.tran 1p 2n\n.end\n"
	if got := Format(d); got != want {
		t.Errorf("Format:\n got %q\nwant %q", got, want)
	}
	nd, err := ParseString(nandDeck)
	if err != nil {
		t.Fatal(err)
	}
	want = "* 2-input NAND pull-down\nVdd vdd 0 DC 3.3\nVin in 0 PWL(0 0 1p 3.3)\nM1 x1 in 0 0 NMOS W=1u L=350n\nM2 out vdd x1 0 NMOS W=1u L=350n\nMP1 out in vdd vdd PMOS W=2u L=350n\nR1 out mid 1.5k\nC1 out 0 15f\n.ic V(out)=3.3 V(x1)=3.3\n.tran 1p 2n\n.end\n"
	if got := Format(nd); got != want {
		t.Errorf("Format(nand):\n got %q\nwant %q", got, want)
	}
}

// FormatValue must render every value as the fmt-based formatter it
// replaced did: the same scale per decade band and %.6g digits.
func TestFormatValueMatchesFmt(t *testing.T) {
	ref := func(v float64) string {
		abs := math.Abs(v)
		g := func(x float64) string { return fmt.Sprintf("%.6g", x) }
		switch {
		case v == 0:
			return "0"
		case abs >= 1e9:
			return g(v/1e9) + "g"
		case abs >= 1e6:
			return g(v/1e6) + "meg"
		case abs >= 1e3:
			return g(v/1e3) + "k"
		case abs >= 1:
			return g(v)
		case abs >= 1e-3:
			return g(v*1e3) + "m"
		case abs >= 1e-6:
			return g(v*1e6) + "u"
		case abs >= 1e-9:
			return g(v*1e9) + "n"
		case abs >= 1e-12:
			return g(v*1e12) + "p"
		default:
			return g(v*1e15) + "f"
		}
	}
	vals := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 5e-324, math.MaxFloat64, 999999.5e-3, 1e3, 999.9995}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		vals = append(vals, (rng.Float64()-0.5)*math.Pow(10, float64(rng.Intn(44)-22)))
	}
	for _, v := range vals {
		if got, want := FormatValue(v), ref(v); got != want {
			t.Fatalf("FormatValue(%g) = %q, fmt reference %q", v, got, want)
		}
	}
}
