package bench

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qwm/internal/mos"
	"qwm/internal/qwm"
	"qwm/internal/sc"
	"qwm/internal/spice"
	"qwm/internal/stages"
	"qwm/internal/wave"
)

// randomChain draws a random but well-posed discharge chain: 2–7 NMOS
// devices with random widths, optional wire, random fixed node caps and a
// random output load.
func randomChain(t testing.TB, r *rand.Rand) *qwm.Chain {
	h := getHarness(t)
	tbl, err := h.Lib.Table(mos.NMOS, h.Tech.LMin)
	if err != nil {
		t.Fatal(err)
	}
	k := 2 + r.Intn(6)
	ch := &qwm.Chain{Pol: mos.NMOS, VDD: h.Tech.VDD}
	for i := 0; i < k; i++ {
		var g wave.Waveform = wave.DC(h.Tech.VDD)
		if i == 0 {
			g = wave.Step{At: 0, Low: 0, High: h.Tech.VDD}
		}
		ch.Elems = append(ch.Elems, &qwm.Elem{
			Model: tbl,
			W:     (0.8 + 3*r.Float64()) * 1e-6,
			Gate:  g,
		})
		ch.Caps = append(ch.Caps, qwm.NodeCap{Fixed: (2 + 6*r.Float64()) * 1e-15})
		ch.V0 = append(ch.V0, h.Tech.VDD)
	}
	// Occasionally splice in a wire above the first device.
	if r.Intn(3) == 0 {
		wireElem := &qwm.Elem{R: 200 + 3e3*r.Float64()}
		ch.Elems = append(ch.Elems[:1], append([]*qwm.Elem{wireElem}, ch.Elems[1:]...)...)
		ch.Caps = append(ch.Caps[:1], append([]qwm.NodeCap{{Fixed: (1 + 3*r.Float64()) * 1e-15}}, ch.Caps[1:]...)...)
		ch.V0 = append(ch.V0, h.Tech.VDD)
	}
	// Heavier output load.
	ch.Caps[len(ch.Caps)-1].Fixed += 15e-15 * r.Float64()
	return ch
}

// Property: on random chains, QWM's 50 % delay agrees with an independent
// fine-step integration (successive chords) of the same chain within 4 %.
func TestQWMvsSCRandomChainsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ch := randomChain(t, r)
		qres, err := qwm.Evaluate(ch, qwm.Options{})
		if err != nil {
			t.Logf("seed %d: qwm: %v", seed, err)
			return false
		}
		dq, err := qres.Delay50(0, ch.VDD)
		if err != nil {
			return false
		}
		tstop := 20 * dq
		sres, err := sc.Evaluate(ch, sc.Options{Step: math.Max(dq/400, 0.1e-12), TStop: tstop})
		if err != nil {
			t.Logf("seed %d: sc: %v", seed, err)
			return false
		}
		ds, err := sc.Delay50(ch, sres, 0)
		if err != nil {
			return false
		}
		if e := math.Abs(dq-ds) / ds; e > 0.04 {
			t.Logf("seed %d: qwm %g vs sc %g (%.2f%%)", seed, dq, ds, 100*e)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Ramp inputs: QWM's bisection-based event location handles a finite input
// slew; the reference is the same chain integrated by SC, which shares the
// chain abstraction (so pull-up contention and Miller injection — absent
// from the chain model by the paper's assumptions — cancel out of the
// comparison).
func TestQWMRampInputVsSC(t *testing.T) {
	h := getHarness(t)
	tbl, err := h.Lib.Table(mos.NMOS, h.Tech.LMin)
	if err != nil {
		t.Fatal(err)
	}
	for _, slew := range []float64{20e-12, 60e-12, 120e-12} {
		ramp := wave.Ramp{T0: 0, T1: slew, Low: 0, High: h.Tech.VDD}
		ch := &qwm.Chain{
			Pol: mos.NMOS, VDD: h.Tech.VDD,
			Elems: []*qwm.Elem{
				{Model: tbl, W: 1.2e-6, Gate: ramp},
				{Model: tbl, W: 1.2e-6, Gate: wave.DC(h.Tech.VDD)},
				{Model: tbl, W: 1.2e-6, Gate: wave.DC(h.Tech.VDD)},
			},
			Caps: []qwm.NodeCap{{Fixed: 4e-15}, {Fixed: 4e-15}, {Fixed: 15e-15}},
			V0:   []float64{h.Tech.VDD, h.Tech.VDD, h.Tech.VDD},
		}
		qres, err := qwm.Evaluate(ch, qwm.Options{})
		if err != nil {
			t.Fatalf("slew %g: %v", slew, err)
		}
		dq, err := qres.Delay50(slew/2, h.Tech.VDD)
		if err != nil {
			t.Fatal(err)
		}
		sres, err := sc.Evaluate(ch, sc.Options{Step: 0.5e-12, TStop: 3e-9})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := sc.Delay50(ch, sres, slew/2)
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(dq-ds) / ds; e > 0.05 {
			t.Errorf("slew %gps: qwm %g vs sc %g (%.2f%%)", slew*1e12, dq, ds, 100*e)
		}
	}
}

// Natural precharge: instead of the idealized all-VDD initial condition,
// the internal stack nodes start at the DC operating point (≈ VDD − Vth,
// the source-follower limit) — so several upper transistors are already at
// their conduction edge at t = 0 and the QWM front must advance past them
// immediately. Both engines get the same DC-op initial condition.
func TestNaturalPrechargeInitialCondition(t *testing.T) {
	h := getHarness(t)
	w, err := stages.NAND(h.Tech, 3, 1e-6, 2e-6, 15e-15, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the idealized IC with the true DC operating point at t = 0
	// with the switching input held low: the PMOS holds the output at VDD
	// and the internal nodes settle where the NMOS above stops conducting.
	wLow, err := stages.NAND(h.Tech, 3, 1e-6, 2e-6, 15e-15, 1e-3 /* step far in the future */)
	if err != nil {
		t.Fatal(err)
	}
	simLow, err := spice.New(wLow.Netlist, h.Tech)
	if err != nil {
		t.Fatal(err)
	}
	op, err := simLow.DCOp(0)
	if err != nil {
		t.Fatal(err)
	}
	ic := map[string]float64{}
	for _, nd := range w.Path.InternalNodes() {
		ic[nd] = op[nd]
	}
	if ic["x1"] > h.Tech.VDD-0.3 {
		t.Fatalf("DC op did not show the source-follower drop: %v", ic)
	}
	w.IC = ic

	row, err := h.CompareRow(w, qwm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if row.ErrorPct > 3 {
		t.Errorf("natural precharge: delay error %.2f%%", row.ErrorPct)
	}
}

// A second technology node: the whole pipeline — characterization, chain
// building, QWM, the SPICE baseline — holds its accuracy at 0.18 µm/1.8 V,
// where velocity saturation is stronger and headroom smaller.
func TestSecondTechnologyNode(t *testing.T) {
	tech18 := mos.CMOSP18()
	h18, err := NewHarness(tech18)
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []func() (*stages.Workload, error){
		func() (*stages.Workload, error) { return stages.NAND(tech18, 3, 0.6e-6, 1.2e-6, 8e-15, 0) },
		func() (*stages.Workload, error) { return stages.RandomStack(tech18, 6, 11) },
		func() (*stages.Workload, error) { return stages.NOR(tech18, 2, 0.6e-6, 1.2e-6, 8e-15, 0) },
	} {
		w, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		row, err := h18.CompareRow(w, qwm.Options{})
		if err != nil {
			t.Fatalf("%s@0.18u: %v", w.Name, err)
		}
		if row.ErrorPct > 3 {
			t.Errorf("%s@0.18u: delay error %.2f%%", w.Name, row.ErrorPct)
		}
	}
}

// Mixed channel lengths on one path: the library characterizes one table
// per length and the engine consumes them side by side.
func TestMixedChannelLengths(t *testing.T) {
	h := getHarness(t)
	w, err := stages.Stack(h.Tech, []float64{1.5e-6, 1.5e-6, 1.5e-6}, 10e-15, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Lengthen the middle device.
	w.Netlist.Transistors[1].L = 0.5e-6
	w.Stage.Edges[1].L = 0.5e-6
	row, err := h.CompareRow(w, qwm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if row.ErrorPct > 3 {
		t.Errorf("mixed-L stack: delay error %.2f%%", row.ErrorPct)
	}
	// The longer channel must slow the stack versus the uniform one.
	base, err := stages.Stack(h.Tech, []float64{1.5e-6, 1.5e-6, 1.5e-6}, 10e-15, 0)
	if err != nil {
		t.Fatal(err)
	}
	rowBase, err := h.CompareRow(base, qwm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if row.QWMDelayPs <= rowBase.QWMDelayPs {
		t.Errorf("longer channel should slow the path: %g vs %g", row.QWMDelayPs, rowBase.QWMDelayPs)
	}
}

// Robustness: even with the joint Newton crippled to a single iteration,
// the bisection fallback delivers the same answer (slower).
func TestBisectionFallbackAccuracy(t *testing.T) {
	h := getHarness(t)
	w, err := stages.RandomStack(h.Tech, 5, 77)
	if err != nil {
		t.Fatal(err)
	}
	normal, err := h.RunQWM(w, qwm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	crippled, err := h.RunQWM(w, qwm.Options{MaxNR: 2})
	if err != nil {
		t.Fatal(err)
	}
	if e := wave.DelayErrorPct(crippled.Delay, normal.Delay); e > 1 {
		t.Errorf("fallback path delay differs by %.2f%%", e)
	}
	if crippled.NRIters <= normal.NRIters {
		t.Errorf("crippled Newton should burn more iterations: %d vs %d",
			crippled.NRIters, normal.NRIters)
	}
}
