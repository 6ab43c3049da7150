package qwm

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/wave"
)

var (
	tech    = mos.CMOSP35()
	testLib = devmodel.NewLibrary(tech)
)

func nmosTable(t testing.TB) *devmodel.Table {
	tbl, err := testLib.Table(mos.NMOS, tech.LMin)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func pmosTable(t testing.TB) *devmodel.Table {
	tbl, err := testLib.Table(mos.PMOS, tech.LMin)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// fixedStack builds a K-stack chain with constant node caps, bottom gate
// stepping at `at`.
func fixedStack(t testing.TB, k int, w, cl, at float64) *Chain {
	tbl := nmosTable(t)
	ch := &Chain{Pol: mos.NMOS, VDD: tech.VDD}
	for i := 0; i < k; i++ {
		var g wave.Waveform = wave.DC(tech.VDD)
		if i == 0 {
			g = wave.Step{At: at, Low: 0, High: tech.VDD}
		}
		ch.Elems = append(ch.Elems, &Elem{Model: tbl, W: w, Gate: g})
		ch.Caps = append(ch.Caps, NodeCap{Fixed: cl})
		ch.V0 = append(ch.V0, tech.VDD)
	}
	return ch
}

func feq(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }

func TestChainValidate(t *testing.T) {
	tbl := nmosTable(t)
	good := fixedStack(t, 2, 1e-6, 5e-15, 0)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Chain)
	}{
		{"empty", func(c *Chain) { c.Elems = nil; c.Caps = nil; c.V0 = nil }},
		{"lenMismatch", func(c *Chain) { c.Caps = c.Caps[:1] }},
		{"zeroVDD", func(c *Chain) { c.VDD = 0 }},
		{"zeroWidth", func(c *Chain) { c.Elems[0].W = 0 }},
		{"noGate", func(c *Chain) { c.Elems[1].Gate = nil }},
		{"badWire", func(c *Chain) { c.Elems[0] = &Elem{R: -5} }},
		{"zeroCap", func(c *Chain) { c.Caps[0] = NodeCap{} }},
		{"allWires", func(c *Chain) {
			for i := range c.Elems {
				c.Elems[i] = &Elem{R: 100}
			}
		}},
	}
	for _, c := range cases {
		ch := fixedStack(t, 2, 1e-6, 5e-15, 0)
		c.mut(ch)
		if err := ch.Validate(); err == nil {
			t.Errorf("%s: invalid chain accepted", c.name)
		}
		_ = tbl
	}
}

func TestEvaluateStackBasics(t *testing.T) {
	ch := fixedStack(t, 3, 1e-6, 5e-15, 0)
	res, err := Evaluate(ch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Regions < 3 {
		t.Errorf("expected at least K regions, got %d", res.Stats.Regions)
	}
	// Output monotone non-increasing at sampled points (discharge).
	prev := math.Inf(1)
	t0, t1 := res.Output.Span()
	for i := 0; i <= 100; i++ {
		tt := t0 + (t1-t0)*float64(i)/100
		v := res.Output.Eval(tt)
		if v > prev+1e-6 {
			t.Fatalf("output not monotone at t=%g: %g > %g", tt, v, prev)
		}
		prev = v
	}
	// Final value at or below 8 % of VDD.
	if end := res.Output.Eval(t1); end > 0.085*tech.VDD {
		t.Errorf("output tail = %g, want ≤ 8%% of VDD", end)
	}
	// Critical times strictly increasing.
	for i := 1; i < len(res.CriticalTimes); i++ {
		if res.CriticalTimes[i] <= res.CriticalTimes[i-1] {
			t.Fatalf("critical times not increasing: %v", res.CriticalTimes)
		}
	}
	d, err := res.Delay50(0, tech.VDD)
	if err != nil || d <= 0 {
		t.Errorf("delay = %g, err = %v", d, err)
	}
}

func TestEvaluateTurnOnOrder(t *testing.T) {
	// The discharge wavefront propagates upward: node k's 50 % crossing
	// happens no later than node k+1's.
	ch := fixedStack(t, 5, 1.2e-6, 6e-15, 0)
	res, err := Evaluate(ch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for k, nw := range res.Nodes {
		tc, ok := nw.Crossing(tech.VDD/2, false)
		if !ok {
			t.Fatalf("node %d never crossed 50%%", k+1)
		}
		if tc < prev {
			t.Fatalf("node %d crossed before node %d", k+1, k)
		}
		prev = tc
	}
}

func TestEvaluateDelayedInputGateWait(t *testing.T) {
	at := 100e-12
	ch := fixedStack(t, 2, 1e-6, 5e-15, at)
	res, err := Evaluate(ch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing moves before the input rises.
	if v := res.Output.Eval(at / 2); !feq(v, tech.VDD, 1e-9) {
		t.Errorf("output moved before the input: %g", v)
	}
	d, err := res.Delay50(at, tech.VDD)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Evaluate(fixedStack(t, 2, 1e-6, 5e-15, 0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	d0, _ := ref.Delay50(0, tech.VDD)
	if !feq(d, d0, 0.02) {
		t.Errorf("delay should be invariant to input shift: %g vs %g", d, d0)
	}
}

func TestEvaluateDenseLUMatchesTridiagonal(t *testing.T) {
	ch := fixedStack(t, 6, 1.5e-6, 8e-15, 0)
	fast, err := Evaluate(ch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Evaluate(ch, Options{UseDenseLU: true})
	if err != nil {
		t.Fatal(err)
	}
	df, _ := fast.Delay50(0, tech.VDD)
	ds, _ := slow.Delay50(0, tech.VDD)
	if !feq(df, ds, 1e-4) {
		t.Errorf("LU ablation changed the answer: %g vs %g", df, ds)
	}
}

func TestEvaluateWiderIsFaster(t *testing.T) {
	d := func(w float64) float64 {
		res, err := Evaluate(fixedStack(t, 3, w, 10e-15, 0), Options{})
		if err != nil {
			t.Fatal(err)
		}
		dd, err := res.Delay50(0, tech.VDD)
		if err != nil {
			t.Fatal(err)
		}
		return dd
	}
	if d(2e-6) >= d(1e-6) {
		t.Error("doubling width should reduce delay")
	}
}

func TestEvaluateMoreLoadIsSlower(t *testing.T) {
	d := func(cl float64) float64 {
		res, err := Evaluate(fixedStack(t, 3, 1e-6, cl, 0), Options{})
		if err != nil {
			t.Fatal(err)
		}
		dd, _ := res.Delay50(0, tech.VDD)
		return dd
	}
	if d(20e-15) <= d(5e-15) {
		t.Error("larger load should increase delay")
	}
}

func TestEvaluateLongerStackIsSlower(t *testing.T) {
	d := func(k int) float64 {
		res, err := Evaluate(fixedStack(t, k, 1e-6, 8e-15, 0), Options{})
		if err != nil {
			t.Fatal(err)
		}
		dd, _ := res.Delay50(0, tech.VDD)
		return dd
	}
	d3, d6, d9 := d(3), d(6), d(9)
	if !(d3 < d6 && d6 < d9) {
		t.Errorf("delay should grow with stack depth: %g, %g, %g", d3, d6, d9)
	}
}

func TestEvaluatePMOSChargeChain(t *testing.T) {
	// A 2-PMOS pull-up chain: output charges from 0 toward VDD.
	tbl := pmosTable(t)
	gate := wave.Step{At: 0, Low: tech.VDD, High: 0} // falls to turn PMOS on
	hi := wave.DC(0)
	ch := &Chain{
		Pol: mos.PMOS, VDD: tech.VDD,
		Elems: []*Elem{
			{Model: tbl, W: 2e-6, Gate: FoldWave{W: gate, VDD: tech.VDD}},
			{Model: tbl, W: 2e-6, Gate: FoldWave{W: hi, VDD: tech.VDD}},
		},
		Caps: []NodeCap{{Fixed: 6e-15}, {Fixed: 6e-15}},
		V0:   []float64{tech.VDD, tech.VDD}, // folded: unfolded 0 V (discharged)
	}
	res, err := Evaluate(ch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Unfolded output must RISE from 0 toward VDD.
	if v0 := res.Output.Eval(0); !feq(v0, 0, 1e-9) {
		t.Errorf("initial output = %g, want 0", v0)
	}
	_, t1 := res.Output.Span()
	if vEnd := res.Output.Eval(t1); vEnd < 0.9*tech.VDD {
		t.Errorf("final output = %g, want ≥ 90%% VDD", vEnd)
	}
	d, err := res.Delay50(0, tech.VDD)
	if err != nil || d <= 0 {
		t.Errorf("charge delay = %g, err = %v", d, err)
	}
}

func TestEvaluateChainWithWire(t *testing.T) {
	tbl := nmosTable(t)
	step := wave.Step{At: 0, Low: 0, High: tech.VDD}
	hi := wave.DC(tech.VDD)
	mk := func(g wave.Waveform) *Elem { return &Elem{Model: tbl, W: 1.5e-6, Gate: g} }
	base := &Chain{
		Pol: mos.NMOS, VDD: tech.VDD,
		Elems: []*Elem{mk(step), mk(hi)},
		Caps:  []NodeCap{{Fixed: 5e-15}, {Fixed: 10e-15}},
		V0:    []float64{tech.VDD, tech.VDD},
	}
	rb, err := Evaluate(base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, _ := rb.Delay50(0, tech.VDD)

	wired := &Chain{
		Pol: mos.NMOS, VDD: tech.VDD,
		Elems: []*Elem{mk(step), {R: 2e3}, mk(hi)},
		Caps:  []NodeCap{{Fixed: 5e-15}, {Fixed: 2e-15}, {Fixed: 10e-15}},
		V0:    []float64{tech.VDD, tech.VDD, tech.VDD},
	}
	rw, err := Evaluate(wired, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dw, _ := rw.Delay50(0, tech.VDD)
	if dw <= db {
		t.Errorf("adding a 2 kΩ wire should slow the path: %g vs %g", dw, db)
	}
}

func TestEvaluateFreezeCapsStillWorks(t *testing.T) {
	ch := fixedStack(t, 4, 1e-6, 7e-15, 0)
	res, err := Evaluate(ch, Options{FreezeCaps: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Delay50(0, tech.VDD); err != nil {
		t.Fatal(err)
	}
}

func TestFoldWaveAndUnfold(t *testing.T) {
	f := FoldWave{W: wave.DC(1.2), VDD: 3.3}
	if !feq(f.Eval(0), 2.1, 1e-12) {
		t.Errorf("FoldWave eval = %g", f.Eval(0))
	}
	p := &wave.PWQ{}
	_ = p.Append(wave.QuadSeg{T0: 0, T1: 1, V0: 3.3, S: -1, A: 0.5})
	u := unfoldAll([]*wave.PWQ{p}, 3.3, mos.PMOS)[0]
	if !feq(u.Eval(0), 0, 1e-12) || !feq(u.Eval(0.5), 3.3-p.Eval(0.5), 1e-12) {
		t.Errorf("unfoldAll wrong: %g, %g", u.Eval(0), u.Eval(0.5))
	}
	same := unfoldAll([]*wave.PWQ{p}, 3.3, mos.NMOS)[0]
	if same != p {
		t.Error("NMOS unfold should be identity")
	}
}

func TestEvaluateInputNeverRises(t *testing.T) {
	ch := fixedStack(t, 2, 1e-6, 5e-15, 0)
	ch.Elems[0].Gate = wave.DC(0) // bottom gate stuck low
	_, err := Evaluate(ch, Options{Horizon: 1e-9})
	if err == nil {
		t.Fatal("expected an error when the input never turns on")
	}
}

func TestNodeCapSecantMatchesConstant(t *testing.T) {
	nc := NodeCap{Fixed: 7e-15}
	_, q1 := nc.CQ(3.3, 3.3, mos.NMOS)
	if !feq(nc.Secant(3.3, q1, 1.0, 3.3, mos.NMOS), 7e-15, 1e-12) {
		t.Error("secant of a fixed cap should be the fixed cap")
	}
	// With a junction, the secant between two voltages lies between the
	// endpoint small-signal capacitances.
	j := tech.N.DefaultJunction(2e-6)
	ncj := NodeCap{Junctions: []JunctionAt{{P: &tech.N, J: j}}}
	cHi, qHi := ncj.CQ(3.3, 3.3, mos.NMOS)
	cLo := ncj.At(0.5, 3.3, mos.NMOS)
	sec := ncj.Secant(3.3, qHi, 0.5, 3.3, mos.NMOS)
	if !(sec > cHi && sec < cLo) {
		t.Errorf("secant %g should lie between %g and %g", sec, cHi, cLo)
	}
}

// A junction's reverse bias follows its own polarity, not the chain's: an
// NMOS diffusion (to ground) is small at a high node, a PMOS diffusion (to
// the VDD well) is small at a low node, whichever polarity the chain folds.
func TestNodeCapJunctionPolarity(t *testing.T) {
	const vdd = 3.3
	n := NodeCap{Junctions: []JunctionAt{{P: &tech.N, J: tech.N.DefaultJunction(1e-6)}}}
	p := NodeCap{Junctions: []JunctionAt{{P: &tech.P, J: tech.P.DefaultJunction(1e-6)}}}
	for _, pol := range []mos.Polarity{mos.NMOS, mos.PMOS} {
		// Folded voltages of the unfolded node levels 3.3 V and 0 V.
		hi, lo := unfold(vdd, vdd, pol), unfold(0, vdd, pol)
		if nHi, nLo := n.At(hi, vdd, pol), n.At(lo, vdd, pol); nHi >= nLo {
			t.Errorf("chain %v: NMOS junction C(3.3 V) = %g not below C(0 V) = %g", pol, nHi, nLo)
		}
		if pHi, pLo := p.At(hi, vdd, pol), p.At(lo, vdd, pol); pLo >= pHi {
			t.Errorf("chain %v: PMOS junction C(0 V) = %g not below C(3.3 V) = %g", pol, pLo, pHi)
		}
	}
}

// The oriented node charge must make the one-difference secant equal the
// per-junction sum Σ|ΔQ_j/Δvr_j| for junctions of both polarities on
// chains of both polarities (each junction's reverse bias moves with or
// against the folded voltage).
func TestNodeCapSecantOrientedCharge(t *testing.T) {
	const vdd = 3.3
	nc := NodeCap{Fixed: 2e-15, Junctions: []JunctionAt{
		{P: &tech.N, J: tech.N.DefaultJunction(1e-6)},
		{P: &tech.P, J: tech.P.DefaultJunction(3e-6)},
	}}
	for _, pol := range []mos.Polarity{mos.NMOS, mos.PMOS} {
		for _, ex := range [][2]float64{{3.3, 2.1}, {1.7, 0.2}, {0.4, 1.9}, {3.3, -0.6}} {
			v1, v2 := ex[0], ex[1]
			want := nc.Fixed
			for _, ja := range nc.Junctions {
				r1 := reverseBias(ja.P, unfold(v1, vdd, pol), vdd)
				r2 := reverseBias(ja.P, unfold(v2, vdd, pol), vdd)
				want += math.Abs((ja.P.JunctionCharge(ja.J, r2) - ja.P.JunctionCharge(ja.J, r1)) / (r2 - r1))
			}
			_, q1 := nc.CQ(v1, vdd, pol)
			if got := nc.Secant(v1, q1, v2, vdd, pol); math.Abs(got-want) > 1e-12*want {
				t.Errorf("pol %v %g→%g V: secant %.17g, per-junction sum %.17g", pol, v1, v2, got, want)
			}
		}
	}
}

func TestEvaluateRegionLimit(t *testing.T) {
	ch := fixedStack(t, 4, 1e-6, 7e-15, 0)
	if _, err := Evaluate(ch, Options{MaxRegions: 2}); err == nil {
		t.Fatal("expected region-limit error")
	}
}

// TestEvaluateEventSink replaces the old printf-Trace test: the structured
// sink must receive exactly one Event per committed region, with
// monotonically increasing region indices and end times, and the event mix
// must include the turn-on and crossing kinds a 2-stack always produces.
func TestEvaluateEventSink(t *testing.T) {
	ch := fixedStack(t, 2, 1e-6, 5e-15, 0)
	var events []Event
	res, err := Evaluate(ch, Options{Events: EventFunc(func(ev Event) { events = append(events, ev) })})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("event sink never fired")
	}
	if len(events) != res.Stats.Regions {
		t.Errorf("sink saw %d events, result reports %d regions", len(events), res.Stats.Regions)
	}
	kinds := map[EventKind]int{}
	for i, ev := range events {
		if ev.Region != i {
			t.Errorf("event %d carries region index %d", i, ev.Region)
		}
		if i > 0 && ev.Tau <= events[i-1].Tau {
			t.Errorf("event %d: τ'=%g not after previous %g", i, ev.Tau, events[i-1].Tau)
		}
		kinds[ev.Kind]++
	}
	if kinds[RegionTurnOn] == 0 || kinds[RegionCross] == 0 {
		t.Errorf("expected both turn-on and cross events, got %v", kinds)
	}
}

// TestPrintfSinkFormats: the adapter renders each event kind to a line, and
// a zero-value sink drops events instead of panicking.
func TestPrintfSinkFormats(t *testing.T) {
	var lines []string
	s := PrintfSink{Printf: func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}}
	s.Region(Event{Region: 0, Kind: RegionTurnOn, Elem: 2, Tau: 3e-12})
	s.Region(Event{Region: 1, Kind: RegionCross, Target: 1.65, Tau: 5e-12})
	s.Region(Event{Region: 2, Kind: RegionTimeCap, Tau: 7e-12, Pending: "turn-on[3]"})
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3", len(lines))
	}
	for i, want := range []string{"turn-on elem 2", "cross 1.65 V", "(turn-on[3] pending)"} {
		if !strings.Contains(lines[i], want) {
			t.Errorf("line %d = %q, want it to contain %q", i, lines[i], want)
		}
	}
	PrintfSink{}.Region(Event{}) // nil Printf: drop, don't panic
}

// TestEvaluateStats checks the Stats accounting: Newton iterations are
// non-zero, the default (secant-capacitance) mode records its re-solves,
// FreezeCaps records none, and the dense-LU ablation routes every iteration
// through the dense path.
func TestEvaluateStats(t *testing.T) {
	ch := fixedStack(t, 3, 1e-6, 6e-15, 0)
	res, err := Evaluate(ch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Regions == 0 || st.NRIters == 0 {
		t.Fatalf("stats not counted: %+v", st)
	}
	if st.CapResolves == 0 {
		t.Error("default mode performed no secant-capacitance re-solves")
	}

	frozen, err := Evaluate(fixedStack(t, 3, 1e-6, 6e-15, 0), Options{FreezeCaps: true})
	if err != nil {
		t.Fatal(err)
	}
	if frozen.Stats.CapResolves != 0 {
		t.Errorf("FreezeCaps recorded %d cap re-solves, want 0", frozen.Stats.CapResolves)
	}

	dense, err := Evaluate(fixedStack(t, 3, 1e-6, 6e-15, 0), Options{UseDenseLU: true})
	if err != nil {
		t.Fatal(err)
	}
	if dense.Stats.DenseFallbacks == 0 {
		t.Error("UseDenseLU recorded no dense solves")
	}
}

func TestEvaluateNoSubdivisionStillWorks(t *testing.T) {
	ch := fixedStack(t, 4, 1e-6, 7e-15, 0)
	plain, err := Evaluate(ch, Options{NoSubdivision: true})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := Evaluate(ch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.Regions >= refined.Stats.Regions {
		t.Errorf("plain scheme should use fewer regions: %d vs %d", plain.Stats.Regions, refined.Stats.Regions)
	}
	dp, _ := plain.Delay50(0, tech.VDD)
	dr, _ := refined.Delay50(0, tech.VDD)
	if math.Abs(dp-dr)/dr > 0.10 {
		t.Errorf("plain vs refined delays too far apart: %g vs %g", dp, dr)
	}
}

func TestEvaluateLinearWaveformMode(t *testing.T) {
	ch := fixedStack(t, 3, 1e-6, 6e-15, 0)
	lin, err := Evaluate(ch, Options{LinearWaveform: true})
	if err != nil {
		t.Fatal(err)
	}
	quad, err := Evaluate(ch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dl, err := lin.Delay50(0, tech.VDD)
	if err != nil {
		t.Fatal(err)
	}
	dq, _ := quad.Delay50(0, tech.VDD)
	if math.Abs(dl-dq)/dq > 0.06 {
		t.Errorf("linear vs quadratic delays diverge: %g vs %g", dl, dq)
	}
	// The linear model's segments are genuinely linear (A = 0).
	for _, seg := range lin.Folded[len(lin.Folded)-1].Segs {
		if seg.A != 0 {
			t.Fatalf("linear mode emitted a curved segment: %+v", seg)
		}
	}
}
