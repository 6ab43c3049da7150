package bench

import (
	"math"
	"sync"
	"testing"

	"qwm/internal/mos"
	"qwm/internal/qwm"
	"qwm/internal/stages"
	"qwm/internal/wave"
)

var (
	harnessOnce sync.Once
	harness     *Harness
	harnessErr  error
)

func getHarness(t testing.TB) *Harness {
	harnessOnce.Do(func() {
		harness, harnessErr = NewHarness(mos.CMOSP35())
	})
	if harnessErr != nil {
		t.Fatal(harnessErr)
	}
	return harness
}

// Table I shape: QWM vs the baseline on minimum-size gates, error ≤ ~3 %
// (the paper reports ~1.1 % average on gates, 3.66 % worst on stacks).
func TestAccuracyGates(t *testing.T) {
	h := getHarness(t)
	gates, err := stages.TableI(h.Tech)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, w := range gates {
		row, err := h.CompareRow(w, qwm.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		sum += row.ErrorPct
		if row.ErrorPct > 3.0 {
			t.Errorf("%s: delay error %.2f%% exceeds 3%%", w.Name, row.ErrorPct)
		}
		if row.Speedup1 < 10 {
			t.Errorf("%s: speed-up over 1 ps SPICE only %.1f×", w.Name, row.Speedup1)
		}
	}
	if avg := sum / float64(len(gates)); avg > 1.5 {
		t.Errorf("average gate error %.2f%%, want ≤ 1.5%%", avg)
	}
}

// Table II shape: random stacks of growing depth; error stays in the
// paper's band and the speed-up is large.
func TestAccuracyRandomStacks(t *testing.T) {
	h := getHarness(t)
	worst, sum, n := 0.0, 0.0, 0
	for _, k := range []int{5, 6, 8, 10} {
		w, err := stages.RandomStack(h.Tech, k, int64(k)*7+1)
		if err != nil {
			t.Fatal(err)
		}
		row, err := h.CompareRow(w, qwm.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		sum += row.ErrorPct
		n++
		if row.ErrorPct > worst {
			worst = row.ErrorPct
		}
	}
	if worst > 4.0 {
		t.Errorf("worst stack error %.2f%% exceeds the paper's 3.66%% band (+ margin)", worst)
	}
	if avg := sum / float64(n); avg > 2.0 {
		t.Errorf("average stack error %.2f%%", avg)
	}
}

// TestExplicitJunctionStacks: a device's own junction geometry (AD/PD,
// AS/PS) is part of the parasitics QWM charges each node with. Stacks whose
// drain and source junctions are four times the W-derived default must
// still match 1 ps SPICE, which reads the same geometry, within the paper's
// worst Table II error; with default junctions the same stacks time 30–55 %
// faster, so a dropped junction fails.
func TestExplicitJunctionStacks(t *testing.T) {
	h := getHarness(t)
	for _, k := range []int{1, 3, 5} {
		widths := make([]float64, k)
		for i := range widths {
			widths[i] = 2e-6
		}
		w, err := stages.Stack(h.Tech, widths, 10e-15, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range w.Netlist.Transistors {
			j := h.Tech.N.DefaultJunction(d.W)
			d.DrainJunc = mos.Junction{Area: 4 * j.Area, Perim: 4 * j.Perim}
			d.SourceJunc = d.DrainJunc
		}
		q, err := h.RunQWM(w, qwm.Options{})
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		s, err := h.RunSpice(w, 1e-12)
		if err != nil {
			t.Fatalf("K=%d: %v", k, err)
		}
		if e := wave.DelayErrorPct(q.Delay, s.Delay); e > 3.66 {
			t.Errorf("K=%d: QWM %.2f ps vs SPICE %.2f ps: error %.2f%% exceeds 3.66%%", k, q.Delay*1e12, s.Delay*1e12, e)
		}
	}
}

func TestTableVsAnalyticAblation(t *testing.T) {
	h := getHarness(t)
	w, err := stages.RandomStack(h.Tech, 6, 99)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := h.RunQWM(w, qwm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ana, err := h.RunQWMAnalytic(w, qwm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e := wave.DelayErrorPct(tab.Delay, ana.Delay); e > 2.5 {
		t.Errorf("table vs analytic delay differ by %.2f%%", e)
	}
}

func TestSpiceStepSizesAgree(t *testing.T) {
	h := getHarness(t)
	w, err := stages.NAND(h.Tech, 3, 1e-6, 2e-6, 12e-15, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := h.RunSpice(w, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	r10, err := h.RunSpice(w, 10e-12)
	if err != nil {
		t.Fatal(err)
	}
	// 10 ps steps resolve a ~170 ps delay with only ~17 points; a few
	// percent of discretization error is expected (the paper's two Hspice
	// columns differ too).
	if e := wave.DelayErrorPct(r10.Delay, r1.Delay); e > 5 {
		t.Errorf("10 ps vs 1 ps delays differ by %.2f%%", e)
	}
	if r10.Runtime >= r1.Runtime {
		t.Error("10 ps run should be faster than 1 ps")
	}
}

func TestQWMFasterThanCoarseSpice(t *testing.T) {
	h := getHarness(t)
	w, err := stages.RandomStack(h.Tech, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	q, err := h.RunQWM(w, qwm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := h.RunSpice(w, 10e-12)
	if err != nil {
		t.Fatal(err)
	}
	if q.Runtime >= s.Runtime {
		t.Errorf("QWM (%v) not faster than 10 ps SPICE (%v)", q.Runtime, s.Runtime)
	}
	if q.Steps >= s.Steps {
		t.Errorf("QWM regions (%d) should be far fewer than SPICE steps (%d)", q.Steps, s.Steps)
	}
}

// The speed-up should grow (roughly) with the simulated span per region —
// longer stacks take longer transients for SPICE but only more small
// regions for QWM.
func TestWorkScalingShape(t *testing.T) {
	h := getHarness(t)
	work := func(k int) (qwmNR, spiceNR int) {
		w, err := stages.Stack(h.Tech, widths(k, 1.5e-6), 10e-15, 0)
		if err != nil {
			t.Fatal(err)
		}
		q, err := h.RunQWM(w, qwm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, err := h.RunSpice(w, 10e-12)
		if err != nil {
			t.Fatal(err)
		}
		return q.NRIters, s.NRIters
	}
	q5, s5 := work(5)
	q10, s10 := work(10)
	if !(float64(s10)/float64(q10) > 0.5*float64(s5)/float64(q5)) {
		t.Errorf("work ratio collapsed: K=5 %d/%d, K=10 %d/%d", s5, q5, s10, q10)
	}
	if math.MaxInt == 0 {
		t.Fatal("unreachable")
	}
}

func widths(k int, w float64) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = w
	}
	return out
}

func TestSlewAgreement(t *testing.T) {
	h := getHarness(t)
	w, err := stages.NAND(h.Tech, 2, 1e-6, 2e-6, 15e-15, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, err := h.RunQWM(w, qwm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := h.RunSpice(w, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if q.Slew <= 0 || s.Slew <= 0 {
		t.Fatalf("slew unavailable: qwm %g spice %g", q.Slew, s.Slew)
	}
	if e := wave.DelayErrorPct(q.Slew, s.Slew); e > 12 {
		t.Errorf("slew error %.2f%% too large (qwm %g vs spice %g)", e, q.Slew, s.Slew)
	}
}

// Fig. 10 shape: the decoder tree with AWE π-modeled wires still evaluates
// accurately and much faster than the 1 ps baseline. The paper reports a
// lower accuracy here (96.44 %) than on plain stacks; we require ≤ 3.5 %
// error.
func TestDecoderTreeAccuracy(t *testing.T) {
	h := getHarness(t)
	for _, lv := range []int{3, 4} {
		w, err := stages.DecoderTree(h.Tech, lv, 2e-6, 50e-6, 20e-15, 0)
		if err != nil {
			t.Fatal(err)
		}
		row, err := h.CompareRow(w, qwm.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if row.ErrorPct > 3.5 {
			t.Errorf("%s: error %.2f%%", row.Name, row.ErrorPct)
		}
		if row.Speedup1 < 5 {
			t.Errorf("%s: speed-up %.1f×", row.Name, row.Speedup1)
		}
	}
}

// The full Manchester carry chain (Fig. 2) and the pass-gate stage (Fig. 1)
// evaluate accurately end to end: the off generate/precharge devices load
// the carry nodes but carry no current, exactly the stage abstraction the
// paper builds on.
func TestManchesterAndPassGateAccuracy(t *testing.T) {
	h := getHarness(t)
	man, err := stages.ManchesterChain(h.Tech, 5, 2e-6, 2e-6, 12e-15, 0)
	if err != nil {
		t.Fatal(err)
	}
	pass, err := stages.PassGateStage(h.Tech, 1e-6, 2e-6, 10e-15, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*stages.Workload{man, pass} {
		row, err := h.CompareRow(w, qwm.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if row.ErrorPct > 3 {
			t.Errorf("%s: delay error %.2f%%", w.Name, row.ErrorPct)
		}
		if row.Speedup1 < 10 {
			t.Errorf("%s: speedup %.1f", w.Name, row.Speedup1)
		}
	}
}

// The PMOS pull-up direction end to end: a NOR's rising output, evaluated
// in folded coordinates, tracks the SPICE baseline like the pull-down
// cases do.
func TestNORRisingAccuracy(t *testing.T) {
	h := getHarness(t)
	for _, nIn := range []int{2, 3} {
		w, err := stages.NOR(h.Tech, nIn, 1e-6, 2e-6, 15e-15, 0)
		if err != nil {
			t.Fatal(err)
		}
		row, err := h.CompareRow(w, qwm.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if row.ErrorPct > 3 {
			t.Errorf("%s: delay error %.2f%%", w.Name, row.ErrorPct)
		}
	}
}

// Ablation of the "art part" (§IV-A): waveform-model family × region
// scheme. Finding (recorded in EXPERIMENTS.md): on 50 % DELAY under the
// plain scheme both models stay inside the paper's accuracy band — the
// end-matched linear model behaves like backward Euler and is surprisingly
// competitive — but on WAVEFORM shape (RMS against the SPICE reference)
// the quadratic model is consistently better, which is what "waveform
// evaluation computes richer information than delay" (§III-C) needs.
func TestLinearVsQuadraticWaveformAblation(t *testing.T) {
	h := getHarness(t)
	quadBetterRMS := 0
	n := 0
	for _, k := range []int{3, 5, 7} {
		w, err := stages.RandomStack(h.Tech, k, int64(k)+500)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := h.RunSpice(w, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		rms := func(opts qwm.Options) (float64, float64) {
			run, err := h.RunQWM(w, opts)
			if err != nil {
				t.Fatal(err)
			}
			_, tEnd := run.Output.Span()
			return wave.RMSDiff(run.Output, ref.Output, 0, tEnd, 400),
				wave.DelayErrorPct(run.Delay, ref.Delay)
		}
		rmsQuad, errQuad := rms(qwm.Options{NoSubdivision: true})
		rmsLin, errLin := rms(qwm.Options{NoSubdivision: true, LinearWaveform: true})
		n++
		if rmsQuad < rmsLin {
			quadBetterRMS++
		}
		t.Logf("K=%d plain: quad rms %.1f mV / err %.2f%%; lin rms %.1f mV / err %.2f%%",
			k, rmsQuad*1e3, errQuad, rmsLin*1e3, errLin)
		if errQuad > 8 || errLin > 8 {
			t.Errorf("K=%d: plain-scheme delay errors out of band: %.2f%% / %.2f%%", k, errQuad, errLin)
		}
		// With subdivision, both models stay tight on delay.
		if _, errRef := rms(qwm.Options{LinearWaveform: true}); errRef > 5 {
			t.Errorf("K=%d: refined linear model error %.2f%%", k, errRef)
		}
	}
	if quadBetterRMS < n {
		t.Errorf("quadratic waveform should track SPICE better in RMS on all workloads (%d/%d)",
			quadBetterRMS, n)
	}
}

// The decoder with its unselected forks attached (Fig. 3's real layout):
// SPICE sees the full branch RC + off device; QWM sees the branch reduced
// to a lumped load at the junction. The lumped STA treatment must stay
// accurate.
func TestDecoderWithBranchesAccuracy(t *testing.T) {
	h := getHarness(t)
	w, err := stages.DecoderTreeWithBranches(h.Tech, 3, 2e-6, 50e-6, 20e-15, 0)
	if err != nil {
		t.Fatal(err)
	}
	row, err := h.CompareRow(w, qwm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if row.ErrorPct > 3.5 {
		t.Errorf("branched decoder error %.2f%%", row.ErrorPct)
	}
	// Branch loading must slow the path versus the bare tree.
	bare, err := stages.DecoderTree(h.Tech, 3, 2e-6, 50e-6, 20e-15, 0)
	if err != nil {
		t.Fatal(err)
	}
	rowBare, err := h.CompareRow(bare, qwm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if row.RefDelayPs <= rowBare.RefDelayPs {
		t.Errorf("branches should slow the decoder: %g vs %g ps", row.RefDelayPs, rowBare.RefDelayPs)
	}
}
