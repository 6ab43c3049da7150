package wave

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQuadSegEnds(t *testing.T) {
	s := QuadSeg{T0: 0, T1: 2, V0: 1, S: 3, A: -1}
	// V(2) = 1 + 3·2 − 0.5·1·4 = 5
	if !feq(s.EndValue(), 5, 1e-12) {
		t.Errorf("EndValue = %g, want 5", s.EndValue())
	}
	// V'(2) = 3 − 2 = 1
	if !feq(s.EndSlope(), 1, 1e-12) {
		t.Errorf("EndSlope = %g, want 1", s.EndSlope())
	}
}

func TestPWQAppendValidation(t *testing.T) {
	p := &PWQ{}
	if err := p.Append(QuadSeg{T0: 1, T1: 1}); err == nil {
		t.Error("zero-duration segment accepted")
	}
	if err := p.Append(QuadSeg{T0: 0, T1: 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.Append(QuadSeg{T0: 2, T1: 3}); err == nil {
		t.Error("gap between segments accepted")
	}
	if err := p.Append(QuadSeg{T0: 1, T1: 2}); err != nil {
		t.Fatal(err)
	}
}

func TestPWQEval(t *testing.T) {
	p := &PWQ{}
	// Falling parabola then linear tail, continuous at the joint.
	if err := p.Append(QuadSeg{T0: 0, T1: 1, V0: 3.3, S: 0, A: -2}); err != nil {
		t.Fatal(err)
	}
	// end value 2.3, end slope -2
	if err := p.Append(QuadSeg{T0: 1, T1: 2, V0: 2.3, S: -2, A: 0}); err != nil {
		t.Fatal(err)
	}
	if !feq(p.Eval(-1), 3.3, 1e-12) || !feq(p.Eval(0.5), 3.3-0.25, 1e-12) ||
		!feq(p.Eval(1.5), 2.3-1, 1e-12) || !feq(p.Eval(5), 0.3, 1e-12) {
		t.Errorf("Eval wrong: %g %g %g %g", p.Eval(-1), p.Eval(0.5), p.Eval(1.5), p.Eval(5))
	}
	t0, t1 := p.Span()
	if t0 != 0 || t1 != 2 {
		t.Errorf("span = %g, %g", t0, t1)
	}
}

func TestPWQCrossingFalling(t *testing.T) {
	p := &PWQ{}
	// V(t) = 3.3 − t² on [0, 2]: crosses 2.3 at t = 1.
	if err := p.Append(QuadSeg{T0: 0, T1: 2, V0: 3.3, S: 0, A: -2}); err != nil {
		t.Fatal(err)
	}
	tc, ok := p.Crossing(2.3, false)
	if !ok || !feq(tc, 1, 1e-9) {
		t.Errorf("crossing = %g, %v; want 1", tc, ok)
	}
	if _, ok := p.Crossing(2.3, true); ok {
		t.Error("rising crossing should not exist on a falling waveform")
	}
}

func TestPWQCrossingLinearSegment(t *testing.T) {
	p := &PWQ{}
	if err := p.Append(QuadSeg{T0: 0, T1: 4, V0: 0, S: 0.5, A: 0}); err != nil {
		t.Fatal(err)
	}
	tc, ok := p.Crossing(1, true)
	if !ok || !feq(tc, 2, 1e-12) {
		t.Errorf("linear crossing = %g, %v", tc, ok)
	}
}

func TestQuadRootsStable(t *testing.T) {
	// Catastrophic-cancellation case: x² − 1e8·x + 1 has roots ~1e8 and ~1e-8.
	rs, n := quadRoots(1, -1e8, 1)
	if n != 2 {
		t.Fatalf("want 2 roots, got %v", rs[:n])
	}
	if !feq(rs[0], 1e-8, 1e-9) || !feq(rs[1], 1e8, 1e-9) {
		t.Errorf("roots = %v", rs)
	}
	if rs, n := quadRoots(0, 2, -4); n != 1 || rs[0] != 2 {
		t.Errorf("linear fallback roots = %v", rs[:n])
	}
	if rs, n := quadRoots(1, 0, 1); n != 0 {
		t.Errorf("complex case should give no roots, got %v", rs[:n])
	}
}

// Property: PWQ crossings evaluate back to the level.
func TestPWQCrossingConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := &PWQ{}
		tcur, v := 0.0, 3.3
		slope := 0.0
		for i := 0; i < 4; i++ {
			dur := 0.2 + r.Float64()
			a := -2 + 4*r.Float64()
			seg := QuadSeg{T0: tcur, T1: tcur + dur, V0: v, S: slope, A: a}
			if err := p.Append(seg); err != nil {
				return false
			}
			v = seg.EndValue()
			slope = seg.EndSlope()
			tcur += dur
		}
		level := -1 + 5*r.Float64()
		for _, rising := range []bool{true, false} {
			if tc, ok := p.Crossing(level, rising); ok {
				if !feq(p.Eval(tc), level, 1e-7) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMetrics(t *testing.T) {
	// Linear fall from 3.3 to 0 over [0, 1]: 50% at t ≈ 0.5, slew 10–90% = 0.8.
	p, _ := NewPWL([]float64{0, 1}, []float64{3.3, 0})
	d, err := Delay50(p, 0, 3.3, false)
	if err != nil || !feq(d, 0.5, 1e-12) {
		t.Errorf("Delay50 = %g, %v", d, err)
	}
	s, err := Slew(p, 3.3, false)
	if err != nil || !feq(s, 0.8, 1e-12) {
		t.Errorf("Slew = %g, %v", s, err)
	}
	if _, err := Delay50(p, 0, 3.3, true); err == nil {
		t.Error("rising delay on falling edge should error")
	}
}

func TestDelayErrorAndAccuracy(t *testing.T) {
	if e := DelayErrorPct(101, 100); !feq(e, 1, 1e-12) {
		t.Errorf("error = %g", e)
	}
	if a := AccuracyPct(101, 100); !feq(a, 99, 1e-12) {
		t.Errorf("accuracy = %g", a)
	}
	if e := DelayErrorPct(1, 0); !math.IsInf(e, 1) {
		t.Errorf("error with zero ref = %g", e)
	}
	if a := AccuracyPct(300, 100); a != 0 {
		t.Errorf("accuracy floor = %g", a)
	}
}

// Crossing searches and the metrics built on them run once per stage
// evaluation on the STA path; none of them may allocate.
func TestCrossingAndSlewAllocFree(t *testing.T) {
	p := &PWQ{}
	for _, s := range []QuadSeg{
		{T0: 0, T1: 1e-10, V0: 3.3, S: -5e9, A: -1e20},
		{T0: 1e-10, T1: 3e-10, V0: 2.3, S: -1.5e10, A: 5e19},
		{T0: 3e-10, T1: 1e-9, V0: 0.3, S: -4e8, A: 0},
	} {
		if err := p.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := p.Crossing(1.65, false); !ok {
		t.Fatal("falling 50 % crossing not found")
	}
	if _, err := Slew(p, 3.3, false); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { p.Crossing(1.65, false) }); a != 0 {
		t.Errorf("PWQ.Crossing allocated %.1f times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { Slew(p, 3.3, false) }); a != 0 {
		t.Errorf("Slew allocated %.1f times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { Delay50(p, 0, 3.3, false) }); a != 0 {
		t.Errorf("Delay50 allocated %.1f times per call, want 0", a)
	}
}
