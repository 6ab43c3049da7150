package wave

import (
	"fmt"
	"math"
)

// QuadSeg is one region of a piecewise-quadratic waveform:
//
//	V(t) = V0 + S·(t−T0) + 0.5·A·(t−T0)²   for T0 ≤ t < T1.
//
// In QWM terms S = I/C (the region-start current over the node capacitance)
// and A = α/C (the matched current slope over the capacitance).
type QuadSeg struct {
	T0, T1 float64
	V0     float64
	S      float64 // dV/dt at T0
	A      float64 // d²V/dt²
}

// EndValue returns the segment voltage at T1.
func (q QuadSeg) EndValue() float64 {
	dt := q.T1 - q.T0
	return q.V0 + q.S*dt + 0.5*q.A*dt*dt
}

// EndSlope returns dV/dt at T1.
func (q QuadSeg) EndSlope() float64 {
	return q.S + q.A*(q.T1-q.T0)
}

// PWQ is a piecewise-quadratic waveform — QWM's native output format, with
// one segment per critical-point region.
type PWQ struct {
	Segs []QuadSeg
}

// Append adds a segment; its start must coincide with the previous end.
func (p *PWQ) Append(s QuadSeg) error {
	if s.T1 <= s.T0 {
		return fmt.Errorf("wave: PWQ segment with non-positive duration [%g, %g]", s.T0, s.T1)
	}
	if n := len(p.Segs); n > 0 {
		prev := p.Segs[n-1]
		if math.Abs(prev.T1-s.T0) > 1e-18+1e-9*math.Abs(prev.T1) {
			return fmt.Errorf("wave: PWQ segment start %g does not meet previous end %g", s.T0, prev.T1)
		}
	}
	p.Segs = append(p.Segs, s)
	return nil
}

// Eval implements Waveform with flat extrapolation outside the span.
func (p *PWQ) Eval(t float64) float64 {
	n := len(p.Segs)
	if n == 0 {
		return 0
	}
	if t <= p.Segs[0].T0 {
		return p.Segs[0].V0
	}
	last := p.Segs[n-1]
	if t >= last.T1 {
		return last.EndValue()
	}
	for _, s := range p.Segs {
		if t < s.T1 {
			dt := t - s.T0
			return s.V0 + s.S*dt + 0.5*s.A*dt*dt
		}
	}
	return last.EndValue()
}

// Span implements Waveform.
func (p *PWQ) Span() (float64, float64) {
	if len(p.Segs) == 0 {
		return 0, 0
	}
	return p.Segs[0].T0, p.Segs[len(p.Segs)-1].T1
}

// Crossing returns the earliest time the waveform reaches level in the given
// direction, solving each segment's quadratic analytically.
func (p *PWQ) Crossing(level float64, rising bool) (float64, bool) {
	for _, s := range p.Segs {
		dur := s.T1 - s.T0
		// Roots of 0.5·A·x² + S·x + (V0 − level) = 0 within [0, dur].
		roots, n := quadRoots(0.5*s.A, s.S, s.V0-level)
		best := math.Inf(1)
		for _, x := range roots[:n] {
			if x < -1e-18 || x > dur*(1+1e-9) {
				continue
			}
			if x < 0 {
				x = 0
			}
			// Direction check via slope at the root.
			slope := s.S + s.A*x
			if (rising && slope >= 0) || (!rising && slope <= 0) {
				if x < best {
					best = x
				}
			}
		}
		if !math.IsInf(best, 1) {
			return s.T0 + best, true
		}
	}
	return 0, false
}

// quadRoots returns the n real roots of a·x² + b·x + c in ascending order,
// degenerating to the linear case when a ≈ 0 relative to b. The roots come
// back in an array so a crossing search never touches the heap.
func quadRoots(a, b, c float64) (roots [2]float64, n int) {
	if math.Abs(a) < 1e-300 || math.Abs(a) < 1e-14*math.Abs(b) {
		if b == 0 {
			return roots, 0
		}
		roots[0] = -c / b
		return roots, 1
	}
	disc := b*b - 4*a*c
	if disc < 0 {
		return roots, 0
	}
	sq := math.Sqrt(disc)
	// Numerically stable form avoiding cancellation.
	q := -0.5 * (b + math.Copysign(sq, b))
	roots[0] = q / a
	if q != 0 {
		roots[1] = c / q
	}
	if roots[0] > roots[1] {
		roots[0], roots[1] = roots[1], roots[0]
	}
	return roots, 2
}
