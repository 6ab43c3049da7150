package awe

import (
	"math"
	"testing"
)

// uniformLadder discretizes a uniform RC line of total resistance r and
// capacitance c into n equal segments.
func uniformLadder(n int, r, c float64) []ChainSeg {
	segs := make([]ChainSeg, n)
	for i := range segs {
		segs[i] = ChainSeg{R: r / float64(n), C: c / float64(n)}
	}
	return segs
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 0 {
		return d / m
	}
	return d
}

// The chain specialization must agree with the general RCTree path-tracing
// recursion on the same ladder.
func TestChainMomentsMatchRCTree(t *testing.T) {
	segs := []ChainSeg{{R: 100, C: 1e-15}, {R: 250, C: 3e-15}, {R: 80, C: 0.5e-15}, {R: 500, C: 2e-15}}
	const cload = 4e-15
	tree := NewRCTree("in")
	prev := "in"
	for i, s := range segs {
		name := string(rune('a' + i))
		if err := tree.AddNode(name, prev, s.R, s.C); err != nil {
			t.Fatal(err)
		}
		prev = name
	}
	if err := tree.AddCap(prev, cload); err != nil {
		t.Fatal(err)
	}
	want, err := tree.NodeMoments(prev, 2)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := ChainMoments(segs, cload)
	if relDiff(m1, want[0]) > 1e-12 || relDiff(m2, want[1]) > 1e-12 {
		t.Fatalf("ChainMoments = (%g, %g), RCTree = (%g, %g)", m1, m2, want[0], want[1])
	}
}

// Reduction must preserve total R, total C and the exit Elmore delay exactly
// (to rounding), for any external load, while shrinking the ladder.
func TestReduceChainPreservesElmoreAndTotals(t *testing.T) {
	segs := uniformLadder(40, 2000, 80e-15)
	// Perturb so the ladder is not perfectly uniform.
	for i := range segs {
		segs[i].R *= 1 + 0.3*math.Sin(float64(i))
		segs[i].C *= 1 + 0.2*math.Cos(float64(3*i))
	}
	for _, cload := range []float64{0, 5e-15, 50e-15} {
		red, errEst := ReduceChain(segs, cload, 0.05)
		if len(red) >= len(segs) {
			t.Fatalf("cload=%g: no reduction (%d -> %d segments)", cload, len(segs), len(red))
		}
		r0, c0 := ChainTotals(segs)
		r1, c1 := ChainTotals(red)
		if relDiff(r0, r1) > 1e-12 || relDiff(c0, c1) > 1e-12 {
			t.Fatalf("cload=%g: totals changed: R %g->%g, C %g->%g", cload, r0, r1, c0, c1)
		}
		m1f, m2f := ChainMoments(segs, cload)
		m1r, m2r := ChainMoments(red, cload)
		if relDiff(m1f, m1r) > 1e-9 {
			t.Fatalf("cload=%g: Elmore changed: m1 %g -> %g", cload, m1f, m1r)
		}
		if got := math.Abs(m2r-m2f) / (m1f * m1f); got > 0.05 {
			t.Fatalf("cload=%g: second-moment mismatch %g exceeds tol", cload, got)
		}
		if errEst > 0.05 {
			t.Fatalf("cload=%g: reported error estimate %g exceeds tol", cload, errEst)
		}
	}
}

// A tighter tolerance must never return fewer segments than a looser one,
// and both must stay within their bound.
func TestReduceChainTolControlsOrder(t *testing.T) {
	segs := uniformLadder(64, 5000, 200e-15)
	loose, looseErr := ReduceChain(segs, 10e-15, 0.2)
	tight, tightErr := ReduceChain(segs, 10e-15, 1e-4)
	if len(tight) < len(loose) {
		t.Fatalf("tight tol gave %d segments, loose gave %d", len(tight), len(loose))
	}
	if looseErr > 0.2 || tightErr > 1e-4 {
		t.Fatalf("error estimates exceed bounds: loose %g, tight %g", looseErr, tightErr)
	}
	if len(loose) > 4 {
		t.Fatalf("loose tol should collapse hard, got %d segments", len(loose))
	}
}

// Degenerate ladders: capacitance-free runs collapse to one resistor; short
// runs pass through untouched.
func TestReduceChainDegenerate(t *testing.T) {
	red, _ := ReduceChain([]ChainSeg{{R: 10}, {R: 20}, {R: 30}}, 1e-15, 0.05)
	if len(red) != 1 || red[0].R != 60 || red[0].C != 0 {
		t.Fatalf("pure-R ladder reduced to %+v, want one 60-ohm segment", red)
	}
	short := []ChainSeg{{R: 10, C: 1e-15}, {R: 20, C: 2e-15}}
	if got, _ := ReduceChain(short, 0, 0.05); len(got) != 2 {
		t.Fatalf("2-segment ladder should be returned unchanged, got %d", len(got))
	}
}
