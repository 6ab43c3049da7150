package awe

import "math"

// ChainSeg is one segment of a series RC ladder: a series resistance R
// followed by a grounded capacitance C at the segment's downstream node.
// A ladder [s1 … sn] is driven at an entry node by an ideal source and ends
// at the far node of sn; the caller decides whether the far node's own
// capacitance is part of the ladder (last C) or is handled separately as an
// external load.
type ChainSeg struct {
	R, C float64
}

// ChainNodeMoments returns the first two transfer-function moments m1 and m2
// of every ladder node (index 0 is the entry node, which is driven by an
// ideal source and has m1 = m2 = 0), with an extra lumped capacitance cload
// on the far node. m1 is the negated Elmore delay; m2 is the second moment
// used as the delay-error proxy by the reduction below. This is the chain
// specialization of RCTree.Moments — exported for callers that already hold
// a series run and do not want to build a tree.
func ChainNodeMoments(segs []ChainSeg, cload float64) (m1, m2 []float64) {
	n := len(segs)
	m1 = make([]float64, n+1)
	m2 = make([]float64, n+1)
	// m_k(i) = m_k(parent) − R_i · I_k(i), where I_k(i) is the downstream
	// capacitance-weighted sum of m_{k−1}: the path-tracing recursion of
	// RCTree.Moments, with subtree(i) = nodes i..n for a chain.
	capAt := func(i int) float64 { // node i ≥ 1 → segs[i−1].C (+cload at far node)
		c := segs[i-1].C
		if i == n {
			c += cload
		}
		return c
	}
	for k := 1; k <= 2; k++ {
		prev := m1
		if k == 1 {
			prev = nil // m_0 = 1 everywhere
		}
		cur := m1
		if k == 2 {
			cur = m2
		}
		// Downstream sums by a reverse sweep.
		iacc := 0.0
		down := make([]float64, n+1)
		for i := n; i >= 1; i-- {
			mkm1 := 1.0
			if prev != nil {
				mkm1 = prev[i]
			}
			iacc += capAt(i) * mkm1
			down[i] = iacc
		}
		// Moments by a forward sweep.
		for i := 1; i <= n; i++ {
			cur[i] = cur[i-1] - segs[i-1].R*down[i]
		}
	}
	return m1, m2
}

// ChainMoments returns the far node's first two transfer moments (m1, m2)
// with an extra lumped load cload there. −m1 is the exit Elmore delay.
func ChainMoments(segs []ChainSeg, cload float64) (m1, m2 float64) {
	v1, v2 := ChainNodeMoments(segs, cload)
	return v1[len(segs)], v2[len(segs)]
}

// ChainTotals returns the ladder's total series resistance and total
// grounded capacitance.
func ChainTotals(segs []ChainSeg) (rtot, ctot float64) {
	for _, s := range segs {
		rtot += s.R
		ctot += s.C
	}
	return rtot, ctot
}

// reduceGroups collapses the ladder into `groups` contiguous chunks. Each
// chunk is modeled as a resistance R_a carrying the chunk's entire
// capacitance at its far node, followed by the remaining resistance
// R_b = R_chunk − R_a; R_a is chosen so the chunk's internal Elmore
// contribution Σ_j (Σ_{i≤j} R_i)·C_j is preserved exactly, and the chunk's
// total R and total C are preserved by construction. Because each chunk
// preserves (R, C, internal Elmore), the reduced ladder's exit Elmore — and
// the Elmore at the far node under ANY external load — equals the original's
// exactly; only second and higher moments deviate.
//
// A node between R_b and the next chunk's R_a would carry no capacitance —
// electrically it is nothing — so R_b is folded forward into the next
// emitted segment's resistance instead (exact, and it keeps consumers that
// require positive node capacitances, like the QWM builder, happy). Only a
// trailing remainder is emitted as a capacitance-free segment: its far node
// is the caller's exit, whose load is external to the ladder.
func reduceGroups(segs []ChainSeg, groups int) []ChainSeg {
	out := make([]ChainSeg, 0, groups+1)
	n := len(segs)
	carry := 0.0
	for g := 0; g < groups; g++ {
		lo, hi := g*n/groups, (g+1)*n/groups // contiguous, deterministic split
		if lo == hi {
			continue
		}
		var rtot, ctot, elm, rcum float64
		for _, s := range segs[lo:hi] {
			rcum += s.R
			rtot = rcum
			ctot += s.C
			elm += rcum * s.C
		}
		if ctot == 0 {
			carry += rtot
			continue
		}
		ra := elm / ctot // ≤ rtot since every Rcum ≤ rtot
		out = append(out, ChainSeg{R: carry + ra, C: ctot})
		carry = rtot - ra
	}
	if carry > 0 {
		out = append(out, ChainSeg{R: carry})
	}
	return out
}

// ReduceChain collapses a series RC ladder into an equivalent short ladder:
// total resistance, total capacitance and the exit Elmore delay (under the
// external load cload) are preserved exactly, and the relative second-moment
// mismatch |m2' − m2| / m1² — a dimensionless delay-error proxy (for a
// single-pole response m2 = m1², so this normalization reads directly as a
// fractional waveform distortion) — is kept at or below tol by doubling the
// segment budget until it fits. The returned error estimate is the achieved
// mismatch. When no reduction satisfies tol with fewer segments than the
// input, the input is returned unchanged with error 0.
func ReduceChain(segs []ChainSeg, cload, tol float64) ([]ChainSeg, float64) {
	if len(segs) <= 2 {
		return segs, 0
	}
	m1f, m2f := ChainMoments(segs, cload)
	if m1f == 0 {
		// No capacitance anywhere: a pure resistor collapses to one segment.
		rtot, ctot := ChainTotals(segs)
		if ctot == 0 {
			return []ChainSeg{{R: rtot}}, 0
		}
		return segs, 0
	}
	for groups := 1; ; groups *= 2 {
		red := reduceGroups(segs, groups)
		if len(red) >= len(segs) {
			return segs, 0
		}
		m1r, m2r := ChainMoments(red, cload)
		// m1 matches to rounding by construction; fold any residual into the
		// estimate so the bound is honest about float error too.
		err := (math.Abs(m2r-m2f) + math.Abs(m1r-m1f)*math.Abs(m1f)) / (m1f * m1f)
		if err <= tol {
			return red, err
		}
	}
}
