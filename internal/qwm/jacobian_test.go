package qwm

import (
	"fmt"
	"math"
	"testing"

	"qwm/internal/la"
	"qwm/internal/mos"
	"qwm/internal/wave"
)

// jacobianCase builds an engine mid-transient with L active nodes and the
// region system for its next event. Every gate is either a slow rising ramp
// that is still moving at τ′ or a step that switched long before. A turn-on
// case adds an off element L above the active nodes; a cross case has all L
// elements on and matches the output at a level below its current voltage.
func jacobianCase(t *testing.T, L int, ramp, turnOn, dense bool) (*engine, *regionSys, []float64) {
	t.Helper()
	tbl := nmosTable(t)
	m := L
	if turnOn {
		m = L + 1
	}
	ch := &Chain{Pol: mos.NMOS, VDD: tech.VDD}
	for i := 0; i < m; i++ {
		var g wave.Waveform = wave.Step{At: 0, Low: 0, High: tech.VDD}
		if ramp {
			g = wave.Ramp{T0: 0, T1: 200e-12, Low: 0, High: tech.VDD}
		}
		ch.Elems = append(ch.Elems, &Elem{Model: tbl, W: (1 + 0.3*float64(i)) * 1e-6, Gate: g})
		ch.Caps = append(ch.Caps, NodeCap{Fixed: (4 + float64(i)) * 1e-15})
		// Internal nodes low and off the 0.1 V table grid; the top node high.
		v0 := 0.137 + 0.153*float64(i)
		if i == m-1 {
			v0 = 2.43
		}
		ch.V0 = append(ch.V0, v0)
	}
	e, err := newEngine(ch, Options{UseDenseLU: dense})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.release)
	e.t = 93e-12
	e.front = L
	e.refreshCaps()
	e.refreshCurrents()
	ev := e.crossEvent(e.v[L] - 0.2)
	if turnOn {
		ev = e.turnOnEvent(L)
	}
	rs := e.newRegionSys(L, ev)

	// A plausible iterate: a few-ps region with node currents bending by a
	// fraction of the region's current scale.
	const delta = 2.1e-12
	x := make([]float64, L+1)
	for k := 0; k < L; k++ {
		x[k] = 0.2 * float64(1-2*(k%2)) * (1 + 0.2*float64(k)) * rs.iScale / delta
	}
	x[L] = e.t + delta
	return e, rs, x
}

// TestJacobianMatchesFiniteDifferences pins the region Jacobian, column by
// column, against central differences of the residual. The τ′ column must
// carry every way the residual moves with time — the node currents' own
// slopes, the adjacent nodes' motion, and the gates' motion through
// ∂J/∂V_gate — or Newton on a ramp input converges only linearly.
func TestJacobianMatchesFiniteDifferences(t *testing.T) {
	for _, ramp := range []bool{false, true} {
		for _, turnOn := range []bool{false, true} {
			for _, dense := range []bool{false, true} {
				for L := 1; L <= 3; L++ {
					name := fmt.Sprintf("ramp=%v/turnOn=%v/dense=%v/L=%d", ramp, turnOn, dense, L)
					t.Run(name, func(t *testing.T) {
						checkJacobian(t, L, ramp, turnOn, dense)
					})
				}
			}
		}
	}
}

func checkJacobian(t *testing.T, L int, ramp, turnOn, dense bool) {
	e, rs, x := jacobianCase(t, L, ramp, turnOn, dense)
	n := L + 1
	F := make([]float64, n)
	if !rs.residual(x, F) {
		t.Fatal("residual rejected the test iterate")
	}
	// Stay on the physical branch: the table clamps below the rail, so a
	// node pushed negative would put a kink inside the differences.
	for k := 1; k <= L; k++ {
		if rs.v[k] <= 0 || rs.v[k] >= tech.VDD {
			t.Fatalf("node %d at %.3g V at the test iterate, want inside (0, VDD)", k, rs.v[k])
		}
	}
	delta := x[L] - e.t

	// Analytic Jacobian, expanded to dense from whichever form it came in.
	tri := &la.Tridiag{Diag: make([]float64, n), Sub: make([]float64, n-1), Sup: make([]float64, n-1)}
	u := make([]float64, n)
	full := la.NewMatrix(n, n)
	if dense {
		rs.jacobian(x, tri, u, full)
	} else {
		rs.jacobian(x, tri, u, nil)
		tri.DenseInto(full)
		for r := 0; r < n; r++ {
			full.Add(r, L, u[r])
		}
	}

	// Characteristic scales: each α moves its row by about iScale over the
	// region, τ′ by about its duration; current rows are measured against
	// iScale, the event row against VDD.
	varScale := func(c int) float64 {
		if c == L {
			return delta
		}
		return rs.iScale / delta
	}
	rowScale := func(r int) float64 {
		if r == L {
			return tech.VDD
		}
		return rs.iScale
	}
	xp := make([]float64, n)
	xm := make([]float64, n)
	Fp := make([]float64, n)
	Fm := make([]float64, n)
	for c := 0; c < n; c++ {
		h := 1e-5 * varScale(c)
		copy(xp, x)
		copy(xm, x)
		xp[c] += h
		xm[c] -= h
		if !rs.residual(xp, Fp) || !rs.residual(xm, Fm) {
			t.Fatalf("residual rejected a perturbation of x[%d]", c)
		}
		for r := 0; r < n; r++ {
			fd := (Fp[r] - Fm[r]) / (2 * h)
			an := full.At(r, c)
			// Relative error of the linearized step over one variable scale.
			if rel := math.Abs(an-fd) * varScale(c) / rowScale(r); rel > 1e-6 {
				t.Errorf("∂F[%d]/∂x[%d]: jacobian %.6g, finite difference %.6g (error %.2g of the row scale)",
					r, c, an, fd, rel)
			}
		}
	}
}
