package switchlevel

import (
	"testing"

	"qwm/internal/mos"
	"qwm/internal/stages"
)

var tech = mos.CMOSP35()

func TestEffectiveResistancePlausible(t *testing.T) {
	rn := EffectiveResistance(&tech.N, tech, 1e-6, tech.LMin)
	// A 1 µm NMOS in this process: a few kΩ.
	if rn < 500 || rn > 20e3 {
		t.Errorf("NMOS Reff = %g Ω implausible", rn)
	}
	rp := EffectiveResistance(&tech.P, tech, 1e-6, tech.LMin)
	if rp <= rn {
		t.Errorf("PMOS (%g) should be more resistive than NMOS (%g) at equal width", rp, rn)
	}
	// Doubling width halves resistance.
	r2 := EffectiveResistance(&tech.N, tech, 2e-6, tech.LMin)
	if r2 < 0.45*rn || r2 > 0.55*rn {
		t.Errorf("width scaling: %g vs %g", r2, rn)
	}
	// An off device (zero current) saturates to the huge-resistance guard.
	off := EffectiveResistance(&mos.Params{Pol: mos.NMOS, Vth0: 10, Phi: 0.8, NSub: 1.4, KP: 1e-6, ESat: 1e7}, tech, 1e-6, tech.LMin)
	if off < 1e9 {
		t.Errorf("off device Reff = %g", off)
	}
}

func TestElmoreDelayOrderOfMagnitude(t *testing.T) {
	// Switch-level Elmore should land within ~2× of the detailed simulators
	// (whose reference values for these workloads are ≈ 50–260 ps; see the
	// bench package) — useful for ranking, not for signoff.
	w, err := stages.NAND(tech, 3, 0.8e-6, 1.6e-6, 15e-15, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Delay(w.Stage, w.Path, w.Output, w.Loads, tech)
	if err != nil {
		t.Fatal(err)
	}
	if d < 50e-12 || d > 500e-12 {
		t.Errorf("nand3 Elmore delay %g s outside the plausible band", d)
	}
}

func TestElmoreMonotoneInStackDepth(t *testing.T) {
	prev := 0.0
	for _, k := range []int{2, 4, 6, 8} {
		widths := make([]float64, k)
		for i := range widths {
			widths[i] = 1.5e-6
		}
		w, err := stages.Stack(tech, widths, 10e-15, 0)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Delay(w.Stage, w.Path, w.Output, w.Loads, tech)
		if err != nil {
			t.Fatal(err)
		}
		if d <= prev {
			t.Fatalf("Elmore delay not increasing with depth at K=%d", k)
		}
		prev = d
	}
}

func TestDelayHandlesWires(t *testing.T) {
	w, err := stages.DecoderTree(tech, 3, 2e-6, 50e-6, 20e-15, 0)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Delay(w.Stage, w.Path, w.Output, w.Loads, tech)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("decoder delay = %g", d)
	}
}
