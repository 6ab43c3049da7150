package mos

import (
	"math"
	"testing"
)

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// Regions of the model a drain sweep sample can exercise.
const (
	regionSub     = iota // forward, gate below threshold
	regionTriode         // forward, strong inversion, Vds/Vdsat ≤ 1
	regionSat            // forward, strong inversion, Vds/Vdsat > 1
	regionReverse        // vd below vs: the Ids fallback
	numRegions
)

// region classifies the sample of sw at drain voltage vd.
func (sw *DrainSweep) region(vd float64) int {
	d, g := vd, sw.vg
	if sw.p.Pol == PMOS {
		d, g = -vd, -sw.vg
	}
	switch {
	case !(d >= sw.s):
		return regionReverse
	case g-sw.s < sw.p.Vth(sw.vs, sw.vb):
		return regionSub
	case (d-sw.s)/sw.bt.vdsat.V <= 1:
		return regionTriode
	}
	return regionSat
}

// The drain sweep reproduces Ids(...).I bit for bit over a grid spanning
// both polarities, two channel lengths, body biases at and off the rail,
// and every region: sub-threshold, both sides of the Vds/Vdsat ≤ 1 branch,
// and reverse conduction.
func TestSweepMatchesIds(t *testing.T) {
	const w = 1.3e-6
	for _, p := range []*Params{&tech.N, &tech.P} {
		rail := 0.0
		if p.Pol == PMOS {
			rail = tech.VDD
		}
		var hits [numRegions]int
		for _, l := range []float64{0.35e-6, 1e-6} {
			for _, vb := range []float64{rail, rail - 0.3, rail + 0.3} {
				for ig := 0; ig <= 30; ig++ {
					vg := -0.3 + 0.13*float64(ig)
					for is := 0; is <= 10; is++ {
						vs := -0.2 + 0.37*float64(is)
						sw := p.Sweep(w, l, vg, vs, vb)
						for id := 0; id <= 40; id++ {
							vd := -0.3 + 0.0975*float64(id)
							got, want := sw.I(vd), p.Ids(w, l, vg, vd, vs, vb).I
							if !sameBits(got, want) {
								t.Fatalf("%v l=%g vb=%g vg=%g vd=%g vs=%g: sweep %v, Ids %v",
									p.Pol, l, vb, vg, vd, vs, got, want)
							}
							hits[sw.region(vd)]++
						}
					}
				}
			}
		}
		t.Logf("%v: sub %d, triode %d, saturation %d, reverse %d", p.Pol, hits[regionSub], hits[regionTriode], hits[regionSat], hits[regionReverse])
		for r, n := range hits {
			if n < 100 {
				t.Errorf("%v: region %d sampled %d times", p.Pol, r, n)
			}
		}
	}
}

func FuzzSweepMatchesIds(f *testing.F) {
	f.Add(false, 1e-6, 0.35e-6, 2.0, 1.5, 0.3, 0.0) // triode
	f.Add(false, 1e-6, 0.35e-6, 2.0, 3.3, 0.0, 0.0) // saturation
	f.Add(false, 1e-6, 1e-6, 0.2, 1.0, 0.0, 0.0)    // sub-threshold
	f.Add(false, 1e-6, 1e-6, 2.0, 0.1, 0.6, 0.0)    // reverse
	f.Add(true, 2e-6, 0.35e-6, 0.5, 1.0, 3.3, 3.3)
	f.Add(true, 2e-6, 0.35e-6, 0.5, 3.3, 1.0, 3.3) // reverse
	f.Fuzz(func(t *testing.T, pmos bool, w, l, vg, vd, vs, vb float64) {
		p := &tech.N
		if pmos {
			p = &tech.P
		}
		sw := p.Sweep(w, l, vg, vs, vb)
		if got, want := sw.I(vd), p.Ids(w, l, vg, vd, vs, vb).I; !sameBits(got, want) {
			t.Fatalf("%v w=%g l=%g vg=%g vd=%g vs=%g vb=%g: sweep %v, Ids %v", p.Pol, w, l, vg, vd, vs, vb, got, want)
		}
	})
}
