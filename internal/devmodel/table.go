// Package devmodel implements the paper's device characterization (§V-A):
// the analytic golden model is swept on a 0.1 V (Vg, Vs) grid and, per grid
// point, the drain-voltage dependence of the channel current is compressed
// into seven parameters — a linear fit in the saturation region, a quadratic
// fit in the triode region (Fig. 8), plus the threshold and saturation
// voltages. Queries bilinearly interpolate between grid points and provide
// the fast analytic ∂I/∂Vd and ∂I/∂Vs the QWM Jacobian needs.
//
// Both polarities are characterized in "folded" discharge-normal
// coordinates: for PMOS every voltage v is replaced by VDD − v and the
// current negated, which turns a pull-up path into the same mathematical
// object as an NMOS pull-down. The QWM engine works entirely in folded
// space and un-folds its output waveforms at the end.
package devmodel

import (
	"fmt"
	"math"
	"sync"

	"qwm/internal/la"
	"qwm/internal/mos"
)

// Entry is one grid point's seven characterization parameters (paper §V-A:
// "we store 7 parameters for each Vs/Vg pair").
type Entry struct {
	S1, S2     float64 // saturation: I = S1·Vds + S2
	T0, T1, T2 float64 // triode:     I = T2·Vds² + T1·Vds + T0
	Vth        float64 // body-effect threshold at this Vs
	Vdsat      float64 // triode/saturation boundary
}

// Eval returns the fitted current and its ∂I/∂Vds at drain-source voltage
// vds ≥ 0, switching between the triode and saturation fits at Vdsat.
func (e *Entry) Eval(vds float64) (i, didvds float64) {
	if vds < e.Vdsat {
		return e.T2*vds*vds + e.T1*vds + e.T0, 2*e.T2*vds + e.T1
	}
	return e.S1*vds + e.S2, e.S1
}

// Table is a characterized device: a (Vg, Vs) grid of Entries at a reference
// width, valid for one channel length. Currents scale linearly with width.
type Table struct {
	Pol   mos.Polarity
	L     float64
	VDD   float64
	StepV float64 // grid pitch (0.1 V in the paper)
	WRef  float64
	N     int // grid points per axis: 0..N-1 covering [0, VDD]
	// Grid[ig][is] is the entry at vg = ig·StepV, vs = is·StepV. Its rows
	// are views of one row-major array, which the lookups index directly.
	Grid [][]Entry

	flat   []Entry // Grid's backing store: entry (ig, is) at ig·N + is
	params *mos.Params
	body   float64 // body voltage in unfolded space
}

// Characterize sweeps the golden model and fits the table, mirroring the
// paper's Hspice characterization run. step is the grid pitch (0.1 V in the
// paper); finer pitches trade memory for accuracy.
func Characterize(p *mos.Params, tech *mos.Tech, l, step float64) (*Table, error) {
	if step <= 0 || l <= 0 {
		return nil, fmt.Errorf("devmodel: step and l must be positive")
	}
	vdd := tech.VDD
	body := 0.0
	if p.Pol == mos.PMOS {
		body = vdd
	}
	n := int(math.Round(vdd/step)) + 1
	t := &Table{
		Pol: p.Pol, L: l, VDD: vdd, StepV: step,
		WRef: 1e-6, N: n,
		Grid:   make([][]Entry, n),
		flat:   make([]Entry, n*n),
		params: p, body: body,
	}
	for ig := range t.Grid {
		t.Grid[ig] = t.flat[ig*n : (ig+1)*n : (ig+1)*n]
	}
	// Grid rows are independent; characterize them in parallel.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for ig := 0; ig < n; ig++ {
		wg.Add(1)
		go func(ig int) {
			defer wg.Done()
			errs[ig] = t.characterizeRow(ig, step)
		}(ig)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}

// nFit is the number of intervals each least-squares fit samples: a fit
// region gets nFit+1 samples.
const nFit = 24

// rowBuffers are the sample and fit buffers one grid row reuses for every
// entry.
type rowBuffers struct {
	xs, ys [nFit + 1]float64 // one region's Vds samples and currents
	zx, zs [nFit + 1]float64 // originQuad's conductance-space samples
}

// characterizeRow fits every (vg, vs) entry of one gate-voltage grid row.
func (t *Table) characterizeRow(ig int, step float64) error {
	var b rowBuffers
	xs, ys := b.xs[:], b.ys[:]
	n := t.N
	vdd := t.VDD
	vg := float64(ig) * step
	for is := 0; is < n; is++ {
		vs := float64(is) * step
		e := &t.Grid[ig][is]
		e.Vth = t.foldedVth(vs)
		e.Vdsat = t.foldedVdsat(vg, vs)
		sw := t.sweep(vg, vs)

		vdsMax := vdd - vs
		if vdsMax < 1e-6 {
			// Source at the rail: no headroom; keep an all-zero fit with
			// the conductance of the model at Vds→0 for continuity.
			const h = 1e-4
			g := t.sample(&sw, vs+h) / h
			e.T1, e.S1 = g, g
			e.Vdsat = 0
			continue
		}
		split := e.Vdsat
		if split > vdsMax {
			split = vdsMax
		}
		if split > 1e-4 {
			// Triode region [0, split]: a quadratic through the origin
			// (I = 0 at Vds = 0 exactly) fits the golden model's triode
			// curve almost perfectly below the physical Vdsat.
			t.sweepVds(&sw, vs, 0, split, xs, ys)
			e.T0 = 0
			e.T1, e.T2 = originQuad(xs, ys, b.zx[:0], b.zs[:0])
			iSplit := e.T1*split + e.T2*split*split
			if vdsMax-split > 1e-4 {
				// Saturation region [split, vdd−vs]: a line pinned to the
				// triode value at the split (continuity) with its slope
				// chosen by least squares. The rounded knee of the golden
				// model tilts the line slightly; beyond the knee the
				// curve is genuinely linear (channel-length modulation).
				t.sweepVds(&sw, vs, split, vdsMax, xs, ys)
				e.S1 = pinnedLine(xs, ys, split, iSplit)
				e.S2 = iSplit - e.S1*split
			} else {
				// No saturation headroom: extend the triode quadratic
				// linearly past the split.
				e.S1 = e.T1 + 2*e.T2*split
				e.S2 = iSplit - e.S1*split
			}
		} else {
			// The device saturates immediately: a free linear fit over
			// the whole range, mirrored into the triode branch.
			t.sweepVds(&sw, vs, 0, vdsMax, xs, ys)
			var fit [2]float64
			if err := la.PolyFit(fit[:], xs, ys); err != nil {
				return fmt.Errorf("devmodel: fit at vg=%g vs=%g: %w", vg, vs, err)
			}
			e.S2, e.S1 = fit[0], fit[1]
			e.T0, e.T1, e.T2 = e.S2, e.S1, 0
		}
	}
	return nil
}

// originQuad fits y ≈ t1·x + t2·x² (zero intercept) by least squares in
// conductance space: dividing through by x turns the problem into the
// ordinary linear fit y/x ≈ t1 + t2·x. The implicit 1/x² weighting keeps the
// *relative* current error small in the deep triode region, where series
// stack devices spend most of their time. zx and zs are empty buffers with
// room for every sample.
func originQuad(xs, ys, zx, zs []float64) (t1, t2 float64) {
	for i, x := range xs {
		if x <= 0 {
			continue
		}
		zx = append(zx, x)
		zs = append(zs, ys[i]/x)
	}
	var fit [2]float64
	if err := la.PolyFit(fit[:], zx, zs); err != nil {
		return 0, 0
	}
	return fit[0], fit[1]
}

// pinnedLine least-squares-fits y ≈ y0 + s·(x−x0) with the value pinned at
// (x0, y0), returning the slope s — the saturation fit, kept continuous
// with the triode branch.
func pinnedLine(xs, ys []float64, x0, y0 float64) float64 {
	var sxx, sxy float64
	for i, x := range xs {
		dx := x - x0
		sxx += dx * dx
		sxy += dx * (ys[i] - y0)
	}
	if sxx < 1e-300 {
		return 0
	}
	return sxy / sxx
}

// sweep returns the golden model's drain sweep at folded (vg, vs).
func (t *Table) sweep(vg, vs float64) mos.DrainSweep {
	if t.Pol == mos.PMOS {
		return t.params.Sweep(t.WRef, t.L, t.VDD-vg, t.VDD-vs, t.body)
	}
	return t.params.Sweep(t.WRef, t.L, vg, vs, t.body)
}

// sample returns the folded channel current of the golden model at folded
// drain voltage vd: positive current from the folded-drain (upper) to
// folded-source (lower) terminal.
func (t *Table) sample(sw *mos.DrainSweep, vd float64) float64 {
	if t.Pol == mos.PMOS {
		return -sw.I(t.VDD - vd)
	}
	return sw.I(vd)
}

// sweepVds samples the folded current at len(xs) evenly spaced Vds over
// [lo, hi] above the source vs into xs and ys.
func (t *Table) sweepVds(sw *mos.DrainSweep, vs, lo, hi float64, xs, ys []float64) {
	n := len(xs) - 1
	for i := range xs {
		vds := lo + (hi-lo)*float64(i)/float64(n)
		xs[i] = vds
		ys[i] = t.sample(sw, vs+vds)
	}
}

func (t *Table) foldedVth(vs float64) float64 {
	if t.Pol == mos.PMOS {
		return t.params.Vth(t.VDD-vs, t.body)
	}
	return t.params.Vth(vs, t.body)
}

func (t *Table) foldedVdsat(vg, vs float64) float64 {
	if t.Pol == mos.PMOS {
		return t.params.VdsatValue(t.L, t.VDD-vg, t.VDD-vs, t.body)
	}
	return t.params.VdsatValue(t.L, vg, vs, t.body)
}

// IV is the paper's iv mapping in folded coordinates: the current through a
// device of width w with folded gate voltage vg, upper (drain-side) node
// voltage vd and lower (source-side) node voltage vs, together with the
// partial derivatives the QWM Jacobian assembles. Reverse conduction
// (vd < vs) is handled by the MOSFET's source/drain symmetry.
func (t *Table) IV(w, vg, vd, vs float64) (i, dvg, dvd, dvs float64) {
	if vd < vs {
		i, dvg, dvs, dvd = t.ivForward(w, vg, vs, vd)
		return -i, -dvg, -dvd, -dvs
	}
	return t.ivForward(w, vg, vd, vs)
}

// ivForward evaluates with vd ≥ vs via bilinear interpolation over the
// (vg, vs) grid. Every corner's fitted polynomial is evaluated at the
// query's Vds = vd − vs (the fast analytic variable), so the interpolation
// in vs only carries the smooth body-effect dependence and the interpolant
// keeps the physical near-symmetry ∂I/∂Vs ≈ −∂I/∂Vd at small Vds — an
// iteration-stability requirement for the chord-based solvers.
func (t *Table) ivForward(w, vg, vd, vs float64) (i, dvg, dvd, dvs float64) {
	scale := w / t.WRef
	ig, fg := t.locate(vg)
	is, fs := t.locate(vs)
	vds := vd - vs
	if vds < 0 {
		vds = 0
	}

	// The four corners: row ig (lo) and ig+1 (hi), columns is and is+1.
	k := ig*t.N + is
	lo, hi := t.flat[k:k+2], t.flat[k+t.N:k+t.N+2]
	i00, g00 := lo[0].Eval(vds)
	i01, g01 := lo[1].Eval(vds)
	i10, g10 := hi[0].Eval(vds)
	i11, g11 := hi[1].Eval(vds)
	iLo := i00*(1-fs) + i01*fs
	iHi := i10*(1-fs) + i11*fs
	i = scale * (iLo*(1-fg) + iHi*fg)
	dvd = scale * ((g00*(1-fs)+g01*fs)*(1-fg) + (g10*(1-fs)+g11*fs)*fg)
	// ∂/∂Vg of the bilinear weights.
	dvg = scale * (iHi - iLo) / t.StepV
	// ∂/∂Vs: the weight term (body effect) plus the −∂I/∂Vds term from the
	// query Vds shrinking as vs rises.
	dIs := (i01*(1-fg) + i11*fg) - (i00*(1-fg) + i10*fg)
	dvs = scale*dIs/t.StepV - dvd
	return i, dvg, dvd, dvs
}

// locate returns the lower grid index and fractional position for a voltage,
// clamped to the table range; negative and NaN voltages clamp to the first
// grid point. Inside the range int truncation is the floor, without the
// math.Floor call.
func (t *Table) locate(v float64) (int, float64) {
	x := v / t.StepV
	if !(x > 0) {
		return 0, 0
	}
	if x >= float64(t.N-1) {
		return t.N - 2, 1
	}
	i := int(x)
	return i, x - float64(i)
}

// Threshold returns the folded threshold voltage for a device whose lower
// (source-side) node sits at vs — the quantity the turn-on condition
// G = V_lower + Vth uses (paper Eq. 7, last line).
func (t *Table) Threshold(vs float64) float64 {
	is, fs := t.locate(vs)
	return t.flat[is].Vth*(1-fs) + t.flat[is+1].Vth*fs
}

// Vdsat returns the interpolated saturation voltage at folded (vg, vs).
func (t *Table) Vdsat(vg, vs float64) float64 {
	ig, fg := t.locate(vg)
	is, fs := t.locate(vs)
	k := ig*t.N + is
	v00 := t.flat[k].Vdsat
	v01 := t.flat[k+1].Vdsat
	v10 := t.flat[k+t.N].Vdsat
	v11 := t.flat[k+t.N+1].Vdsat
	return (v00*(1-fs)+v01*fs)*(1-fg) + (v10*(1-fs)+v11*fs)*fg
}

// Params exposes the underlying golden parameter set (for capacitance
// queries, which are not tabulated).
func (t *Table) Params() *mos.Params { return t.params }

// Entries returns the total number of stored grid entries (for memory
// accounting in the characterization example).
func (t *Table) Entries() int { return t.N * t.N }
