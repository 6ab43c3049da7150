package devmodel

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"qwm/internal/mos"
)

var (
	tech   = mos.CMOSP35()
	nTable *Table
	pTable *Table
)

func init() {
	var err error
	nTable, err = Characterize(&tech.N, tech, 0.35e-6, 0.1)
	if err != nil {
		panic(err)
	}
	pTable, err = Characterize(&tech.P, tech, 0.35e-6, 0.1)
	if err != nil {
		panic(err)
	}
}

func feq(a, b, tol float64) bool { return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b)) }

func TestTableMatchesAnalyticOnGrid(t *testing.T) {
	// At grid points, only the Vds fit error remains (the paper's Fig. 8
	// residual): require better than 3.5 % — the worst case sits at the
	// triode/saturation knee the two-piece fit straddles.
	ana := NewAnalytic(&tech.N, tech, 0.35e-6)
	w := 1e-6
	for _, vg := range []float64{1.0, 2.0, 3.3} {
		for _, vs := range []float64{0, 0.5, 1.5} {
			for _, vd := range []float64{0.2, 1.0, 2.2, 3.3} {
				if vd <= vs {
					continue
				}
				it, _, _, _ := nTable.IV(w, vg, vd, vs)
				ia, _, _, _ := ana.IV(w, vg, vd, vs)
				if math.Abs(it-ia) > 0.035*math.Abs(ia)+1e-7 {
					t.Errorf("vg=%g vd=%g vs=%g: table %g vs analytic %g", vg, vd, vs, it, ia)
				}
			}
		}
	}
}

// The table's average relative error over the strong-inversion operating
// space must stay near the paper's ~1 % characterization quality.
func TestTableAverageAccuracyStrongInversion(t *testing.T) {
	ana := NewAnalytic(&tech.N, tech, 0.35e-6)
	sum, cnt := 0.0, 0
	for vg := 0.8; vg <= 3.31; vg += 0.137 {
		for vs := 0.0; vs <= 2.4; vs += 0.117 {
			if vg-vs-tech.N.Vth(vs, 0) < 0.3 {
				continue
			}
			for vd := vs + 0.05; vd <= 3.3; vd += 0.093 {
				it, _, _, _ := nTable.IV(1e-6, vg, vd, vs)
				ia, _, _, _ := ana.IV(1e-6, vg, vd, vs)
				sum += math.Abs(it-ia) / (math.Abs(ia) + 1e-6)
				cnt++
			}
		}
	}
	avg := 100 * sum / float64(cnt)
	if avg > 2.0 {
		t.Errorf("average strong-inversion error %.2f%%, want < 2%%", avg)
	}
}

// Property: off-grid strong-inversion queries stay within bilinear
// interpolation distance of the analytic model. Near threshold the current
// varies super-linearly across a 0.1 V grid cell, so the guarantee is
// restricted to healthy gate overdrive — the regime that carries the
// discharge current.
func TestTableAccuracyOffGridProperty(t *testing.T) {
	ana := NewAnalytic(&tech.N, tech, 0.35e-6)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vs := 2.0 * r.Float64()
		vth := tech.N.Vth(vs, 0)
		vg := vs + vth + 0.5 + (3.3-vs-vth-0.5)*r.Float64()
		if vg > 3.3 {
			return true
		}
		vd := vs + 0.05 + (3.3-vs-0.05)*r.Float64()
		w := (0.5 + 4*r.Float64()) * 1e-6
		it, _, _, _ := nTable.IV(w, vg, vd, vs)
		ia, _, _, _ := ana.IV(w, vg, vd, vs)
		return math.Abs(it-ia) <= 0.08*math.Abs(ia)+1e-6*w/1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTableWidthScaling(t *testing.T) {
	i1, _, _, _ := nTable.IV(1e-6, 3.3, 2.0, 0)
	i2, _, _, _ := nTable.IV(3e-6, 3.3, 2.0, 0)
	if !feq(i2, 3*i1, 1e-12) {
		t.Errorf("width scaling: %g vs %g", i2, 3*i1)
	}
}

func TestTableReverseConduction(t *testing.T) {
	// vd < vs: current must be the negated swap.
	fwd, _, _, _ := nTable.IV(1e-6, 3.3, 2.0, 1.0)
	rev, _, _, _ := nTable.IV(1e-6, 3.3, 1.0, 2.0)
	if !feq(rev, -fwd, 1e-12) {
		t.Errorf("reverse = %g, want %g", rev, -fwd)
	}
}

func TestTableDerivativesMatchFD(t *testing.T) {
	w := 1.5e-6
	const h = 1e-4
	// Interior points only: at the vg = VDD grid boundary a central finite
	// difference straddles the clamped extrapolation region.
	for _, c := range []struct{ vg, vd, vs float64 }{
		{3.15, 2.5, 0.4}, {2.2, 1.7, 0.9}, {1.4, 0.8, 0.15}, {3.0, 3.1, 2.3},
	} {
		_, dvg, dvd, dvs := nTable.IV(w, c.vg, c.vd, c.vs)
		ip := func(vg, vd, vs float64) float64 {
			i, _, _, _ := nTable.IV(w, vg, vd, vs)
			return i
		}
		fdg := (ip(c.vg+h, c.vd, c.vs) - ip(c.vg-h, c.vd, c.vs)) / (2 * h)
		fdd := (ip(c.vg, c.vd+h, c.vs) - ip(c.vg, c.vd-h, c.vs)) / (2 * h)
		fds := (ip(c.vg, c.vd, c.vs+h) - ip(c.vg, c.vd, c.vs-h)) / (2 * h)
		scale := math.Abs(ip(c.vg, c.vd, c.vs)) + 1e-6
		// The interpolant is piecewise; allow loose agreement away from cell
		// boundaries.
		if math.Abs(dvg-fdg) > 0.02*scale/0.1 && math.Abs(dvg-fdg) > 0.05*math.Abs(fdg)+1e-7 {
			t.Errorf("%+v: dvg %g vs fd %g", c, dvg, fdg)
		}
		if math.Abs(dvd-fdd) > 0.05*math.Abs(fdd)+1e-7 {
			t.Errorf("%+v: dvd %g vs fd %g", c, dvd, fdd)
		}
		if math.Abs(dvs-fds) > 0.05*math.Abs(fds)+0.03*scale/0.1+1e-7 {
			t.Errorf("%+v: dvs %g vs fd %g", c, dvs, fds)
		}
	}
}

func TestPMOSFoldedTableMatchesGolden(t *testing.T) {
	// Folded PMOS current at (vg', vd', vs') equals −Ids at unfolded nodes.
	w := 2e-6
	for _, c := range []struct{ vg, vd, vs float64 }{
		{3.3, 2.5, 0.3}, {2.5, 1.5, 0.2}, {3.0, 3.0, 1.0},
	} {
		it, _, _, _ := pTable.IV(w, c.vg, c.vd, c.vs)
		want := -tech.P.Ids(w, 0.35e-6, tech.VDD-c.vg, tech.VDD-c.vd, tech.VDD-c.vs, tech.VDD).I
		if math.Abs(it-want) > 0.05*math.Abs(want)+1e-6 {
			t.Errorf("%+v: folded table %g vs golden %g", c, it, want)
		}
		if want > 0 && it <= 0 {
			t.Errorf("%+v: folded current should be positive", c)
		}
	}
}

func TestThresholdInterpolation(t *testing.T) {
	// Table threshold should track the golden Vth within interpolation error.
	for _, vs := range []float64{0, 0.37, 1.0, 2.21} {
		got := nTable.Threshold(vs)
		want := tech.N.Vth(vs, 0)
		if math.Abs(got-want) > 5e-3 {
			t.Errorf("Threshold(%g) = %g, want %g", vs, got, want)
		}
	}
	if nTable.Threshold(0) >= nTable.Threshold(1.5) {
		t.Error("threshold should rise with source voltage (body effect)")
	}
}

func TestVdsatInterpolation(t *testing.T) {
	got := nTable.Vdsat(3.3, 0)
	want := tech.N.VdsatValue(0.35e-6, 3.3, 0, 0)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("Vdsat = %g, want %g", got, want)
	}
	if nTable.Vdsat(1.2, 0) >= nTable.Vdsat(3.3, 0) {
		t.Error("Vdsat should grow with gate drive")
	}
}

func TestEntryEvalContinuity(t *testing.T) {
	// Triode and saturation fits should roughly meet at Vdsat for a strongly
	// on grid point.
	ig, is := nTable.N-1, 0 // vg = VDD, vs = 0
	e := &nTable.Grid[ig][is]
	iT, _ := e.Eval(e.Vdsat - 1e-9)
	iS, _ := e.Eval(e.Vdsat + 1e-9)
	if math.Abs(iT-iS) > 0.03*math.Abs(iS) {
		t.Errorf("fit discontinuity at Vdsat: %g vs %g", iT, iS)
	}
}

func TestTableOffStateSmallCurrent(t *testing.T) {
	i, _, _, _ := nTable.IV(1e-6, 0, 3.3, 0)
	if math.Abs(i) > 1e-7 {
		t.Errorf("off-state current too large: %g", i)
	}
}

func TestCharacterizeValidation(t *testing.T) {
	if _, err := Characterize(&tech.N, tech, 0.35e-6, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := Characterize(&tech.N, tech, 0, 0.1); err == nil {
		t.Error("zero length accepted")
	}
}

func TestLibraryCaches(t *testing.T) {
	lib := NewLibrary(tech)
	t1, err := lib.Table(mos.NMOS, 0.35e-6)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := lib.Table(mos.NMOS, 0.35e-6)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("library did not cache the table")
	}
	t3, err := lib.Table(mos.PMOS, 0.35e-6)
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 {
		t.Error("distinct polarity should get a distinct table")
	}
	if t1.Entries() != t1.N*t1.N {
		t.Error("Entries accounting wrong")
	}
}

// A characterization runs outside every lock other lookups take: while one
// blocks, a lookup of a built table and the junction tables answer, and
// eight concurrent first callers of the new key share one build.
func TestLibraryBuildsOutsideLock(t *testing.T) {
	lib := NewLibrary(tech)
	built, err := lib.Table(mos.NMOS, tech.LMin)
	if err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	var builds atomic.Int32
	lib.characterize = func(p *mos.Params, tech *mos.Tech, l, step float64) (*Table, error) {
		if builds.Add(1) == 1 {
			close(started)
		}
		<-release
		return Characterize(p, tech, l, step)
	}
	const callers = 8
	got := make([]*Table, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tb, err := lib.Table(mos.NMOS, 1e-6)
			if err != nil {
				t.Error(err)
			}
			got[i] = tb
		}(i)
	}
	<-started

	answered := make(chan *Table, 1)
	go func() {
		tb, _ := lib.Table(mos.NMOS, tech.LMin)
		lib.Junction(mos.PMOS)
		answered <- tb
	}()
	select {
	case tb := <-answered:
		if tb != built {
			t.Error("lookup of a built key returned a different table")
		}
	case <-time.After(10 * time.Second):
		t.Error("lookup of a built key waited behind a characterization")
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d characterizations of one key, want 1", n)
	}
	for i, tb := range got {
		if tb == nil || tb != got[0] {
			t.Fatalf("caller %d got table %p, caller 0 got %p", i, tb, got[0])
		}
	}
}

// A lookup of a built table allocates nothing; qwm.Build makes one per path
// transistor.
func TestLibraryLookupZeroAllocs(t *testing.T) {
	lib := NewLibrary(tech)
	if _, err := lib.Table(mos.PMOS, tech.LMin); err != nil {
		t.Fatal(err)
	}
	lib.Junction(mos.PMOS)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := lib.Table(mos.PMOS, tech.LMin); err != nil {
			t.Fatal(err)
		}
		lib.Junction(mos.PMOS)
	})
	if allocs != 0 {
		t.Errorf("built-table lookup allocated %.1f times, want 0", allocs)
	}
}

// Characterizing one table reuses its sample and fit buffers per grid row.
// Before the drain sweep and the row buffers it made 58,252 allocations.
func TestCharacterizeAllocBudget(t *testing.T) {
	const budget = 1000
	for _, p := range []*mos.Params{&tech.N, &tech.P} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := Characterize(p, tech, tech.LMin, 0.1); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: %.0f allocations per table", p.Pol, allocs)
		if allocs > budget {
			t.Errorf("%v: %.0f allocations per table, budget %d", p.Pol, allocs, budget)
		}
	}
}

func TestAnalyticAdapterDerivatives(t *testing.T) {
	ana := NewAnalytic(&tech.P, tech, 0.35e-6)
	const h = 1e-6
	vg, vd, vs, w := 2.8, 2.0, 0.4, 1e-6
	_, dvg, dvd, dvs := ana.IV(w, vg, vd, vs)
	ip := func(vg, vd, vs float64) float64 {
		i, _, _, _ := ana.IV(w, vg, vd, vs)
		return i
	}
	fdg := (ip(vg+h, vd, vs) - ip(vg-h, vd, vs)) / (2 * h)
	fdd := (ip(vg, vd+h, vs) - ip(vg, vd-h, vs)) / (2 * h)
	fds := (ip(vg, vd, vs+h) - ip(vg, vd, vs-h)) / (2 * h)
	if !feq(dvg, fdg, 1e-3) || !feq(dvd, fdd, 1e-3) || !feq(dvs, fds, 1e-3) {
		t.Errorf("folded analytic derivatives mismatch FD: (%g,%g,%g) vs (%g,%g,%g)",
			dvg, dvd, dvs, fdg, fdd, fds)
	}
}

// Ablation: halving the characterization grid pitch reduces the average
// interpolation error (the paper's "as long as the grid size is fine
// enough" remark, traded against table memory).
func TestGridPitchAblation(t *testing.T) {
	ana := NewAnalytic(&tech.N, tech, 0.35e-6)
	avgErr := func(tbl *Table) float64 {
		sum, cnt := 0.0, 0
		for vg := 0.9; vg <= 3.3; vg += 0.17 {
			for vs := 0.0; vs <= 2.2; vs += 0.13 {
				if vg-vs-tech.N.Vth(vs, 0) < 0.3 {
					continue
				}
				for vd := vs + 0.07; vd <= 3.3; vd += 0.21 {
					it, _, _, _ := tbl.IV(1e-6, vg, vd, vs)
					ia, _, _, _ := ana.IV(1e-6, vg, vd, vs)
					sum += math.Abs(it-ia) / (math.Abs(ia) + 1e-6)
					cnt++
				}
			}
		}
		return sum / float64(cnt)
	}
	coarse, err := Characterize(&tech.N, tech, 0.35e-6, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Characterize(&tech.N, tech, 0.35e-6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	eCoarse, eMid, eFine := avgErr(coarse), avgErr(nTable), avgErr(fine)
	if !(eFine < eMid && eMid < eCoarse) {
		t.Errorf("error should fall with pitch: 0.3V %.4f, 0.1V %.4f, 0.05V %.4f",
			eCoarse, eMid, eFine)
	}
	// Memory grows roughly quadratically with 1/pitch (≈ 3.9× from the
	// +1-fencepost at this range).
	if fine.Entries() <= 3*nTable.Entries() {
		t.Errorf("entry counts: fine %d vs default %d", fine.Entries(), nTable.Entries())
	}
}

// gridIV is the reference table lookup: bilinear interpolation over the
// two-level Grid with every corner's fit evaluated at the query's Vds, in
// the same arithmetic order as Table.IV.
func gridIV(t *Table, w, vg, vd, vs float64) (i, dvg, dvd, dvs float64) {
	if vd < vs {
		i, dvg, dvs, dvd = gridIV(t, w, vg, vs, vd)
		return -i, -dvg, -dvd, -dvs
	}
	scale := w / t.WRef
	ig, fg := t.locate(vg)
	is, fs := t.locate(vs)
	vds := math.Max(vd-vs, 0)
	var iv, gv [2][2]float64
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			iv[a][b], gv[a][b] = t.Grid[ig+a][is+b].Eval(vds)
		}
	}
	lerp := func(m [2][2]float64) float64 {
		top := m[0][0]*(1-fs) + m[0][1]*fs
		bot := m[1][0]*(1-fs) + m[1][1]*fs
		return top*(1-fg) + bot*fg
	}
	i = scale * lerp(iv)
	dvd = scale * lerp(gv)
	dIg := (iv[1][0]*(1-fs) + iv[1][1]*fs) - (iv[0][0]*(1-fs) + iv[0][1]*fs)
	dvg = scale * dIg / t.StepV
	dIs := (iv[0][1]*(1-fg) + iv[1][1]*fg) - (iv[0][0]*(1-fg) + iv[1][0]*fg)
	dvs = scale*dIs/t.StepV - dvd
	return i, dvg, dvd, dvs
}

// The flat-array lookup must reproduce the Grid bilinear evaluation bit for
// bit — current and all three derivatives — on a dense sweep that covers
// cell interiors, the neighbourhood of grid lines, both clamped edges and
// reverse conduction, for both polarities.
func TestIVMatchesGridBilinearBitExact(t *testing.T) {
	const w = 1.7e-6
	for _, tbl := range []*Table{nTable, pTable} {
		n := 0
		for vg := -0.1; vg <= tbl.VDD+0.1; vg += 0.0525 {
			for vd := -0.1; vd <= tbl.VDD+0.1; vd += 0.0875 {
				for vs := -0.1; vs <= tbl.VDD+0.1; vs += 0.0875 {
					i, dg, dd, ds := tbl.IV(w, vg, vd, vs)
					ri, rg, rd, rs := gridIV(tbl, w, vg, vd, vs)
					if math.Float64bits(i) != math.Float64bits(ri) || math.Float64bits(dg) != math.Float64bits(rg) ||
						math.Float64bits(dd) != math.Float64bits(rd) || math.Float64bits(ds) != math.Float64bits(rs) {
						t.Fatalf("%v vg=%g vd=%g vs=%g: IV (%g, %g, %g, %g), grid reference (%g, %g, %g, %g)",
							tbl.Pol, vg, vd, vs, i, dg, dd, ds, ri, rg, rd, rs)
					}
					n++
				}
			}
		}
		if n < 50000 {
			t.Fatalf("%v: sweep covered only %d points", tbl.Pol, n)
		}
	}
}

// locate truncates instead of calling math.Floor: for every voltage at or
// above zero it must return exactly what the floor-based lookup did, and
// negative or NaN voltages must still clamp to the first grid point.
func TestLocateMatchesFloor(t *testing.T) {
	ref := func(tb *Table, v float64) (int, float64) {
		x := v / tb.StepV
		i := int(math.Floor(x))
		if i < 0 {
			return 0, 0
		}
		if i >= tb.N-1 {
			return tb.N - 2, 1
		}
		return i, x - float64(i)
	}
	var vs []float64
	for k := 0; k <= 4000; k++ {
		v := 4 * float64(k) / 4000
		vs = append(vs, v, math.Nextafter(v, 0), math.Nextafter(v, 10))
	}
	for k := 0; k < nTable.N; k++ {
		g := float64(k) * nTable.StepV
		vs = append(vs, g, math.Nextafter(g, -1), math.Nextafter(g, 10))
	}
	for _, v := range vs {
		if v < 0 {
			continue
		}
		i, f := nTable.locate(v)
		ri, rf := ref(nTable, v)
		if i != ri || f != rf {
			t.Fatalf("locate(%v) = (%d, %v), floor reference (%d, %v)", v, i, f, ri, rf)
		}
	}
	for _, v := range []float64{-1e-300, -0.05, -7, math.Inf(-1), math.NaN()} {
		if i, f := nTable.locate(v); i != 0 || f != 0 {
			t.Errorf("locate(%v) = (%d, %v), want (0, 0)", v, i, f)
		}
	}
}
