package bench

import (
	"fmt"
	"strings"

	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/qwm"
	"qwm/internal/spice"
	"qwm/internal/stages"
	"qwm/internal/wave"
)

// Table1 regenerates the paper's Table I: QWM vs the SPICE baseline on
// minimum-size logic gates (inv, nand2, nand3, nand4) at 1 ps and 10 ps
// steps.
func (h *Harness) Table1() ([]*Row, error) {
	ws, err := stages.TableI(h.Tech)
	if err != nil {
		return nil, err
	}
	return h.compareRows(ws)
}

// Table2 regenerates the paper's Table II: randomly sized NMOS stacks of
// length 5–10, three width configurations each.
func (h *Harness) Table2() ([]*Row, error) {
	ws, err := stages.TableII(h.Tech)
	if err != nil {
		return nil, err
	}
	return h.compareRows(ws)
}

func (h *Harness) compareRows(ws []*stages.Workload) ([]*Row, error) {
	rows := make([]*Row, 0, len(ws))
	for _, w := range ws {
		row, err := h.CompareRow(w, qwm.Options{})
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable renders rows in the layout of the paper's tables.
func FormatTable(title string, rows []*Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-10s %12s %9s %12s %9s %12s %9s %8s\n",
		"circuit", "spice1ps", "speedup", "spice10ps", "speedup", "qwm", "delay(ps)", "err%")
	var sum1, sum10, sumErr float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12v %8.1fx %12v %8.1fx %12v %9.2f %7.2f%%\n",
			r.Name, r.Spice1ps.Runtime, r.Speedup1, r.Spice10ps.Runtime, r.Speedup10,
			r.QWM.Runtime, r.QWMDelayPs, r.ErrorPct)
		sum1 += r.Speedup1
		sum10 += r.Speedup10
		sumErr += r.ErrorPct
	}
	n := float64(len(rows))
	fmt.Fprintf(&b, "%-10s %12s %8.1fx %12s %8.1fx %12s %9s %7.2f%%\n",
		"average", "", sum1/n, "", sum10/n, "", "", sumErr/n)
	return b.String()
}

// Series is a named data series for figure regeneration.
type Series struct {
	Name string
	X, Y []float64
}

// FormatSeries renders series as aligned TSV columns (x, then one column
// per series), suitable for gnuplot.
func FormatSeries(series []*Series) string {
	if len(series) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString("# x")
	for _, s := range series {
		fmt.Fprintf(&b, "\t%s", s.Name)
	}
	b.WriteByte('\n')
	// Series share X in our generators; verify and emit row-wise.
	n := len(series[0].X)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%.6g", series[0].X[i])
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(&b, "\t%.6g", s.Y[i])
			} else {
				b.WriteString("\t-")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig5 regenerates the device-model surface of paper Fig. 5: NMOS drain
// current versus source and drain voltage at full gate drive.
func (h *Harness) Fig5() ([]*Series, error) {
	tbl, err := h.Lib.Table(mos.NMOS, h.Tech.LMin)
	if err != nil {
		return nil, err
	}
	var series []*Series
	for _, vs := range []float64{0, 0.5, 1.0, 1.5, 2.0} {
		s := &Series{Name: fmt.Sprintf("Ids(Vs=%.1f)", vs)}
		for vd := 0.0; vd <= h.Tech.VDD+1e-9; vd += 0.05 {
			i, _, _, _ := tbl.IV(1e-6, h.Tech.VDD, vd, vs)
			s.X = append(s.X, vd)
			s.Y = append(s.Y, i)
		}
		series = append(series, s)
	}
	return series, nil
}

// Fig7 regenerates the discharge-current plot of paper Fig. 7: the current
// of every node of a 6-NMOS stack over time, showing the single peak at
// each critical point. Currents are reconstructed from the SPICE node
// trajectories through the golden device model.
func (h *Harness) Fig7() ([]*Series, error) {
	w, err := stages.CarryChainStack(h.Tech)
	if err != nil {
		return nil, err
	}
	s, err := spice.New(w.Netlist, h.Tech, false)
	if err != nil {
		return nil, err
	}
	res, err := s.Transient(spice.Options{TStop: 600e-12, Step: 1e-12, IC: w.IC})
	if err != nil {
		return nil, err
	}
	nodes := w.Path.InternalNodes()
	waves := make([]*wave.PWL, len(nodes))
	for i, nd := range nodes {
		waves[i], err = res.Waveform(nd)
		if err != nil {
			return nil, err
		}
	}
	elems := w.Path.Elems
	var series []*Series
	for k := range nodes {
		series = append(series, &Series{Name: "I(" + nodes[k] + ")"})
	}
	vAt := func(k int, t float64) float64 { // node index 0..K, 0 = rail
		if k == 0 {
			return 0
		}
		return waves[k-1].Eval(t)
	}
	for ti := 0; ti < len(res.T); ti += 2 {
		t := res.T[ti]
		for k := 1; k <= len(nodes); k++ {
			below := h.Tech.N.Ids(elems[k-1].Edge.W, elems[k-1].Edge.L, h.Tech.VDD, vAt(k, t), vAt(k-1, t), 0).I
			if k == 1 && t < w.SwitchAt {
				below = 0
			}
			var above float64
			if k < len(nodes) {
				above = h.Tech.N.Ids(elems[k].Edge.W, elems[k].Edge.L, h.Tech.VDD, vAt(k+1, t), vAt(k, t), 0).I
			}
			series[k-1].X = append(series[k-1].X, t)
			series[k-1].Y = append(series[k-1].Y, above-below)
		}
	}
	return series, nil
}

// Fig8 regenerates the I/V curve-fitting plot of paper Fig. 8: sampled
// currents versus the linear (saturation) and quadratic (triode) fits at a
// representative (Vg, Vs) grid point.
func (h *Harness) Fig8() ([]*Series, error) {
	tbl, err := h.Lib.Table(mos.NMOS, h.Tech.LMin)
	if err != nil {
		return nil, err
	}
	ana := devmodel.NewAnalytic(&h.Tech.N, h.Tech, h.Tech.LMin)
	sample := &Series{Name: "samples"}
	fit := &Series{Name: "fit"}
	const vg, vs = 3.3, 0.0
	for vds := 0.0; vds <= h.Tech.VDD+1e-9; vds += 0.05 {
		ia, _, _, _ := ana.IV(1e-6, vg, vs+vds, vs)
		it, _, _, _ := tbl.IV(1e-6, vg, vs+vds, vs)
		sample.X = append(sample.X, vds)
		sample.Y = append(sample.Y, ia)
		fit.X = append(fit.X, vds)
		fit.Y = append(fit.Y, it)
	}
	return []*Series{sample, fit}, nil
}

// Fig9 regenerates paper Fig. 9: the 6-NMOS stack (Manchester carry chain
// worst path) node waveforms — QWM's critical-point polyline against the
// SPICE reference.
func (h *Harness) Fig9() ([]*Series, error) {
	w, err := stages.CarryChainStack(h.Tech)
	if err != nil {
		return nil, err
	}
	return h.waveformPairs(w, 600e-12)
}

// Fig10 regenerates paper Fig. 10: the decoder-tree node waveforms with
// AWE π-modeled wires; the closely spaced pairs are the two ends of each
// wire segment.
func (h *Harness) Fig10() ([]*Series, error) {
	w, err := stages.DecoderTree(h.Tech, 3, 2e-6, 50e-6, 20e-15, 0)
	if err != nil {
		return nil, err
	}
	return h.waveformPairs(w, 800e-12)
}

// waveformPairs samples QWM and SPICE node waveforms on a common grid.
func (h *Harness) waveformPairs(w *stages.Workload, tstop float64) ([]*Series, error) {
	ch, err := qwm.Build(qwm.BuildInput{
		Tech: h.Tech, Lib: h.Lib, Stage: w.Stage, Path: w.Path,
		Inputs: w.Inputs, Loads: w.Loads, V0: w.IC,
	})
	if err != nil {
		return nil, err
	}
	qres, err := qwm.Evaluate(ch, qwm.Options{})
	if err != nil {
		return nil, err
	}
	s, err := spice.New(w.Netlist, h.Tech, false)
	if err != nil {
		return nil, err
	}
	sres, err := s.Transient(spice.Options{TStop: tstop, Step: 1e-12, IC: w.IC})
	if err != nil {
		return nil, err
	}
	nodes := w.Path.InternalNodes()
	var series []*Series
	const nPts = 241
	for i, nd := range nodes {
		qs := &Series{Name: "qwm:" + nd}
		ss := &Series{Name: "spice:" + nd}
		sw, err := sres.Waveform(nd)
		if err != nil {
			return nil, err
		}
		for p := 0; p < nPts; p++ {
			t := tstop * float64(p) / float64(nPts-1)
			qs.X = append(qs.X, t)
			qs.Y = append(qs.Y, qres.Nodes[i].Eval(t))
			ss.X = append(ss.X, t)
			ss.Y = append(ss.Y, sw.Eval(t))
		}
		series = append(series, qs, ss)
	}
	return series, nil
}
