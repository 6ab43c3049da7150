package verify

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"

	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/obs"
	"qwm/internal/reduce"
	"qwm/internal/sta"
	"qwm/internal/stages"
)

// HotPathCase is one generated workload for the hot-path feature
// differential: a wide fanout netlist (stages.WideNetlist) with long series
// wire runs — the shape the reduction pre-pass collapses. Light and Heavy
// share the structure and the net names; Heavy scales every branch output
// load, which is the sibling aliasing trap: the loads are part of the cache
// key, so one analyzer must never serve Heavy from Light's entries.
type HotPathCase struct {
	Name      string
	Fan, Segs int
	Light     *AnalyzeCase
	Heavy     *AnalyzeCase
}

// GenHotPathCase draws a wide netlist with 3–8 identical branches, 12–24
// wire segments per branch, and a heavy-load sibling scaled 6–30×.
func GenHotPathCase(tech *mos.Tech, r *rand.Rand, i int) (*HotPathCase, error) {
	fan := 3 + r.Intn(6)
	segs := 12 + r.Intn(13)
	w := (0.8 + 1.4*r.Float64()) * 1e-6
	cl := (2 + 10*r.Float64()) * 1e-15
	scale := 6 + 24*r.Float64()
	arrival := r.Float64() * 120e-12
	slew := r.Float64() * 90e-12
	build := func(load float64) (*AnalyzeCase, error) {
		nl, ins, outs, err := stages.WideNetlist(tech, fan, segs, w, load)
		if err != nil {
			return nil, err
		}
		primary := make(map[string]sta.Arrival, len(ins))
		for _, in := range ins {
			primary[in] = sta.Arrival{
				Rise: arrival, Fall: arrival,
				RiseSlew: slew, FallSlew: slew,
			}
		}
		return &AnalyzeCase{Netlist: nl, Primary: primary, Outputs: outs}, nil
	}
	light, err := build(cl)
	if err != nil {
		return nil, err
	}
	heavy, err := build(cl * scale)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("wide%03d-f%d-s%d", i, fan, segs)
	light.Name, heavy.Name = name+"-light", name+"-heavy"
	return &HotPathCase{Name: name, Fan: fan, Segs: segs, Light: light, Heavy: heavy}, nil
}

// HotPathDiff is the outcome of one hot-path feature differential. Four
// legs:
//
//  1. reduction explicitly disabled ⇒ bit-identical to the default engine
//     (and no reduction activity reported);
//  2. reduction on ⇒ every output arrival within the configured tolerance
//     of the exact run, with the reduction demonstrably active;
//  3. reduction on, serial vs parallel ⇒ bit-identical arrivals, critical
//     path and accounting;
//  4. Light then Heavy on one shared reduction-on analyzer ⇒ Heavy
//     bit-identical to a fresh reduction-on analyzer (the aliasing trap),
//     and measurably different from Light.
type HotPathDiff struct {
	Name string `json:"name"`
	// MaxErrPct is the worst reduction-on arrival deviation from the exact
	// run, in percent (leg 2).
	MaxErrPct float64 `json:"max_err_pct"`
	// ReducedNodes echoes the reduction-on run's diagnostics so the report
	// shows the pre-pass actually fired.
	ReducedNodes int      `json:"reduced_nodes"`
	Mismatches   []string `json:"mismatches,omitempty"`
	Pass         bool     `json:"pass"`
	Err          string   `json:"err,omitempty"`
}

// analyzeHot runs one case on a fresh analyzer with the given reduction
// configuration and worker count.
func analyzeHot(tech *mos.Tech, lib *devmodel.Library, c *AnalyzeCase, workers int,
	red reduce.Config, metrics *obs.Registry) (*sta.Result, error) {
	a := sta.New(tech, lib, sta.Config{Workers: workers, Metrics: metrics, Reduction: red})
	return a.AnalyzeContext(nil, sta.Request{Netlist: c.Netlist, Primary: c.Primary, Outputs: c.Outputs})
}

// maxArrivalErrPct returns the worst relative rise/fall arrival deviation of
// got from ref across all outputs, in percent.
func maxArrivalErrPct(ref, got *sta.Result) float64 {
	worst := 0.0
	for net, r := range ref.Arrivals {
		g := got.Arrivals[net]
		for _, p := range [2][2]float64{{r.Rise, g.Rise}, {r.Fall, g.Fall}} {
			if p[0] == 0 {
				continue
			}
			if e := 100 * math.Abs(p[1]-p[0]) / math.Abs(p[0]); e > worst {
				worst = e
			}
		}
	}
	return worst
}

// RunHotPathDiff executes the four-leg hot-path differential on one case.
// metrics, when non-nil, is attached to every analyzer it constructs.
func RunHotPathDiff(tech *mos.Tech, lib *devmodel.Library, c *HotPathCase, workers int, tolPct float64, metrics *obs.Registry) HotPathDiff {
	d := HotPathDiff{Name: c.Name}
	onCfg := reduce.Config{Enabled: true}

	// Exact reference: the default engine, serial.
	ref, err := analyzeHot(tech, lib, c.Light, 1, reduce.Config{}, metrics)
	if err != nil {
		d.Err = "reference: " + err.Error()
		return d
	}

	// Leg 1: an explicitly disabled reduction must be a true no-op — same
	// bits, same cache-key namespace, no reported activity.
	off, err := analyzeHot(tech, lib, c.Light, 1, reduce.Config{Enabled: false, TolPct: 5}, metrics)
	if err != nil {
		d.Err = "features-off: " + err.Error()
		return d
	}
	d.Mismatches = diffResults("features-off", ref, off, d.Mismatches)
	if off.StagesEvaluated != ref.StagesEvaluated {
		d.Mismatches = append(d.Mismatches, fmt.Sprintf("features-off evaluated %d stages, reference %d", off.StagesEvaluated, ref.StagesEvaluated))
	}
	if off.ReducedNodes != 0 {
		d.Mismatches = append(d.Mismatches, fmt.Sprintf("disabled reduction reported activity: %+v", off.Diagnostics))
	}

	// Leg 2: reduction on — bounded error, demonstrably active.
	on, err := analyzeHot(tech, lib, c.Light, 1, onCfg, metrics)
	if err != nil {
		d.Err = "features-on: " + err.Error()
		return d
	}
	d.MaxErrPct = maxArrivalErrPct(ref, on)
	d.ReducedNodes = on.ReducedNodes
	if d.MaxErrPct > tolPct {
		d.Mismatches = append(d.Mismatches, fmt.Sprintf("features-on arrival error %.2f%% exceeds %.2f%%", d.MaxErrPct, tolPct))
	}
	if on.ReducedNodes == 0 {
		d.Mismatches = append(d.Mismatches, fmt.Sprintf("reduction removed no nodes on a %d-segment wire netlist", c.Segs))
	}

	// Leg 3: reduction on, serial vs parallel — bit-identical.
	par, err := analyzeHot(tech, lib, c.Light, workers, onCfg, metrics)
	if err != nil {
		d.Err = "features-on parallel: " + err.Error()
		return d
	}
	d.Mismatches = diffResults("hot-serial-vs-parallel", on, par, d.Mismatches)
	if par.StagesEvaluated != on.StagesEvaluated || par.ReducedNodes != on.ReducedNodes {
		d.Mismatches = append(d.Mismatches, fmt.Sprintf("parallel accounting %+v, serial %+v", par.Diagnostics, on.Diagnostics))
	}

	// Leg 4: the aliasing trap. Light then Heavy on one shared analyzer;
	// Heavy must match a fresh analyzer bit for bit (the loads are part of
	// the key, so Heavy's loaded stages can never resolve to Light's
	// entries) and must differ from Light.
	shared := sta.New(tech, lib, sta.Config{Workers: workers, Metrics: metrics, Reduction: onCfg})
	lightRes, err := shared.AnalyzeContext(nil, sta.Request{Netlist: c.Light.Netlist, Primary: c.Light.Primary, Outputs: c.Light.Outputs})
	if err != nil {
		d.Err = "shared light: " + err.Error()
		return d
	}
	heavyShared, err := shared.AnalyzeContext(nil, sta.Request{Netlist: c.Heavy.Netlist, Primary: c.Heavy.Primary, Outputs: c.Heavy.Outputs})
	if err != nil {
		d.Err = "shared heavy: " + err.Error()
		return d
	}
	heavyRef, err := analyzeHot(tech, lib, c.Heavy, 1, onCfg, metrics)
	if err != nil {
		d.Err = "fresh heavy: " + err.Error()
		return d
	}
	d.Mismatches = diffResults("hot-shared-vs-fresh", heavyRef, heavyShared, d.Mismatches)
	if reflect.DeepEqual(lightRes.Arrivals, heavyShared.Arrivals) {
		d.Mismatches = append(d.Mismatches, "heavy-load arrivals identical to light-load arrivals (the key ignored loads)")
	}

	d.Pass = len(d.Mismatches) == 0
	return d
}
