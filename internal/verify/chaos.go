package verify

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"

	"qwm/internal/api/v1"
	"qwm/internal/devmodel"
	"qwm/internal/faultinject"
	"qwm/internal/mos"
	"qwm/internal/sta"
)

// ChaosConfig parameterizes one fault-injection sweep: every generated
// analyze case is re-run under each armed fault class, and the degraded
// results are gated on the three chaos invariants — completeness (a report
// always comes back), determinism (bit-for-bit identical results at the
// same seed for any Workers setting), and conservatism (a degraded delay is
// never below the clean QWM delay; latency-only faults change nothing).
type ChaosConfig struct {
	// Seed drives both case generation and every injector; identical seeds
	// reproduce identical faults at identical sites.
	Seed int64
	// N is the number of generated analyze cases (default 6).
	N int
	// Rate is the per-class firing rate in (0, 1] (default 1: every site
	// fires, which maximizes ladder coverage and arms the strictest
	// tier-exercise assertions).
	Rate float64
	// Workers is the parallel worker count checked against the serial run
	// (default 8).
	Workers int
	// Progress, when set, receives one line per completed (case, class).
	Progress func(format string, args ...any)
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.N <= 0 {
		c.N = 6
	}
	if c.Rate <= 0 || c.Rate > 1 {
		c.Rate = 1
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	return c
}

// ChaosCell is the outcome of one (case, fault class) experiment.
type ChaosCell struct {
	Case  string `json:"case"`
	Class string `json:"class"`
	// Fired is the injector's total fire count for the serial run.
	Fired int64 `json:"fired"`
	// Degraded counts directions that resolved below the QWM tier, and
	// Tiers is the per-tier direction inventory of the serial faulted run.
	Degraded int            `json:"degraded"`
	Tiers    map[string]int `json:"tiers,omitempty"`
	// Problems lists every violated invariant; empty means the cell passed.
	Problems []string `json:"problems,omitempty"`
	Pass     bool     `json:"pass"`
}

// ChaosReport aggregates a chaos sweep.
type ChaosReport struct {
	SchemaVersion string      `json:"schema_version"`
	Seed          int64       `json:"seed"`
	Rate          float64     `json:"rate"`
	Workers       int         `json:"workers"`
	Cells         []ChaosCell `json:"cells"`
	// Failures counts cells with problems; Pass is Failures == 0.
	Failures int  `json:"failures"`
	Pass     bool `json:"pass"`
}

// JSON renders the report.
func (r *ChaosReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// conservativeEps is the relative slack allowed when asserting a degraded
// arrival is not below the clean one — float round-off from the guard-band
// multiplications and arrival summing, nothing more.
const conservativeEps = 1e-12

// chaosRun analyzes one case on a fresh analyzer with its own injector and
// returns the result plus the injector (for fire counts). The analyzer is
// fresh per run so faulted cache entries never leak between experiments.
func chaosRun(tech *mos.Tech, lib *devmodel.Library, c *AnalyzeCase, workers int, inj *faultinject.Injector) (*sta.Result, *faultinject.Injector, error) {
	a := sta.New(tech, lib, sta.Config{Workers: workers, FaultPlan: inj})
	res, err := a.AnalyzeContext(nil, sta.Request{
		Netlist: c.Netlist, Primary: c.Primary, Outputs: c.Outputs,
	})
	return res, inj, err
}

// sameResult appends a problem for every deviation between two runs that
// the determinism invariant requires to be bit-for-bit identical, including
// the degradation diagnostics (same faults => same tiers).
func sameResult(label string, ref, got *sta.Result, problems []string) []string {
	problems = diffResults(label, ref, got, problems)
	if ref.TierCounts != got.TierCounts {
		problems = append(problems, fmt.Sprintf("%s: tier counts %v, want %v", label, got.TierCounts, ref.TierCounts))
	}
	if !reflect.DeepEqual(ref.EvalTier, got.EvalTier) {
		problems = append(problems, fmt.Sprintf("%s: eval tiers %v, want %v", label, got.EvalTier, ref.EvalTier))
	}
	if ref.PanicsRecovered != got.PanicsRecovered {
		problems = append(problems, fmt.Sprintf("%s: %d panics recovered, want %d", label, got.PanicsRecovered, ref.PanicsRecovered))
	}
	return problems
}

// runChaosCell executes one (case, class) experiment: a clean reference, a
// repeated serial faulted run (determinism at Workers=1), and a repeated
// parallel faulted run (determinism at Workers=N plus serial/parallel
// equivalence), then checks the invariants.
func runChaosCell(tech *mos.Tech, lib *devmodel.Library, c *AnalyzeCase, class faultinject.Class, cfg ChaosConfig) ChaosCell {
	cell := ChaosCell{Case: c.Name, Class: class.String()}
	inj := func() *faultinject.Injector { return faultinject.New(cfg.Seed).Enable(class, cfg.Rate) }

	clean, _, err := chaosRun(tech, lib, c, 1, nil)
	if err != nil {
		cell.Problems = append(cell.Problems, "clean run failed: "+err.Error())
		return cell
	}
	s1, in1, err := chaosRun(tech, lib, c, 1, inj())
	if err != nil {
		cell.Problems = append(cell.Problems, "faulted serial run failed (completeness): "+err.Error())
		return cell
	}
	s2, _, err := chaosRun(tech, lib, c, 1, inj())
	if err != nil {
		cell.Problems = append(cell.Problems, "faulted serial re-run failed: "+err.Error())
		return cell
	}
	p1, _, err := chaosRun(tech, lib, c, cfg.Workers, inj())
	if err != nil {
		cell.Problems = append(cell.Problems, "faulted parallel run failed (completeness): "+err.Error())
		return cell
	}
	p2, _, err := chaosRun(tech, lib, c, cfg.Workers, inj())
	if err != nil {
		cell.Problems = append(cell.Problems, "faulted parallel re-run failed: "+err.Error())
		return cell
	}

	cell.Fired = in1.FiredTotal()
	cell.Degraded = s1.Degraded
	for t, n := range s1.TierCounts {
		if n > 0 {
			if cell.Tiers == nil {
				cell.Tiers = map[string]int{}
			}
			cell.Tiers[sta.Tier(t).String()] = n
		}
	}

	// Completeness: every net the clean run timed is timed by the faulted
	// run too (the ladder never drops a direction the clean solver handled).
	for net := range clean.Arrivals {
		if _, ok := s1.Arrivals[net]; !ok {
			cell.Problems = append(cell.Problems, fmt.Sprintf("completeness: net %s missing from faulted arrivals", net))
		}
	}

	// Determinism: same seed => bit-for-bit identical results and tier
	// inventories, at the same and across worker counts.
	cell.Problems = sameResult("serial repeat", s1, s2, cell.Problems)
	cell.Problems = sameResult("parallel repeat", p1, p2, cell.Problems)
	cell.Problems = sameResult(fmt.Sprintf("workers 1 vs %d", cfg.Workers), s1, p1, cell.Problems)

	switch class {
	case faultinject.PivotBreakdown, faultinject.CacheStall:
		// Recovered-in-place faults: results must be bit-for-bit identical
		// to the clean run and nothing may degrade.
		cell.Problems = sameResult("faulted vs clean (recoverable class)", clean, s1, cell.Problems)
		if s1.Degraded != 0 {
			cell.Problems = append(cell.Problems, fmt.Sprintf("recoverable class degraded %d directions", s1.Degraded))
		}
	default:
		// Degrading faults: every arrival must be conservative — no net may
		// arrive earlier than in the clean analysis.
		for net, ref := range clean.Arrivals {
			got, ok := s1.Arrivals[net]
			if !ok {
				continue // already reported as a completeness problem
			}
			if got.Rise < ref.Rise*(1-conservativeEps) || got.Fall < ref.Fall*(1-conservativeEps) {
				cell.Problems = append(cell.Problems,
					fmt.Sprintf("conservatism: net %s degraded arrival (r %.6g, f %.6g) below clean (r %.6g, f %.6g)",
						net, got.Rise, got.Fall, ref.Rise, ref.Fall))
			}
		}
	}

	if cfg.Rate == 1 {
		// At rate 1 the injector must actually fire, and each degrading
		// class must land on the ladder tier it is designed to exercise.
		if cell.Fired == 0 {
			cell.Problems = append(cell.Problems, "injector never fired at rate 1")
		}
		expectTier := map[faultinject.Class]sta.Tier{
			faultinject.NRDivergence:     sta.TierSpice,  // kills both QWM tiers
			faultinject.BudgetExhaustion: sta.TierBisect, // aborts tier 0 only
			faultinject.Panic:            sta.TierBound,  // panics tiers 0-2
		}
		if want, ok := expectTier[class]; ok && s1.TierCounts[want] == 0 {
			cell.Problems = append(cell.Problems,
				fmt.Sprintf("expected tier %s to be exercised, tier counts %v", want, s1.TierCounts))
		}
	}

	cell.Pass = len(cell.Problems) == 0
	return cell
}

// RunChaos executes the chaos sweep: cfg.N generated analyze cases, each
// re-run under every fault class in the taxonomy.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	cfg = cfg.withDefaults()
	tech := mos.CMOSP35()
	lib := devmodel.NewLibrary(tech)
	r := rand.New(rand.NewSource(cfg.Seed))
	rep := &ChaosReport{SchemaVersion: v1.SchemaVersion, Seed: cfg.Seed, Rate: cfg.Rate, Workers: cfg.Workers}
	for i := 0; i < cfg.N; i++ {
		c := GenAnalyzeCase(tech, r, i)
		for class := faultinject.Class(0); class < faultinject.NumClasses; class++ {
			if class.Network() {
				// Network classes fire at the remote-cache tier, which the
				// engine sweep does not arm; verify -remote gates them.
				continue
			}
			cell := runChaosCell(tech, lib, c, class, cfg)
			rep.Cells = append(rep.Cells, cell)
			if !cell.Pass {
				rep.Failures++
			}
			if cfg.Progress != nil {
				mark := "ok"
				if !cell.Pass {
					mark = "FAIL " + cell.Problems[0]
				}
				cfg.Progress("chaos %s/%s: fired %d, degraded %d %s",
					cell.Case, cell.Class, cell.Fired, cell.Degraded, mark)
			}
		}
	}
	rep.Pass = rep.Failures == 0
	return rep, nil
}
