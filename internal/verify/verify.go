package verify

import (
	"fmt"
	"math/rand"

	"qwm/internal/bench"
	"qwm/internal/mos"
	"qwm/internal/obs"
)

// Config parameterizes one differential-verification run.
type Config struct {
	// Seed makes the whole run reproducible: identical (Seed, N) always
	// generates identical cases and identical reports.
	Seed int64
	// N is the number of generated single-stage QWM-vs-SPICE cases.
	N int
	// TolPct is the per-case delay-error tolerance in percent (cases above
	// it are counted as tolerance failures). Default 10.
	TolPct float64
	// AnalyzeN and PairN are the full-Analyze equivalence and
	// sibling-aliasing case counts; 0 derives them from N (N/5 and N/10,
	// floors 4 and 2).
	AnalyzeN, PairN int
	// HotPathN is the hot-path feature differential case count (reduction
	// off ⇒ bit-identical, on ⇒ bounded error, a shared analyzer never
	// crosses the load-aliasing trap); 0 derives it from N (N/10, floor 2).
	HotPathN int
	// Workers is the parallel worker count for the serial-vs-parallel
	// differential. Default 8.
	Workers int
	// Progress, when set, receives one line per completed case.
	Progress func(format string, args ...any)
	// Metrics, when set, is attached to every sta.Analyzer the equivalence
	// differentials construct; the aggregated snapshot is embedded in the
	// report (Report.Metrics). Nil disables metric collection.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 50
	}
	if c.TolPct <= 0 {
		c.TolPct = 10
	}
	if c.AnalyzeN <= 0 {
		c.AnalyzeN = c.N / 5
		if c.AnalyzeN < 4 {
			c.AnalyzeN = 4
		}
	}
	if c.PairN <= 0 {
		c.PairN = c.N / 10
		if c.PairN < 2 {
			c.PairN = 2
		}
	}
	if c.HotPathN <= 0 {
		c.HotPathN = c.N / 10
		if c.HotPathN < 2 {
			c.HotPathN = 2
		}
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	return c
}

// Run executes the four differentials — per-stage QWM-vs-SPICE, analyze
// (cached-vs-uncached and serial-vs-parallel Analyze), the shared-cache
// sibling aliasing trap, and the hot-path features on wide netlists — and
// returns the finalized report.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	tech := mos.CMOSP35()
	h, err := bench.NewHarness(tech)
	if err != nil {
		return nil, fmt.Errorf("verify: harness: %w", err)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	rep := &Report{Seed: cfg.Seed, N: cfg.N, TolPct: cfg.TolPct}

	for i := 0; i < cfg.N; i++ {
		c, err := GenStageCase(tech, r, i)
		if err != nil {
			return nil, fmt.Errorf("verify: generate stage case %d: %w", i, err)
		}
		d := RunStageDiff(h, c, cfg.TolPct)
		rep.Stage = append(rep.Stage, d)
		if cfg.Progress != nil {
			cfg.Progress("stage %s: err %.2f%% (qwm %.1f ps, spice %.1f ps) %s",
				d.Name, d.DelayErrPct, d.QWMDelay*1e12, d.SpiceDelay*1e12, passMark(d.Pass, d.Err))
		}
	}
	for i := 0; i < cfg.AnalyzeN; i++ {
		c := GenAnalyzeCase(tech, r, i)
		d := RunAnalyzeDiff(tech, h.Lib, c, cfg.Workers, cfg.Metrics)
		rep.Analyze = append(rep.Analyze, d)
		if cfg.Progress != nil {
			cfg.Progress("analyze %s: %s", d.Name, passMark(d.Pass, d.Err))
		}
	}
	for i := 0; i < cfg.PairN; i++ {
		p := GenSiblingPair(tech, r, i)
		d := RunSiblingDiff(tech, h.Lib, p, cfg.Workers, cfg.Metrics)
		rep.Sibling = append(rep.Sibling, d)
		if cfg.Progress != nil {
			cfg.Progress("sibling %s: %s", d.Name, passMark(d.Pass, d.Err))
		}
	}
	for i := 0; i < cfg.HotPathN; i++ {
		c, err := GenHotPathCase(tech, r, i)
		if err != nil {
			return nil, fmt.Errorf("verify: generate hot-path case %d: %w", i, err)
		}
		d := RunHotPathDiff(tech, h.Lib, c, cfg.Workers, cfg.TolPct, cfg.Metrics)
		rep.HotPath = append(rep.HotPath, d)
		if cfg.Progress != nil {
			cfg.Progress("hotpath %s: err %.2f%% (reduced %d) %s",
				d.Name, d.MaxErrPct, d.ReducedNodes, passMark(d.Pass, d.Err))
		}
	}
	rep.Finalize()
	if cfg.Metrics != nil {
		snap := cfg.Metrics.Snapshot()
		rep.Metrics = &snap
	}
	return rep, nil
}

func passMark(pass bool, errMsg string) string {
	if errMsg != "" {
		return "ERROR " + errMsg
	}
	if pass {
		return "ok"
	}
	return "FAIL"
}
