package verify

import (
	"fmt"
	"math"
	"math/rand"

	"qwm/internal/bench"
	"qwm/internal/mos"
)

// Config parameterizes one stage sweep.
type Config struct {
	// Seed makes the whole run reproducible: identical (Seed, N) always
	// generates identical cases and identical reports.
	Seed int64
	// N is the number of generated single-stage QWM-vs-SPICE cases.
	// Default 50.
	N int
	// TolPct is the per-case delay-error tolerance in percent (cases above
	// it are counted as tolerance failures). Default 10.
	TolPct float64
	// Progress, when set, receives one line per completed case.
	Progress func(format string, args ...any)
}

// withDefaults fills the zero fields; Run refuses negative or non-finite
// ones rather than rewriting them.
func (c Config) withDefaults() (Config, error) {
	if c.N < 0 || c.TolPct < 0 || math.IsNaN(c.TolPct) || math.IsInf(c.TolPct, 0) {
		return c, fmt.Errorf("verify: need N >= 0 and a finite TolPct >= 0, got N %d, TolPct %g", c.N, c.TolPct)
	}
	if c.N == 0 {
		c.N = 50
	}
	if c.TolPct == 0 {
		c.TolPct = 10
	}
	return c, nil
}

// Run executes the stage sweep — cfg.N seeded random stacks, each timed by
// QWM and by the SPICE-class transient baseline — and returns the finalized
// report.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
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
	rep.Finalize()
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
