// Command verify checks QWM's accuracy against SPICE, the paper's own
// validation: seeded random stage netlists are timed by QWM and by the
// in-repo SPICE-class transient baseline, and the full per-case delay and
// slew error distribution is emitted as JSON. The engine's equivalence
// invariants (cache, parallelism, degradation ladder, re-analysis after an
// edit) are internal/sta tests, not modes of this command.
//
//	verify -seed 1 -n 200                 # acceptance sweep, JSON on stdout
//	verify -seed 7 -n 50 -tol 5 -v       # tighter gate, per-case progress
//	verify -n 25 -o report.json           # write the report to a file
//
// Exit status is 1 when a gate fails — median QWM-vs-SPICE delay accuracy
// below 95 %, or any engine error — and 2 for a bad flag value.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"qwm/internal/verify"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "random seed; identical seeds reproduce identical cases and reports")
		n       = flag.Int("n", 50, "number of generated single-stage QWM-vs-SPICE cases (>= 1)")
		tol     = flag.Float64("tol", 10, "per-case delay-error tolerance in percent (> 0)")
		outPath = flag.String("o", "", "write the JSON report to this file (default: stdout)")
		verbose = flag.Bool("v", false, "print per-case progress to stderr")
		dumpDir = flag.String("dump-worst", "", "after the sweep, re-run the worst-error stage case with waveform capture and write a forensic bundle (case/waveforms/trace JSON) into this directory")
	)
	flag.Parse()
	if *n < 1 || !(*tol > 0) || math.IsInf(*tol, 1) {
		fmt.Fprintf(os.Stderr, "verify: -n must be >= 1 and -tol a positive finite percent, got -n %d -tol %g\n", *n, *tol)
		fmt.Fprintln(os.Stderr, "usage: verify [-seed N] [-n N] [-tol PCT] [-o FILE] [-v] [-dump-worst DIR]")
		os.Exit(2)
	}

	cfg := verify.Config{Seed: *seed, N: *n, TolPct: *tol}
	if *verbose {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if err := run(cfg, *dumpDir, *outPath); err != nil {
		fmt.Fprintln(os.Stderr, "verify:", err)
		os.Exit(1)
	}
}

// run executes the sweep, dumps its worst case when dumpDir is set, writes
// the JSON report to outPath (stdout when empty) and the summary and PASS
// lines to stderr, and returns an error when a gate failed.
func run(cfg verify.Config, dumpDir, outPath string) error {
	rep, err := verify.Run(cfg)
	if err != nil {
		return err
	}
	// The forensic dump runs before the gate check on purpose: a failing
	// sweep is exactly when the worst-case bundle is wanted.
	if dumpDir != "" {
		bundle, err := verify.DumpWorst(rep, dumpDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "verify: dump-worst:", err)
		} else {
			fmt.Fprintf(os.Stderr, "verify: dump-worst: case %s (err %.2f%%) -> %s (%d files)\n",
				bundle.Case.Name, bundle.Case.DelayErrPct, dumpDir, len(bundle.Files))
		}
	}
	b, err := rep.JSON()
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
			return err
		}
	} else {
		fmt.Println(string(b))
	}
	s := rep.Summary
	fmt.Fprintf(os.Stderr, "verify: %d stage cases (median accuracy %.2f%%, p95 err %.2f%%, %d over %.3g%% tol, %d engine errors)\n",
		s.StageCases, s.MedianAccuracyPct, s.P95DelayErrPct, s.StageFailures, rep.TolPct, s.StageErrors)
	if !s.Pass {
		return fmt.Errorf("verification gates failed")
	}
	fmt.Fprintln(os.Stderr, "verify: PASS")
	return nil
}
