// Command verify runs the differential-verification harness: seeded random
// stage netlists are cross-checked three ways — QWM against the in-repo
// SPICE-class transient baseline (per-stage delay and slew), cached against
// uncached full sta.AnalyzeContext runs, and serial against parallel runs —
// including shared-identity/different-load sibling pairs shaped to trip
// delay-cache aliasing bugs, plus hot-path feature differentials on wide
// netlists (RC-reduction off ⇒ bit-identical, on ⇒ bounded error, and the
// load-aliasing trap on a shared analyzer). The full per-case error
// distribution is emitted as JSON.
//
//	verify -seed 1 -n 200                 # acceptance sweep, JSON on stdout
//	verify -seed 7 -n 50 -tol 5 -v       # tighter gate, per-case progress
//	verify -n 25 -o report.json           # write the report to a file
//
// Exit status is non-zero when any gate fails: median QWM-vs-SPICE delay
// accuracy below 95 %, any cached/uncached or serial/parallel arrival
// mismatch (these must be bit-for-bit identical), or any engine error.
package main

import (
	"flag"
	"fmt"
	"os"

	"qwm/internal/obs"
	"qwm/internal/verify"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "random seed; identical seeds reproduce identical cases and reports")
		n       = flag.Int("n", 50, "number of generated single-stage QWM-vs-SPICE cases")
		tol     = flag.Float64("tol", 10, "per-case delay-error tolerance in percent")
		workers = flag.Int("workers", 8, "worker count for the serial-vs-parallel differential")
		outPath = flag.String("o", "", "write the JSON report to this file (default: stdout)")
		verbose = flag.Bool("v", false, "print per-case progress to stderr")
		metrics = flag.Bool("metrics-json", false, "collect STA engine metrics across the sweep and embed the snapshot in the report")
		dumpDir = flag.String("dump-worst", "", "after the sweep, re-run the worst-error stage case with waveform capture and write a forensic bundle (case/waveforms/trace/metrics JSON) into this directory")

		chaos     = flag.Bool("chaos", false, "run the fault-injection sweep instead: every case re-run under each fault class (see internal/faultinject)")
		chaosN    = flag.Int("chaos-n", 6, "number of generated analyze cases in the chaos sweep")
		chaosRate = flag.Float64("chaos-rate", 1, "per-class firing rate in (0,1]; 1 arms the strict tier-coverage assertions")

		eco      = flag.Bool("eco", false, "run the edit-sequence differential instead: randomized resize/junction/load/buffer edits re-analyzed on warm analyzers, serial vs parallel bit equality and per-edit evaluation bounds")
		ecoEdits = flag.Int("eco-edits", 6, "number of edit steps per (workload, variant) sequence in the eco sweep")
	)
	flag.Parse()

	var progress func(format string, args ...any)
	if *verbose {
		progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	// The gate table: the first selected mode runs (the default sweep is
	// always selected, so it runs when no mode flag is set).
	gates := []struct {
		on   bool
		mode string // the selecting flag's name; "" for the default sweep
		run  func() (outcome, error)
	}{
		{*chaos, "chaos", func() (outcome, error) {
			rep, err := verify.RunChaos(verify.ChaosConfig{Seed: *seed, N: *chaosN, Rate: *chaosRate, Workers: *workers, Progress: progress})
			if err != nil {
				return outcome{}, err
			}
			return outcome{rep, fmt.Sprintf("%d cells (%d cases x %d fault classes), %d failures",
				len(rep.Cells), *chaosN, len(rep.Cells)/max(*chaosN, 1), rep.Failures), rep.Pass}, nil
		}},
		{*eco, "eco", func() (outcome, error) {
			rep, err := verify.RunECO(verify.ECOConfig{Seed: *seed, Edits: *ecoEdits, Workers: *workers, Progress: progress})
			if err != nil {
				return outcome{}, err
			}
			return outcome{rep, fmt.Sprintf("%d sequences (%d edits each), %d failures",
				len(rep.Sequences), *ecoEdits, rep.Failures), rep.Pass}, nil
		}},
		{true, "", func() (outcome, error) {
			return runSweep(verify.Config{Seed: *seed, N: *n, TolPct: *tol, Workers: *workers, Progress: progress}, *dumpDir, *metrics)
		}},
	}
	for _, g := range gates {
		if !g.on {
			continue
		}
		if err := emit(g.mode, g.run, *outPath); err != nil {
			fmt.Fprintln(os.Stderr, "verify:", err)
			os.Exit(1)
		}
		return
	}
}

// outcome is one finished sweep: its JSON report, the one-line summary for
// stderr, and whether every gate held.
type outcome struct {
	report  interface{ JSON() ([]byte, error) }
	summary string
	pass    bool
}

// emit runs one gate and reports it the same way for every mode: the JSON
// report to outPath (stdout when empty), the summary and PASS lines to
// stderr, and an error when a gate failed.
func emit(mode string, run func() (outcome, error), outPath string) error {
	label, what := "verify", "verification"
	if mode != "" {
		label, what = "verify -"+mode, mode
	}
	o, err := run()
	if err != nil {
		return err
	}
	b, err := o.report.JSON()
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
	fmt.Fprintf(os.Stderr, "%s: %s\n", label, o.summary)
	if !o.pass {
		return fmt.Errorf("%s gates failed", what)
	}
	fmt.Fprintf(os.Stderr, "%s: PASS\n", label)
	return nil
}

// runSweep is the default differential sweep, plus the optional forensic
// dump of its worst case.
func runSweep(cfg verify.Config, dumpDir string, metrics bool) (outcome, error) {
	// -dump-worst implies metrics collection: the forensic bundle is
	// supposed to be self-contained (waveforms + trace + metrics), so the
	// sweep's engine-metrics snapshot must exist for DumpWorst to embed.
	if metrics || dumpDir != "" {
		cfg.Metrics = obs.NewRegistry()
	}
	rep, err := verify.Run(cfg)
	if err != nil {
		return outcome{}, err
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
	s := rep.Summary
	return outcome{rep, fmt.Sprintf(
		"%d stage cases (median accuracy %.2f%%, p95 err %.2f%%, %d over %.3g%% tol, %d engine errors); "+
			"%d analyze cases (%d mismatches); %d sibling pairs (%d mismatches); "+
			"%d hot-path cases (%d mismatches, max err %.2f%%)",
		s.StageCases, s.MedianAccuracyPct, s.P95DelayErrPct, s.StageFailures, rep.TolPct, s.StageErrors,
		s.AnalyzeCases, s.AnalyzeMismatches, s.SiblingPairs, s.SiblingMismatches,
		s.HotPathCases, s.HotPathMismatches, s.MaxHotPathErrPct), s.Pass}, nil
}
