// Command sta runs transistor-level static timing analysis over a
// SPICE-style deck: the netlist is partitioned into logic stages
// (channel-connected components), each stage's rise/fall delays are
// evaluated with QWM, and arrival times propagate from the primary inputs
// to the requested outputs.
//
//	sta -deck chain.sp -inputs a0,b0 -outputs out
//	sta -deck chain.sp -inputs 'a0,b0@150p' -outputs out   # b0 arrives late
//	sta -deck decoder.sp -outputs y0,y1 -workers 8 -cache-stats
//	sta -deck bus.sp -outputs y0,y1 -reduce 1 -cache-stats
//
// Stage evaluation is parallel: -workers sets the per-level worker-pool
// size (0 = GOMAXPROCS, 1 = serial); results are identical for any value.
// -cache-stats prints the delay cache's hit/miss/evaluation counts after the
// run, read from the metrics registry's sta/cache_hits and sta/cache_misses,
// plus this run's diagnostics (evaluation-error and slew-fallback counts,
// with the first error per failed direction), so silently degraded
// directions are visible. -metrics-json dumps the metrics registry —
// counters plus NR-iteration, region-count and latency histograms — as JSON
// on stdout.
//
// Hot-path accelerator (off by default; off, the result is bit-identical to
// earlier releases): -reduce TOL enables the RC-chain model-order-reduction
// pre-pass, collapsing long series wire runs into moment-matched stubs with
// at most TOL percent second-moment mismatch. -cache-stats then also
// reports how many RC nodes the pre-pass removed.
//
// Evaluations that fail to converge (or exhaust -nr-budget / -wall-budget)
// escalate a degradation ladder — QWM, adaptive transient, conservative RC
// bound — so the report is always complete; a run that used any fallback
// tier prints a DEGRADED line with the per-direction tier inventory.
//
// -trace FILE records the analysis as Chrome trace-event JSON through the
// same request-trace path the service uses: one analyze span, one span per
// level and one per work item with its cache outcome, tier and solver
// statistics, each eval on its worker's lane (load it in Perfetto).
// -trace-deterministic writes the schedule-independent variant instead,
// byte-identical at any -workers. -metrics-json output is the versioned v1
// metrics envelope. To serve analyses over HTTP — POST /analyze, /metrics,
// /healthz, /trace — run cmd/stad.
//
//	sta -deck decoder.sp -outputs y0,y1 -trace run.trace.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"qwm/internal/api/v1"
	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/netlist"
	"qwm/internal/obs"
	"qwm/internal/reduce"
	"qwm/internal/sta"
)

func main() {
	var (
		deckPath = flag.String("deck", "", "SPICE-style deck file (default: stdin)")
		inputs   = flag.String("inputs", "", "comma-separated primary inputs, each optionally net@arrival (e.g. a,b@100p)")
		outputs  = flag.String("outputs", "out", "comma-separated primary outputs")
		verbose  = flag.Bool("v", false, "print the arrival of every net")
		workers  = flag.Int("workers", 0, "stage evaluations in flight per level (0 = GOMAXPROCS, 1 = serial)")
		stats    = flag.Bool("cache-stats", false, "print delay-cache hit/miss/evaluation counters plus p50/p95/p99 solver quantiles")
		metrics  = flag.Bool("metrics-json", false, "dump the metrics registry (counters + histograms) as JSON")
		nrBudget = flag.Int("nr-budget", 0, "per-evaluation Newton-iteration budget (0 = unlimited); exhaustion degrades the tier, never fails the run")
		wallB    = flag.Duration("wall-budget", 0, "per-evaluation wall-clock budget (0 = unlimited)")
		redTol   = flag.Float64("reduce", 0, "enable the RC-chain reduction pre-pass with this moment-mismatch tolerance in percent (0 = off)")
		trace    = flag.String("trace", "", "write the analysis as Chrome trace-event JSON to this file")
		traceDet = flag.Bool("trace-deterministic", false, "write the deterministic trace variant (synthetic clock, schedule-independent; byte-identical at any -workers)")
	)
	flag.Parse()
	// A negative worker count, budget or tolerance would silently mean
	// GOMAXPROCS or "off"; refuse it.
	if *workers < 0 || *nrBudget < 0 || *wallB < 0 || !(*redTol >= 0) {
		fmt.Fprintf(os.Stderr, "sta: -workers, -nr-budget, -wall-budget and -reduce must be >= 0, got -workers %d -nr-budget %d -wall-budget %v -reduce %g\n", *workers, *nrBudget, *wallB, *redTol)
		fmt.Fprintln(os.Stderr, "usage: sta [-deck FILE] [-inputs NETS] [-outputs NETS] [-v] [-workers N] [-cache-stats] [-metrics-json] [-nr-budget N] [-wall-budget D] [-reduce PCT] [-trace FILE [-trace-deterministic]]")
		os.Exit(2)
	}
	budget := sta.EvalBudget{NRIters: *nrBudget, Wall: *wallB}
	opts := opsOptions{
		stats: *stats, metricsJSON: *metrics,
		tracePath: *trace, traceDet: *traceDet,
	}
	if err := run(*deckPath, *inputs, *outputs, *verbose, *workers, budget, *redTol, opts); err != nil {
		fmt.Fprintln(os.Stderr, "sta:", err)
		os.Exit(1)
	}
}

// opsOptions bundles the observability flags.
type opsOptions struct {
	stats, metricsJSON bool
	tracePath          string
	traceDet           bool
}

func run(deckPath, inputs, outputs string, verbose bool, workers int, budget sta.EvalBudget, reduceTol float64, ops opsOptions) error {
	in := os.Stdin
	if deckPath != "" {
		f, err := os.Open(deckPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	deck, err := netlist.Parse(in)
	if err != nil {
		return err
	}
	primary := map[string]sta.Arrival{}
	for _, spec := range strings.Split(inputs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		net, at, found := strings.Cut(spec, "@")
		ar := sta.Arrival{}
		if found {
			v, err := netlist.ParseValue(at)
			if err != nil {
				return fmt.Errorf("input %q: %w", spec, err)
			}
			ar = sta.Arrival{Rise: v, Fall: v}
		}
		primary[net] = ar
	}
	outs := strings.Split(outputs, ",")
	for i := range outs {
		outs[i] = strings.TrimSpace(outs[i])
	}

	tech := mos.CMOSP35()
	lib := devmodel.NewLibrary(tech)
	cfg := sta.Config{Workers: workers, Budget: budget, Reduction: reduce.Config{TolPct: reduceTol}}
	if ops.metricsJSON || ops.stats {
		cfg.Metrics = obs.NewRegistry()
	}
	a := sta.New(tech, lib, cfg)
	req := sta.Request{Netlist: deck.Netlist, Primary: primary, Outputs: outs}
	// With -trace the analysis runs under a reference into one request
	// trace; the engine writes its spans into it.
	var trace *obs.ActiveTrace
	ctx := context.Background()
	if ops.tracePath != "" {
		trace = obs.NewActiveTrace("")
		ctx = obs.ContextWithTrace(ctx, obs.TraceRef{T: trace, Parent: "sta.r0"})
	}
	res, err := a.AnalyzeContext(ctx, req)
	if err != nil {
		return err
	}
	fmt.Printf("deck: %s\n", deck.Title)
	fmt.Printf("stage evaluations: %d\n", res.StagesEvaluated)
	fmt.Printf("worst arrival: %.4g s at %q\n", res.WorstArrival, res.WorstOutput)
	fmt.Printf("critical path (latest first): %s\n", strings.Join(res.CriticalPath, " <- "))
	if !res.Diagnostics.Healthy() {
		// A degraded run still reports complete arrivals, but the operator
		// must see which directions came from a fallback tier.
		fmt.Printf("DEGRADED: %s\n", res.Diagnostics)
	}
	if ops.stats {
		// One cold Analyze with no tiers: every miss is one evaluation and
		// leaves one cache entry.
		hits := cfg.Metrics.Counter(sta.MetricCacheHits).Value()
		misses := cfg.Metrics.Counter(sta.MetricCacheMisses).Value()
		fmt.Printf("delay cache: %d hits, %d misses, %d evaluations, %d entries\n",
			hits, misses, misses, misses)
		if reduceTol > 0 {
			fmt.Printf("reduction: %d RC nodes removed\n", res.ReducedNodes)
		}
		fmt.Printf("diagnostics: %s\n", res.Diagnostics)
		printQuantiles(cfg.Metrics.Snapshot())
	}
	if ops.metricsJSON {
		js, jerr := json.MarshalIndent(v1.NewMetricsEnvelope(cfg.Metrics.Snapshot()), "", "  ")
		if jerr != nil {
			return jerr
		}
		fmt.Println(string(js))
	}
	if verbose {
		nets := make([]string, 0, len(res.Arrivals))
		for n := range res.Arrivals {
			nets = append(nets, n)
		}
		sort.Strings(nets)
		fmt.Println("\nnet arrivals:")
		for _, n := range nets {
			ar := res.Arrivals[n]
			fmt.Printf("  %-10s rise %.4g  fall %.4g\n", n, ar.Rise, ar.Fall)
		}
	}
	if trace != nil {
		// Status 0 is the CLI's exit status; the service records HTTP codes.
		b, err := trace.Finish("sta", 0, time.Since(trace.Start)).ChromeJSON(ops.traceDet)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := os.WriteFile(ops.tracePath, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "sta: trace written to %s\n", ops.tracePath)
	}
	return nil
}

// printQuantiles renders the p50/p95/p99 of the per-evaluation solver
// histograms (bucket-interpolated, see obs.HistSnapshot.Quantile). A warm
// all-hit run performs no evaluations and prints nothing.
func printQuantiles(snap obs.Snapshot) {
	rows := []struct{ label, metric, unit string }{
		{"eval latency", sta.MetricEvalSeconds, "s"},
		{"NR iters/eval", sta.MetricNRItersPerEval, ""},
		{"regions/eval", sta.MetricRegionsPerEval, ""},
	}
	for _, row := range rows {
		h, ok := snap.Histograms[row.metric]
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Printf("%-14s p50 %.3g%s  p95 %.3g%s  p99 %.3g%s  (n=%d)\n",
			row.label+":",
			h.Quantile(0.50), row.unit, h.Quantile(0.95), row.unit,
			h.Quantile(0.99), row.unit, h.Count)
	}
}
