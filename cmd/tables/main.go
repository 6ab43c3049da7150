// Command tables regenerates the paper's evaluation tables:
//
//	tables -table 1    # Table I: QWM vs SPICE on logic gates
//	tables -table 2    # Table II: QWM vs SPICE on random stacks (K = 5..10)
//	tables -table all  # both
//
// Runtime columns are this machine's wall clock; the paper's claims are
// about the ratios, not the absolute numbers (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"qwm/internal/bench"
	"qwm/internal/mos"
)

func main() {
	table := flag.String("table", "all", "which table to regenerate: 1 | 2 | all")
	flag.Parse()
	if *table != "1" && *table != "2" && *table != "all" {
		fmt.Fprintf(os.Stderr, "tables: unknown -table %q\n", *table)
		fmt.Fprintln(os.Stderr, "usage: tables [-table 1|2|all]")
		os.Exit(2)
	}

	h, err := bench.NewHarness(mos.CMOSP35())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
	if *table == "1" || *table == "all" {
		rows, err := h.Table1()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		fmt.Println(bench.FormatTable("Table I: QWM vs SPICE for logic gates", rows))
	}
	if *table == "2" || *table == "all" {
		rows, err := h.Table2()
		if err != nil {
			fmt.Fprintln(os.Stderr, "tables:", err)
			os.Exit(1)
		}
		fmt.Println(bench.FormatTable("Table II: QWM vs SPICE for randomly generated logic stages", rows))
	}
}
