// Command qwm analyzes the worst-case charge/discharge path of a CMOS logic
// stage described by a SPICE-style deck, with a choice of engines:
//
//	qwm -deck nand2.sp -out out -rail 0 -engine qwm
//	qwm -deck nand2.sp -out out -engine spice -step 1p
//	qwm -deck nand2.sp -out out -engine sc
//	qwm -deck nand2.sp -out out -engine elmore
//
// Engines: qwm (piecewise quadratic waveform matching — the paper's
// method), spice (Newton–Raphson transient baseline), sc (successive-chord
// integration, TETA-class), elmore (switch-level Elmore metric).
package main

import (
	"flag"
	"fmt"
	"os"

	"qwm/internal/bench"
	"qwm/internal/mos"
	"qwm/internal/netlist"
	"qwm/internal/qwm"
	"qwm/internal/sc"
	"qwm/internal/stages"
	"qwm/internal/switchlevel"
	"qwm/internal/wave"
)

func main() {
	var (
		deckPath = flag.String("deck", "", "SPICE-style deck file (default: stdin)")
		out      = flag.String("out", "out", "output node to analyze")
		rail     = flag.String("rail", "0", "rail the path discharges to (0) or charges from (vdd)")
		engine   = flag.String("engine", "qwm", "engine: qwm | spice | sc | elmore")
		stepStr  = flag.String("step", "1p", "integration step for spice/sc (0: spice steps adaptively)")
		printW   = flag.Bool("waveform", false, "print the output waveform samples")
		points   = flag.Int("points", 101, "waveform sample count with -waveform (>= 2)")
		trace    = flag.Bool("trace", false, "print one structured line per QWM region to stderr")
	)
	flag.Parse()
	if *printW && *points < 2 {
		fmt.Fprintf(os.Stderr, "qwm: -points must be >= 2 with -waveform, got %d\n", *points)
		fmt.Fprintln(os.Stderr, "usage: qwm [-deck FILE] [-out NODE] [-rail 0|vdd] [-engine qwm|spice|sc|elmore] [-step T] [-waveform [-points N]] [-trace]")
		os.Exit(2)
	}
	if err := run(*deckPath, *out, *rail, *engine, *stepStr, *printW, *points, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "qwm:", err)
		os.Exit(1)
	}
}

func run(deckPath, out, rail, engine, stepStr string, printW bool, points int, trace bool) error {
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
	tech := mos.CMOSP35()
	w, err := stages.FromDeck(deck, out, rail, tech.VDD, 0)
	if err != nil {
		return err
	}
	step, err := netlist.ParseValue(stepStr)
	if err != nil {
		return fmt.Errorf("bad -step: %w", err)
	}

	h, err := bench.NewHarness(tech)
	if err != nil {
		return err
	}
	fmt.Printf("deck: %s\n", deck.Title)
	fmt.Printf("path: %s -> %s, K = %d transistors, %d elements\n",
		rail, out, w.Path.Transistors(), len(w.Path.Elems))

	var output wave.Waveform
	switch engine {
	case "qwm":
		opts := qwm.Options{}
		if trace {
			// The structured region events, rendered through the printf
			// adapter — the replacement for the deleted Options.Trace hook.
			opts.Events = qwm.PrintfSink{Printf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}}
		}
		r, err := h.RunQWM(w, opts)
		if err != nil {
			return err
		}
		fmt.Printf("engine: qwm (%d regions, %d Newton iterations)\n", r.Steps, r.NRIters)
		fmt.Printf("delay(50%%): %.4g s\n", r.Delay)
		if r.Slew > 0 {
			fmt.Printf("slew(10-90%%): %.4g s\n", r.Slew)
		}
		fmt.Printf("runtime: %v\n", r.Runtime)
		output = r.Output
	case "spice":
		r, err := h.RunSpice(w, step)
		if err != nil {
			return err
		}
		fmt.Printf("engine: spice (%d steps, %d Newton iterations)\n", r.Steps, r.NRIters)
		fmt.Printf("delay(50%%): %.4g s\n", r.Delay)
		if r.Slew > 0 {
			fmt.Printf("slew(10-90%%): %.4g s\n", r.Slew)
		}
		fmt.Printf("runtime: %v\n", r.Runtime)
		output = r.Output
	case "sc":
		ch, err := qwm.Build(qwm.BuildInput{
			Tech: tech, Lib: h.Lib, Stage: w.Stage, Path: w.Path,
			Inputs: w.Inputs, Loads: w.Loads, V0: w.IC,
		})
		if err != nil {
			return err
		}
		r, err := sc.Evaluate(ch, sc.Options{Step: step, TStop: w.TStop})
		if err != nil {
			return err
		}
		d, err := sc.Delay50(ch, r, w.SwitchAt)
		if err != nil {
			return err
		}
		fmt.Printf("engine: sc (%d steps, %d chord iterations, %d rebuilds)\n",
			r.Steps, r.Iterations, r.Rebuilds)
		fmt.Printf("delay(50%%): %.4g s\n", d)
		output = r.Output
	case "elmore":
		d, err := switchlevel.Delay(w.Stage, w.Path, w.Output, w.Loads, tech)
		if err != nil {
			return err
		}
		fmt.Println("engine: elmore (switch-level)")
		fmt.Printf("delay(50%%): %.4g s\n", d)
	default:
		return fmt.Errorf("unknown engine %q", engine)
	}

	if printW && output != nil {
		fmt.Println("# t(s)\tV(out)")
		for i := 0; i < points; i++ {
			t := w.TStop * float64(i) / float64(points-1)
			fmt.Printf("%.6g\t%.6g\n", t, output.Eval(t))
		}
	}
	return nil
}
