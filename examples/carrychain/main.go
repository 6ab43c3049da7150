// Carry chain: the paper's Fig. 9 scenario. The worst path of a Manchester
// carry chain is a stack of six series NMOS transistors whose internal
// nodes are precharged; when the bottom input rises, a discharge wavefront
// propagates up the stack. This example evaluates that path with QWM and
// overlays the SPICE reference, printing the critical points QWM solved for
// and a sampled waveform table for the output node.
package main

import (
	"fmt"
	"log"

	"qwm/internal/bench"
	"qwm/internal/mos"
	"qwm/internal/qwm"
	"qwm/internal/spice"
	"qwm/internal/stages"
)

func main() {
	tech := mos.CMOSP35()
	h, err := bench.NewHarness(tech)
	if err != nil {
		log.Fatal(err)
	}
	w, err := stages.CarryChainStack(tech)
	if err != nil {
		log.Fatal(err)
	}

	// QWM evaluation — the K critical points fall out of the analysis.
	ch, err := qwm.Build(qwm.BuildInput{
		Tech: tech, Lib: h.Lib, Stage: w.Stage, Path: w.Path,
		Inputs: w.Inputs, Loads: w.Loads, V0: w.IC,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := qwm.Evaluate(ch, qwm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("6-NMOS carry-chain stack: %d regions, %d Newton iterations\n",
		res.Stats.Regions, res.Stats.NRIters)
	fmt.Println("critical points (ps):")
	for i, t := range res.CriticalTimes {
		fmt.Printf("  τ%-2d = %7.2f\n", i, t*1e12)
	}

	// SPICE reference on the identical netlist and initial conditions.
	sim, err := spice.New(w.Netlist, tech)
	if err != nil {
		log.Fatal(err)
	}
	sres, err := sim.Transient(spice.Options{TStop: 600e-12, Step: 1e-12, IC: w.IC})
	if err != nil {
		log.Fatal(err)
	}
	out, err := sres.Waveform(w.Output)
	if err != nil {
		log.Fatal(err)
	}

	dq, err := res.Delay50(0, tech.VDD)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nQWM delay:   %.2f ps\n", dq*1e12)
	tc, _ := out.Crossing(tech.VDD/2, false)
	fmt.Printf("SPICE delay: %.2f ps\n", tc*1e12)
	fmt.Printf("accuracy:    %.2f %%\n", 100-100*abs(dq-tc)/tc)

	fmt.Println("\n t(ps)   QWM V(out)   SPICE V(out)")
	for t := 0.0; t <= 600e-12; t += 50e-12 {
		fmt.Printf("%6.0f   %10.3f   %12.3f\n", t*1e12, res.Output.Eval(t), out.Eval(t))
	}

	// The same analysis on the full Manchester carry chain circuit of paper
	// Fig. 2 — propagate/generate devices per bit slice plus clocked
	// precharge PMOS. Stage extraction finds the evaluation-phase worst path
	// (carry-in device + 5 propagate devices = the 6-stack above), with the
	// off generate/precharge devices loading the carry nodes.
	full, err := stages.ManchesterChain(tech, 5, 2e-6, 2e-6, 12e-15, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull Manchester chain (Fig. 2): %d devices in the stage, worst path K = %d\n",
		len(full.Stage.Edges), full.Path.Transistors())
	qf, err := h.RunQWM(full, qwm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sf, err := h.RunSpice(full, 1e-12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("QWM %.2f ps vs SPICE %.2f ps (accuracy %.2f %%, speed-up %.0f×)\n",
		qf.Delay*1e12, sf.Delay*1e12,
		100-100*abs(qf.Delay-sf.Delay)/sf.Delay,
		float64(sf.Runtime)/float64(qf.Runtime))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
