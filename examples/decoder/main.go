// Decoder: the paper's Fig. 10 scenario. A memory decoder tree routes the
// discharge path through wires whose lengths grow exponentially with the
// tree level; each wire is first reduced to an AWE π macro-model
// (O'Brien/Savarino moment matching) and the resulting transistor+wire
// chain is evaluated by QWM. The example prints the π models, compares QWM
// against SPICE on the reduced network, and shows the Elmore (switch-level)
// estimate for contrast.
package main

import (
	"fmt"
	"log"

	"qwm/internal/awe"
	"qwm/internal/bench"
	"qwm/internal/mos"
	"qwm/internal/qwm"
	"qwm/internal/stages"
	"qwm/internal/switchlevel"
)

func main() {
	tech := mos.CMOSP35()
	h, err := bench.NewHarness(tech)
	if err != nil {
		log.Fatal(err)
	}

	const levels = 4
	baseLen := 50e-6
	fmt.Printf("decoder tree: %d levels, level-k wire length = %.0f µm × 2^k\n",
		levels, baseLen*1e6)
	fmt.Println("\nAWE π macro-models of the wires:")
	for lvl := 0; lvl < levels; lvl++ {
		length := baseLen * float64(int(1)<<lvl)
		r, c := stages.DefaultWire.Totals(length)
		pi, err := awe.PiForWire(r, c)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  level %d: %4.0f µm  R=%6.1f Ω  C=%6.2f fF  →  π(%5.2f fF, %6.1f Ω, %5.2f fF)\n",
			lvl, length*1e6, r, c*1e15, pi.CNear*1e15, pi.R, pi.CFar*1e15)
	}

	w, err := stages.DecoderTree(tech, levels, 2e-6, baseLen, 20e-15, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npath: %d transistors + %d wires\n",
		w.Path.Transistors(), len(w.Path.Elems)-w.Path.Transistors())

	q, err := h.RunQWM(w, qwm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	s, err := h.RunSpice(w, 1e-12)
	if err != nil {
		log.Fatal(err)
	}
	el, err := switchlevel.Delay(w.Stage, w.Path, w.Output, w.Loads, tech)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nQWM:          delay = %7.2f ps   (%v)\n", q.Delay*1e12, q.Runtime)
	fmt.Printf("SPICE (1ps):  delay = %7.2f ps   (%v)\n", s.Delay*1e12, s.Runtime)
	fmt.Printf("Elmore:       delay = %7.2f ps   (switch-level estimate)\n", el*1e12)
	fmt.Printf("\nQWM accuracy %.2f %%, speed-up %.0f×\n",
		100-100*abs(q.Delay-s.Delay)/s.Delay, float64(s.Runtime)/float64(q.Runtime))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
