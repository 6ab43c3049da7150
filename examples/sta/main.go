// STA: full static timing analysis over a multi-stage transistor netlist.
// A 4-bit ripple path — NAND2 stages feeding inverters — is partitioned
// into logic stages, each stage's rise/fall delays are evaluated with QWM,
// and arrival times propagate to the primary output. A second, incremental
// run after upsizing one driver shows the stage-delay cache at work.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"qwm/internal/circuit"
	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/sta"
)

func main() {
	tech := mos.CMOSP35()
	lib := devmodel.NewLibrary(tech)

	nl := rippleChain(tech, 4)
	a := sta.New(tech, lib)

	start := time.Now()
	res, err := a.AnalyzeContext(nil, sta.Request{
		Netlist: nl,
		Primary: map[string]sta.Arrival{"a0": {}, "b0": {}, "b1": {}, "b2": {}, "b3": {}},
		Outputs: []string{"out"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("full analysis: %d stage evaluations in %v\n", res.StagesEvaluated, time.Since(start))
	fmt.Printf("worst arrival at %q: %.2f ps\n", res.WorstOutput, res.WorstArrival*1e12)
	fmt.Printf("critical path (latest first): %v\n", res.CriticalPath)

	fmt.Println("\nper-net arrivals (ps):")
	for _, net := range []string{"x0", "y0", "x1", "y1", "x2", "y2", "x3", "out"} {
		ar := res.Arrivals[net]
		fmt.Printf("  %-4s rise %7.2f  fall %7.2f\n", net, ar.Rise*1e12, ar.Fall*1e12)
	}

	// Re-analysis after an edit: double the width of the first NAND's
	// devices and re-run on the same, warm analyzer.
	for _, t := range nl.Transistors[:3] {
		t.W *= 2
	}
	start = time.Now()
	res2, err := a.AnalyzeContext(nil, sta.Request{
		Netlist: nl,
		Primary: map[string]sta.Arrival{"a0": {}, "b0": {}, "b1": {}, "b2": {}, "b3": {}},
		Outputs: []string{"out"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter upsizing stage 0: %d stage evaluation(s) in %v (others cached)\n",
		res2.StagesEvaluated, time.Since(start))
	fmt.Printf("worst arrival: %.2f ps (was %.2f ps, improved %.2f ps)\n",
		res2.WorstArrival*1e12, res.WorstArrival*1e12,
		math.Abs(res.WorstArrival-res2.WorstArrival)*1e12)
}

// rippleChain builds n NAND2+INV stages: x_i = NAND(prev, b_i), y_i = NOT x_i.
func rippleChain(tech *mos.Tech, n int) *circuit.Netlist {
	nl := &circuit.Netlist{}
	prev := "a0"
	for i := 0; i < n; i++ {
		x := fmt.Sprintf("x%d", i)
		y := fmt.Sprintf("y%d", i)
		if i == n-1 {
			y = "out"
		}
		b := fmt.Sprintf("b%d", i)
		mid := fmt.Sprintf("t%d", i)
		// NAND2(prev, b) -> x
		nl.AddTransistor(&circuit.Transistor{Name: "mn" + x + "a", Kind: circuit.KindNMOS, Drain: mid, Gate: prev, Source: "0", Body: "0", W: 1e-6, L: tech.LMin})
		nl.AddTransistor(&circuit.Transistor{Name: "mn" + x + "b", Kind: circuit.KindNMOS, Drain: x, Gate: b, Source: mid, Body: "0", W: 1e-6, L: tech.LMin})
		nl.AddTransistor(&circuit.Transistor{Name: "mp" + x + "a", Kind: circuit.KindPMOS, Drain: x, Gate: prev, Source: "vdd", Body: "vdd", W: 2e-6, L: tech.LMin})
		nl.AddTransistor(&circuit.Transistor{Name: "mp" + x + "b", Kind: circuit.KindPMOS, Drain: x, Gate: b, Source: "vdd", Body: "vdd", W: 2e-6, L: tech.LMin})
		// INV x -> y
		nl.AddTransistor(&circuit.Transistor{Name: "mn" + y, Kind: circuit.KindNMOS, Drain: y, Gate: x, Source: "0", Body: "0", W: 1e-6, L: tech.LMin})
		nl.AddTransistor(&circuit.Transistor{Name: "mp" + y, Kind: circuit.KindPMOS, Drain: y, Gate: x, Source: "vdd", Body: "vdd", W: 2e-6, L: tech.LMin})
		prev = y
	}
	nl.AddCapacitor("cl", "out", "0", 15e-15)
	return nl
}
