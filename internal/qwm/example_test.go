package qwm_test

import (
	"fmt"

	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/qwm"
	"qwm/internal/wave"
)

// Evaluate a hand-built 3-transistor discharge chain: the bottom gate steps
// at t = 0 with the stack precharged, and QWM returns the piecewise
// quadratic waveform of every node.
func ExampleEvaluate() {
	tech := mos.CMOSP35()
	lib := devmodel.NewLibrary(tech)
	tbl, err := lib.Table(mos.NMOS, tech.LMin)
	if err != nil {
		fmt.Println(err)
		return
	}

	step := wave.Step{At: 0, Low: 0, High: tech.VDD}
	high := wave.DC(tech.VDD)
	ch := &qwm.Chain{
		Pol: mos.NMOS, VDD: tech.VDD,
		Elems: []*qwm.Elem{
			{Model: tbl, W: 1e-6, Gate: step}, // switching, at the rail
			{Model: tbl, W: 1e-6, Gate: high},
			{Model: tbl, W: 1e-6, Gate: high},
		},
		Caps: []qwm.NodeCap{{Fixed: 5e-15}, {Fixed: 5e-15}, {Fixed: 15e-15}},
		V0:   []float64{tech.VDD, tech.VDD, tech.VDD},
	}
	res, err := qwm.Evaluate(ch, qwm.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	delay, err := res.Delay50(0, tech.VDD)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("transistors: %d\n", ch.Transistors())
	fmt.Printf("turn-ons resolved: %v\n", res.Stats.Regions >= 3)
	fmt.Printf("delay in the plausible band: %v\n", delay > 20e-12 && delay < 500e-12)
	fmt.Printf("output starts at VDD: %v\n", res.Output.Eval(0) == tech.VDD)
	// Output:
	// transistors: 3
	// turn-ons resolved: true
	// delay in the plausible band: true
	// output starts at VDD: true
}
