package sta

import (
	"testing"

	"qwm/internal/circuit"
)

// TestGatherInputs pins the worst-input selection and its tie-breaking: the
// >= comparison means a later input (stage inputs are sorted) wins an exact
// tie, and unconstrained inputs (no arrival entry) still register as t = 0
// ideal steps so riseFrom/fallFrom point at a real net.
func TestGatherInputs(t *testing.T) {
	cases := []struct {
		name     string
		inputs   []string
		arrivals map[string]Arrival
		want     stageInputs
	}{
		{
			name:   "no inputs",
			inputs: nil,
			want:   stageInputs{},
		},
		{
			name:     "all unconstrained ties break to last sorted input",
			inputs:   []string{"a", "b", "c"},
			arrivals: map[string]Arrival{},
			want:     stageInputs{riseFrom: "c", fallFrom: "c"},
		},
		{
			name:   "exact tie breaks to later input",
			inputs: []string{"a", "b"},
			arrivals: map[string]Arrival{
				"a": {Rise: 10e-12, Fall: 10e-12},
				"b": {Rise: 10e-12, Fall: 10e-12},
			},
			want: stageInputs{
				latestRise: 10e-12, latestFall: 10e-12,
				riseFrom: "b", fallFrom: "b",
			},
		},
		{
			name:   "distinct arrivals pick the max per direction",
			inputs: []string{"a", "b"},
			arrivals: map[string]Arrival{
				"a": {Rise: 30e-12, RiseSlew: 7e-12, Fall: 5e-12, FallSlew: 1e-12},
				"b": {Rise: 10e-12, RiseSlew: 9e-12, Fall: 20e-12, FallSlew: 3e-12},
			},
			want: stageInputs{
				latestRise: 30e-12, riseSlew: 7e-12, riseFrom: "a",
				latestFall: 20e-12, fallSlew: 3e-12, fallFrom: "b",
			},
		},
		{
			name:   "unconstrained input loses to any positive arrival",
			inputs: []string{"a", "z"},
			arrivals: map[string]Arrival{
				"a": {Rise: 1e-12, Fall: 1e-12},
			},
			want: stageInputs{
				latestRise: 1e-12, latestFall: 1e-12,
				riseFrom: "a", fallFrom: "a",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := &circuit.Stage{Inputs: c.inputs}
			got := gatherInputs(st, c.arrivals)
			if got != c.want {
				t.Errorf("gatherInputs = %+v, want %+v", got, c.want)
			}
		})
	}
}

// TestUnconstrainedTraceTerminates runs a full analysis with an empty
// primary map: every input is unconstrained (empty riseFrom/fallFrom never
// occurs for stages with inputs, but primary inputs have no predecessor
// entry), and critical-path tracing must still terminate cleanly at the
// primary input instead of looping.
func TestUnconstrainedTraceTerminates(t *testing.T) {
	a := New(tech, lib)
	nl := inverterChain(3, 1e-6, 2e-6)
	res, err := a.AnalyzeContext(nil, Request{Netlist: nl, Primary: map[string]Arrival{}, Outputs: []string{"out"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CriticalPath) == 0 || res.CriticalPath[0] != "out" {
		t.Fatalf("critical path %v does not start at the output", res.CriticalPath)
	}
	last := res.CriticalPath[len(res.CriticalPath)-1]
	if last != "in0" {
		t.Errorf("critical path %v does not terminate at the primary input", res.CriticalPath)
	}
	if len(res.CriticalPath) > 4 {
		t.Errorf("critical path %v longer than the chain: tracing did not terminate cleanly", res.CriticalPath)
	}
}
