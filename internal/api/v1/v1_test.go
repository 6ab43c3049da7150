package v1

import (
	"encoding/json"
	"reflect"
	"testing"

	"qwm/internal/sta"
)

// The golden strings below are the v1 stability promise in executable form:
// if marshalling one of these messages ever produces different bytes, a
// field, tag or type changed and the wire contract is broken. Changing a
// golden string here is only legal when ADDING an optional field.

func roundTrip[T any](t *testing.T, msg T, golden string) {
	t.Helper()
	b, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != golden {
		t.Fatalf("marshal drifted from golden:\n got  %s\n want %s", b, golden)
	}
	var back T
	if err := json.Unmarshal([]byte(golden), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, msg) {
		t.Fatalf("round-trip mismatch:\n got  %#v\n want %#v", back, msg)
	}
}

func TestAnalyzeRequestGolden(t *testing.T) {
	req := AnalyzeRequest{
		SchemaVersion: SchemaVersion,
		ID:            "r1",
		Netlist:       "* inv\nM1 out in 0 0 NMOS W=1u L=0.35u\n.end\n",
		Inputs:        map[string]Arrival{"in": {Rise: 1e-10, Fall: 2e-10, RiseSlew: 5e-12, FallSlew: 0}},
		Outputs:       []string{"out"},
		Budget:        &Budget{NRIters: 500, WallMS: 2.5},
		Features:      &Features{ReduceTolPct: 1},
	}
	const golden = `{"schema_version":"qwm.v1","id":"r1","netlist":"* inv\nM1 out in 0 0 NMOS W=1u L=0.35u\n.end\n","inputs":{"in":{"rise":1e-10,"fall":2e-10,"rise_slew":5e-12,"fall_slew":0}},"outputs":["out"],"budget":{"nr_iters":500,"wall_ms":2.5},"features":{"reduce_tol_pct":1}}`
	roundTrip(t, req, golden)
}

func TestAnalyzeRequestMinimalGolden(t *testing.T) {
	// The curl-friendly minimum: netlist + outputs, everything else
	// defaulted. Optional zero fields must not appear on the wire.
	req := AnalyzeRequest{Netlist: "deck", Outputs: []string{"y"}}
	const golden = `{"netlist":"deck","outputs":["y"]}`
	roundTrip(t, req, golden)
}

func TestAnalyzeResponseGolden(t *testing.T) {
	resp := AnalyzeResponse{
		SchemaVersion: SchemaVersion,
		ID:            "r1",
		Status:        StatusOK,
		Result: &AnalyzeResult{
			WorstArrival:    3.25e-10,
			WorstOutput:     "out",
			CriticalPath:    []string{"out", "x1", "in"},
			StagesEvaluated: 4,
			Outputs:         map[string]Arrival{"out": {Rise: 3.25e-10, Fall: 2e-10, RiseSlew: 4e-11, FallSlew: 3e-11}},
			Diagnostics: Diagnostics{
				Healthy:    false,
				Degraded:   1,
				TierCounts: map[string]int{"spice": 1},
				EvalTier:   map[string]string{"out~rise": "spice"},
				Summary:    "degraded",
			},
		},
	}
	const golden = `{"schema_version":"qwm.v1","id":"r1","status":"ok","result":{"worst_arrival":3.25e-10,"worst_output":"out","critical_path":["out","x1","in"],"stages_evaluated":4,"outputs":{"out":{"rise":3.25e-10,"fall":2e-10,"rise_slew":4e-11,"fall_slew":3e-11}},"diagnostics":{"healthy":false,"degraded":1,"tier_counts":{"spice":1},"eval_tier":{"out~rise":"spice"},"summary":"degraded"}}}`
	roundTrip(t, resp, golden)
}

func TestErrorResponseGolden(t *testing.T) {
	resp := ErrorResponse("b9", CodeOverloaded, "queue full")
	const golden = `{"schema_version":"qwm.v1","id":"b9","status":"error","error":{"code":"overloaded","message":"queue full"}}`
	roundTrip(t, resp, golden)
}

func TestBatchGolden(t *testing.T) {
	breq := BatchRequest{
		SchemaVersion: SchemaVersion,
		Async:         true,
		Requests: []AnalyzeRequest{
			{Netlist: "d1", Outputs: []string{"a"}},
			{Netlist: "d2", Outputs: []string{"b"}},
		},
	}
	const goldenReq = `{"schema_version":"qwm.v1","async":true,"requests":[{"netlist":"d1","outputs":["a"]},{"netlist":"d2","outputs":["b"]}]}`
	roundTrip(t, breq, goldenReq)

	bresp := BatchResponse{
		SchemaVersion: SchemaVersion,
		ID:            "b1",
		Status:        StatusPending,
		Completed:     1,
		Total:         2,
	}
	const goldenResp = `{"schema_version":"qwm.v1","id":"b1","status":"pending","completed":1,"total":2}`
	roundTrip(t, bresp, goldenResp)
}

// TestTraceIDGolden pins the trailing trace_id addition: present when a
// traced server stamps it, absent from the wire otherwise (the existing
// goldens above prove the absent case — they predate the field).
func TestTraceIDGolden(t *testing.T) {
	resp := AnalyzeResponse{
		SchemaVersion: SchemaVersion,
		ID:            "r1",
		Status:        StatusOK,
		TraceID:       "aaaabbbbccccddddaaaabbbbccccdddd",
	}
	const golden = `{"schema_version":"qwm.v1","id":"r1","status":"ok","trace_id":"aaaabbbbccccddddaaaabbbbccccdddd"}`
	roundTrip(t, resp, golden)

	bresp := BatchResponse{
		SchemaVersion: SchemaVersion,
		ID:            "b1",
		Status:        StatusPending,
		Total:         1,
		TraceID:       "aaaabbbbccccddddaaaabbbbccccdddd",
	}
	const goldenBatch = `{"schema_version":"qwm.v1","id":"b1","status":"pending","completed":0,"total":1,"trace_id":"aaaabbbbccccddddaaaabbbbccccdddd"}`
	roundTrip(t, bresp, goldenBatch)
}

func TestValidate(t *testing.T) {
	if err := Validate(""); err != nil {
		t.Fatalf("empty version must be accepted: %v", err)
	}
	if err := Validate(SchemaVersion); err != nil {
		t.Fatalf("exact version must be accepted: %v", err)
	}
	if err := Validate("qwm.v2"); err == nil {
		t.Fatal("future version must be rejected")
	}
}

func TestFromDiagnostics(t *testing.T) {
	var d sta.Diagnostics
	d.TierCounts[sta.TierQWM] = 7
	got := FromDiagnostics(d)
	if !got.Healthy {
		t.Fatal("clean diagnostics must convert healthy")
	}
	if got.TierCounts["qwm"] != 7 {
		t.Fatalf("tier counts = %v, want qwm:7", got.TierCounts)
	}
	if got.Summary != "" {
		t.Fatalf("healthy diagnostics must omit the summary, got %q", got.Summary)
	}

	d.Degraded = 2
	d.EvalTier = map[string]string{"o~rise": "rc-bound"}
	deg := FromDiagnostics(d)
	if deg.Healthy {
		t.Fatal("degraded diagnostics must convert unhealthy")
	}
	if deg.EvalTier["o~rise"] != "rc-bound" || deg.Summary == "" {
		t.Fatalf("degraded conversion lost detail: %+v", deg)
	}
}

func TestFromResultArrivalBitsSurvive(t *testing.T) {
	// The JSON float encoding is shortest-round-trip: arrival bits must
	// survive marshal → unmarshal exactly, or the service could never honor
	// its bit-identity guarantee.
	res := &sta.Result{
		Arrivals: map[string]sta.Arrival{
			"out": {Rise: 3.141592653589793e-10, Fall: 2.718281828459045e-10, RiseSlew: 1.1e-11, FallSlew: 0x1p-40},
		},
		WorstArrival: 3.141592653589793e-10,
		WorstOutput:  "out",
	}
	wire := FromResult(res, []string{"out"}, false)
	b, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	var back AnalyzeResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Outputs["out"].STA() != res.Arrivals["out"] {
		t.Fatalf("arrival bits changed over the wire: %v != %v", back.Outputs["out"], res.Arrivals["out"])
	}
}
