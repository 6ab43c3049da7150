package obs

import "encoding/json"

// TraceEvent is one Chrome trace-event object (the JSON array format).
// Ph "X" is a complete (self-balanced) duration event; "M" is metadata.
// Timestamps and durations are microseconds.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON object format wrapper Perfetto accepts.
type chromeTrace struct {
	TraceEvents []TraceEvent   `json:"traceEvents"`
	Metadata    map[string]any `json:"metadata,omitempty"`
}

// ChromeTraceJSON serializes a prebuilt event list in the Chrome trace
// object format — the one serializer behind every trace this module writes
// (request traces, see RequestTrace.ChromeJSON, and the forensic bundle's
// QWM region trace), so all of them load in Perfetto and chrome://tracing.
func ChromeTraceJSON(events []TraceEvent, metadata map[string]any) ([]byte, error) {
	return json.MarshalIndent(chromeTrace{TraceEvents: events, Metadata: metadata}, "", " ")
}

func durp(d float64) *float64 { return &d }
