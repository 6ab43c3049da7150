// Package v1 is the repository's versioned wire schema: the JSON types the
// timing-analysis service (internal/service), the CLI tools (cmd/sta,
// cmd/stad, cmd/verify) and any future replica-to-replica protocol exchange.
// It is the first schema with a stability promise:
//
//   - Every top-level message carries SchemaVersion ("qwm.v1"). A consumer
//     must reject messages whose version it does not understand rather than
//     guess at field semantics.
//   - Within v1, fields are append-only: a field, its JSON name, its type
//     and its meaning never change once released. New OPTIONAL fields may be
//     added (consumers ignore unknown fields, the encoding/json default).
//   - Breaking changes get a new package (internal/api/v2) and a new version
//     string; the service then serves both during a migration window.
//
// The package deliberately contains only data types, constants and
// conversions from the engine's native results — no HTTP, no handlers — so
// every emitter (service responses, cmd/sta -metrics-json dumps) shares one
// schema instead of growing ad-hoc structs.
package v1

import (
	"fmt"
	"strings"
	"time"

	"qwm/internal/obs"
	"qwm/internal/sta"
)

// SchemaVersion is the version string every v1 message carries.
const SchemaVersion = "qwm.v1"

// Validate checks a message's schema_version field. An empty version is
// accepted on REQUESTS (a v1 endpoint assumes v1 when unlabelled, which
// keeps curl one-liners pleasant); anything else must match exactly.
func Validate(version string) error {
	if version == "" || version == SchemaVersion {
		return nil
	}
	return fmt.Errorf("api: unsupported schema version %q (this endpoint speaks %q)", version, SchemaVersion)
}

// Arrival is a rise/fall arrival-time pair in seconds with the transition
// times of the arriving edges — the wire form of sta.Arrival. A negative
// slew or one above sta.MaxInputSlew is rejected with invalid_request.
type Arrival struct {
	Rise     float64 `json:"rise"`
	Fall     float64 `json:"fall"`
	RiseSlew float64 `json:"rise_slew"`
	FallSlew float64 `json:"fall_slew"`
}

// FromArrival converts the engine's native arrival.
func FromArrival(a sta.Arrival) Arrival {
	return Arrival{Rise: a.Rise, Fall: a.Fall, RiseSlew: a.RiseSlew, FallSlew: a.FallSlew}
}

// STA returns the engine's native form.
func (a Arrival) STA() sta.Arrival {
	return sta.Arrival{Rise: a.Rise, Fall: a.Fall, RiseSlew: a.RiseSlew, FallSlew: a.FallSlew}
}

// Features selects the per-analyzer accelerator configuration. The service
// pools analyzers by this (plus the budget), so two requests with equal
// features share a delay cache and a disk-cache namespace. Older clients may
// still send "memo" and "interp" keys here; like any unknown key, they are
// ignored.
type Features struct {
	// ReduceTolPct > 0 enables the RC-chain reduction pre-pass with that
	// second-moment mismatch tolerance in percent (cmd/sta -reduce).
	ReduceTolPct float64 `json:"reduce_tol_pct,omitempty"`
}

// Budget bounds each stage-direction evaluation (see sta.EvalBudget).
// Exhaustion degrades the solver tier; it never fails the request.
type Budget struct {
	NRIters int `json:"nr_iters,omitempty"`
	// WallMS is the per-evaluation wall-clock budget in milliseconds.
	// Wall budgets are inherently racy with scheduling; prefer NRIters
	// when cross-run determinism matters.
	WallMS float64 `json:"wall_ms,omitempty"`
}

// STA returns the engine's native form.
func (b Budget) STA() sta.EvalBudget {
	return sta.EvalBudget{NRIters: b.NRIters, Wall: time.Duration(b.WallMS * float64(time.Millisecond))}
}

// Chaos arms the engine's deterministic fault-injection hooks for one
// request — verification traffic, not production. A chaos request always
// runs on a fresh, unpooled analyzer with no disk tier, so injected faults
// can never poison shared caches. Decisions are pure hashes of (seed,
// class, site), so identical chaos requests produce identical responses.
type Chaos struct {
	Seed int64 `json:"seed"`
	// Classes names the armed fault classes (see internal/faultinject:
	// "nr-divergence", "pivot-breakdown", "panic", "budget-exhaustion",
	// "cache-stall").
	Classes []string `json:"classes"`
	// Rate is the per-class firing rate in (0, 1]; 0 means 1.
	Rate float64 `json:"rate,omitempty"`
}

// AnalyzeRequest asks for one timing analysis of one netlist.
type AnalyzeRequest struct {
	SchemaVersion string `json:"schema_version,omitempty"`
	// ID is a client-chosen label echoed back on the response.
	ID string `json:"id,omitempty"`
	// Tech names the device technology. "" and "cmos035" select the
	// in-repo 0.35 µm CMOS kit; anything else is rejected.
	Tech string `json:"tech,omitempty"`
	// Netlist is the circuit as SPICE-style deck text (the internal/netlist
	// dialect: title line, M/R/C/V cards, .end).
	Netlist string `json:"netlist"`
	// Inputs maps primary-input nets to arrivals; missing inputs arrive at
	// t = 0 as ideal steps.
	Inputs map[string]Arrival `json:"inputs,omitempty"`
	// Outputs are the primary outputs the analysis is asked about.
	Outputs []string `json:"outputs"`
	// Budget, when set, bounds each stage-direction evaluation.
	Budget *Budget `json:"budget,omitempty"`
	// Features selects the analyzer pool the request runs on; nil means all
	// accelerators off (the engine's exact baseline).
	Features *Features `json:"features,omitempty"`
	// Chaos arms deterministic fault injection (verification traffic).
	Chaos *Chaos `json:"chaos,omitempty"`
	// FullArrivals asks for every net's arrival in the result, not just the
	// requested outputs'.
	FullArrivals bool `json:"full_arrivals,omitempty"`
}

// Response status values.
const (
	StatusOK      = "ok"
	StatusError   = "error"
	StatusPending = "pending"
)

// Error code values.
const (
	CodeInvalidRequest = "invalid_request" // malformed JSON, bad schema version, bad fields
	CodeInvalidNetlist = "invalid_netlist" // deck parse or pre-flight validation failure
	CodeAnalysisFailed = "analysis_failed" // the engine returned an error
	CodeOverloaded     = "overloaded"      // work queue full; retry after backoff
	CodeNotFound       = "not_found"       // unknown /result id
	CodeGone           = "gone"            // /result id was retained, then FIFO-evicted
	CodeCancelled      = "cancelled"       // client disconnected before analysis started
)

// Error is the wire form of a failure.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return e.Code + ": " + e.Message }

// Diagnostics is the wire form of sta.Diagnostics: the degradation
// accounting of one analysis.
type Diagnostics struct {
	Healthy         bool              `json:"healthy"`
	EvalErrors      int               `json:"eval_errors,omitempty"`
	SlewFallbacks   int               `json:"slew_fallbacks,omitempty"`
	Degraded        int               `json:"degraded,omitempty"`
	PanicsRecovered int               `json:"panics_recovered,omitempty"`
	TierCounts      map[string]int    `json:"tier_counts,omitempty"`
	EvalTier        map[string]string `json:"eval_tier,omitempty"`
	EvalErrorDetail map[string]string `json:"eval_error_detail,omitempty"`
	ReducedNodes    int               `json:"reduced_nodes,omitempty"`
	// Summary is the engine's one-line human-readable rendering.
	Summary string `json:"summary,omitempty"`
}

// FromDiagnostics converts the engine's native diagnostics. TierCounts maps
// tier name → count and omits zero tiers, so the wire form is stable even
// if the engine grows tiers.
func FromDiagnostics(d sta.Diagnostics) Diagnostics {
	out := Diagnostics{
		Healthy:         d.Healthy(),
		EvalErrors:      d.EvalErrors,
		SlewFallbacks:   d.SlewFallbacks,
		Degraded:        d.Degraded,
		PanicsRecovered: d.PanicsRecovered,
		ReducedNodes:    d.ReducedNodes,
	}
	for t := sta.TierQWM; t < sta.NumTiers; t++ {
		if n := d.TierCounts[t]; n != 0 {
			if out.TierCounts == nil {
				out.TierCounts = map[string]int{}
			}
			out.TierCounts[t.String()] = n
		}
	}
	out.EvalTier = cloneMap(d.EvalTier)
	out.EvalErrorDetail = cloneMap(d.EvalErrorDetail)
	if !out.Healthy {
		out.Summary = d.String()
	}
	return out
}

// cloneMap deep-copies a diagnostics map, strings included (see
// FromResult); an empty map stays nil.
func cloneMap(m map[string]string) map[string]string {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[strings.Clone(k)] = strings.Clone(v)
	}
	return out
}

// AnalyzeResult is the wire form of a completed analysis.
type AnalyzeResult struct {
	// WorstArrival/WorstOutput are the max arrival over the requested
	// outputs and the output it occurs at (seconds).
	WorstArrival float64 `json:"worst_arrival"`
	WorstOutput  string  `json:"worst_output"`
	// CriticalPath lists nets from the worst output back to a primary
	// input, latest first.
	CriticalPath []string `json:"critical_path"`
	// StagesEvaluated counts solver evaluations this analysis performed;
	// a fully warm (memory- or disk-cached) run reports 0.
	StagesEvaluated int `json:"stages_evaluated"`
	// Outputs holds the requested outputs' arrivals. Arrivals additionally
	// holds every net when the request set full_arrivals.
	Outputs  map[string]Arrival `json:"outputs"`
	Arrivals map[string]Arrival `json:"arrivals,omitempty"`
	// Diagnostics carries the degradation accounting; check .Healthy.
	Diagnostics Diagnostics `json:"diagnostics"`
}

// FromResult converts an engine result. outputs names the requested primary
// outputs (canonical names); fullArrivals copies the complete arrival map.
//
// The result owns every string it holds. The parser hands out node names as
// substrings of the deck, so a name kept from the engine result would keep
// the whole request deck alive for as long as the response is retained (an
// async batch's responses outlive the request); the critical path, the worst
// output, the arrival keys and the diagnostics maps are therefore cloned.
func FromResult(res *sta.Result, outputs []string, fullArrivals bool) *AnalyzeResult {
	out := &AnalyzeResult{
		WorstArrival:    res.WorstArrival,
		WorstOutput:     strings.Clone(res.WorstOutput),
		CriticalPath:    append([]string(nil), res.CriticalPath...),
		StagesEvaluated: res.StagesEvaluated,
		Outputs:         make(map[string]Arrival, len(outputs)),
		Diagnostics:     FromDiagnostics(res.Diagnostics),
	}
	for i, n := range out.CriticalPath {
		out.CriticalPath[i] = strings.Clone(n)
	}
	for _, o := range outputs {
		if ar, ok := res.Arrivals[o]; ok {
			out.Outputs[strings.Clone(o)] = FromArrival(ar)
		}
	}
	if fullArrivals {
		out.Arrivals = make(map[string]Arrival, len(res.Arrivals))
		for n, ar := range res.Arrivals {
			out.Arrivals[strings.Clone(n)] = FromArrival(ar)
		}
	}
	return out
}

// AnalyzeResponse answers one AnalyzeRequest.
type AnalyzeResponse struct {
	SchemaVersion string         `json:"schema_version"`
	ID            string         `json:"id,omitempty"`
	Status        string         `json:"status"`
	Result        *AnalyzeResult `json:"result,omitempty"`
	Error         *Error         `json:"error,omitempty"`
	// TraceID is the distributed-tracing correlation id of the request that
	// produced this response, stamped only when the serving replica has
	// request tracing enabled; fetch the span tree at /trace/request/{id}.
	// Appended per the v1 append-only policy — absent on untraced replicas.
	TraceID string `json:"trace_id,omitempty"`
}

// OKResponse wraps a result in the success envelope.
func OKResponse(id string, res *AnalyzeResult) AnalyzeResponse {
	return AnalyzeResponse{SchemaVersion: SchemaVersion, ID: id, Status: StatusOK, Result: res}
}

// ErrorResponse wraps a failure in the error envelope.
func ErrorResponse(id, code, msg string) AnalyzeResponse {
	return AnalyzeResponse{
		SchemaVersion: SchemaVersion, ID: id, Status: StatusError,
		Error: &Error{Code: code, Message: msg},
	}
}

// BatchRequest submits many analyses in one call — the multi-netlist ×
// multi-corner workload shape. The service detects a batch by the presence
// of the "requests" key.
type BatchRequest struct {
	SchemaVersion string `json:"schema_version,omitempty"`
	ID            string `json:"id,omitempty"`
	// Async makes POST /analyze return 202 with a batch id immediately;
	// poll GET /result/{id} for the BatchResponse. Synchronous batches
	// block until every sub-request completes.
	Async    bool             `json:"async,omitempty"`
	Requests []AnalyzeRequest `json:"requests"`
}

// BatchResponse answers a BatchRequest: one AnalyzeResponse per sub-request
// in submission order. Status is "pending" while an async batch is still
// executing (Responses then holds only completed slots as nulls/partials
// are not exposed — poll again), "ok" when every sub-request succeeded, and
// "error" when any failed (per-slot errors carry the detail).
type BatchResponse struct {
	SchemaVersion string            `json:"schema_version"`
	ID            string            `json:"id,omitempty"`
	Status        string            `json:"status"`
	Completed     int               `json:"completed"`
	Total         int               `json:"total"`
	Responses     []AnalyzeResponse `json:"responses,omitempty"`
	Error         *Error            `json:"error,omitempty"`
	// TraceID mirrors AnalyzeResponse.TraceID for the batch envelope.
	TraceID string `json:"trace_id,omitempty"`
}

// MetricsEnvelope is the versioned wrapper for metrics-registry dumps
// (cmd/sta -metrics-json): the registry snapshot under a schema_version key
// instead of a bare ad-hoc object.
type MetricsEnvelope struct {
	SchemaVersion string       `json:"schema_version"`
	Metrics       obs.Snapshot `json:"metrics"`
}

// NewMetricsEnvelope stamps a snapshot with the schema version.
func NewMetricsEnvelope(s obs.Snapshot) MetricsEnvelope {
	return MetricsEnvelope{SchemaVersion: SchemaVersion, Metrics: s}
}
