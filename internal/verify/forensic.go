package verify

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"qwm/internal/devmodel"
	"qwm/internal/mos"
	"qwm/internal/obs"
	"qwm/internal/qwm"
	"qwm/internal/wave"
)

// ForensicBundle describes one written forensic dump: which case it captured
// and which files landed in the directory. It is also serialized into the
// bundle itself (manifest.json) so a directory is self-describing.
type ForensicBundle struct {
	// Case identifies the re-run case and repeats its differential outcome.
	Case StageDiff `json:"case"`
	// Index is the case's position in the report's stage-case stream (the
	// regeneration replays the seeded generator Index+1 times).
	Index int `json:"index"`
	// Seed is the report seed the regeneration replayed.
	Seed int64 `json:"seed"`
	// Files lists the bundle files, relative to the bundle directory.
	Files []string `json:"files"`
}

// forensicWaveforms is the waveforms.json payload: the captured region trail
// and the piecewise-quadratic waveforms of every chain node.
type forensicWaveforms struct {
	Label         string        `json:"label"`
	VDD           float64       `json:"vdd"`
	SwitchAt      float64       `json:"switch_at"`
	Rising        bool          `json:"rising"`
	Events        []regionEvent `json:"events"`
	CriticalTimes []float64     `json:"critical_times"`
	Folded        []*wave.PWQ   `json:"folded"`
	Nodes         []*wave.PWQ   `json:"nodes"`
	Stats         qwm.Stats     `json:"stats"`
	TailTruncated bool          `json:"tail_truncated"`
}

// regionEvent is one committed region rendered for JSON (EventKind as text).
type regionEvent struct {
	Region  int     `json:"region"`
	Kind    string  `json:"kind"`
	Elem    int     `json:"elem,omitempty"`
	Target  float64 `json:"target,omitempty"`
	Tau     float64 `json:"tau"`
	Pending string  `json:"pending,omitempty"`
}

// WorstStageIndex picks the stage case a forensic dump should capture: the
// first engine-error case if any exist (an outright failure beats any finite
// error), otherwise the case with the largest delay error. Returns -1 when
// the report has no stage cases.
func WorstStageIndex(rep *Report) int {
	worst, worstErr := -1, -1.0
	for i, d := range rep.Stage {
		if d.Err != "" {
			return i
		}
		if d.DelayErrPct > worstErr {
			worst, worstErr = i, d.DelayErrPct
		}
	}
	return worst
}

// DumpWorst regenerates the report's worst stage case (replaying the seeded
// generator stream — stage cases are drawn first, so case i is reproduced by
// i+1 sequential draws) and re-runs it with per-region waveform capture
// enabled, writing a self-contained forensic bundle into dir:
//
//	manifest.json   bundle description (this ForensicBundle)
//	case.json       the differential outcome being investigated
//	waveforms.json  captured piecewise-quadratic waveforms + region trail
//	trace.json      the region decomposition as Chrome trace-event JSON
//	                (circuit picoseconds rendered as trace microseconds —
//	                load it in Perfetto and read µs as ps)
//
// The directory is created if missing. Dump succeeds even for cases that
// failed their gate — that is the point — but returns an error if the
// regenerated case cannot be evaluated at all AND produced no events.
func DumpWorst(rep *Report, dir string) (*ForensicBundle, error) {
	idx := WorstStageIndex(rep)
	if idx < 0 {
		return nil, fmt.Errorf("verify: forensic dump: report has no stage cases")
	}
	return DumpStageCase(rep, idx, dir)
}

// DumpStageCase writes the forensic bundle for stage case idx of rep into
// dir. See DumpWorst for the bundle layout.
func DumpStageCase(rep *Report, idx int, dir string) (*ForensicBundle, error) {
	if idx < 0 || idx >= len(rep.Stage) {
		return nil, fmt.Errorf("verify: forensic dump: stage case %d out of range [0,%d)", idx, len(rep.Stage))
	}
	tech := mos.CMOSP35()
	c, err := regenStageCase(tech, rep.Seed, idx)
	if err != nil {
		return nil, err
	}
	if c.Name != rep.Stage[idx].Name {
		return nil, fmt.Errorf("verify: forensic dump: regenerated case %q does not match report case %q (seed mismatch?)",
			c.Name, rep.Stage[idx].Name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("verify: forensic dump: %w", err)
	}

	b := &ForensicBundle{Case: rep.Stage[idx], Index: idx, Seed: rep.Seed}

	// Re-run with the region trail collected. The evaluation goes through
	// qwm directly (not the bench harness) so the full Result — waveforms
	// included — is available; a Result owns its waveforms, so they are
	// written without a copy.
	var events []qwm.Event
	ch, err := qwm.Build(qwm.BuildInput{
		Tech: tech, Lib: devmodel.NewLibrary(tech),
		Stage: c.W.Stage, Path: c.W.Path,
		Inputs: c.W.Inputs, Loads: c.W.Loads, V0: c.W.IC,
	})
	var res *qwm.Result
	if err == nil {
		res, err = qwm.Evaluate(ch, qwm.Options{Events: qwm.EventFunc(func(ev qwm.Event) { events = append(events, ev) })})
	}
	if err != nil && len(events) == 0 {
		return nil, fmt.Errorf("verify: forensic dump: case %s produced no capturable state: %v", c.Name, err)
	}

	wf := &forensicWaveforms{
		Label:    c.Name,
		VDD:      tech.VDD,
		SwitchAt: c.W.SwitchAt,
		Rising:   c.W.Rising,
	}
	if err == nil {
		wf.CriticalTimes = res.CriticalTimes
		wf.Folded, wf.Nodes = res.Folded, res.Nodes
		wf.Stats, wf.TailTruncated = res.Stats, res.TailTruncated
	}
	for _, ev := range events {
		wf.Events = append(wf.Events, regionEvent{
			Region: ev.Region, Kind: ev.Kind.String(), Elem: ev.Elem,
			Target: ev.Target, Tau: ev.Tau, Pending: ev.Pending,
		})
	}

	traceJSON, err := regionTraceJSON(c.Name, events, c.W.SwitchAt)
	if err != nil {
		return nil, fmt.Errorf("verify: forensic dump: trace: %w", err)
	}

	write := func(name string, data []byte) error {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return fmt.Errorf("verify: forensic dump: write %s: %w", name, err)
		}
		b.Files = append(b.Files, name)
		return nil
	}
	caseJSON, _ := json.MarshalIndent(rep.Stage[idx], "", "  ")
	if err := write("case.json", caseJSON); err != nil {
		return nil, err
	}
	wfJSON, err := json.MarshalIndent(wf, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("verify: forensic dump: waveforms: %w", err)
	}
	if err := write("waveforms.json", wfJSON); err != nil {
		return nil, err
	}
	if err := write("trace.json", traceJSON); err != nil {
		return nil, err
	}
	manifest, _ := json.MarshalIndent(b, "", "  ")
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), manifest, 0o644); err != nil {
		return nil, fmt.Errorf("verify: forensic dump: write manifest.json: %w", err)
	}
	b.Files = append([]string{"manifest.json"}, b.Files...)
	return b, nil
}

// regenStageCase replays the seeded generator stream up to and including
// case idx. Stage cases are the FIRST draws from the run's rand stream (see
// Run), so no other generator consumption has to be replayed.
func regenStageCase(tech *mos.Tech, seed int64, idx int) (*StageCase, error) {
	r := rand.New(rand.NewSource(seed))
	var c *StageCase
	var err error
	for i := 0; i <= idx; i++ {
		c, err = GenStageCase(tech, r, i)
		if err != nil {
			return nil, fmt.Errorf("verify: regenerate stage case %d: %w", i, err)
		}
	}
	return c, nil
}

// regionTraceJSON renders the region decomposition of the evaluation label
// as Chrome trace-event JSON: one complete ("X") span per committed region
// (events, in commit order) on a single track, with circuit picoseconds
// mapped to trace microseconds (Perfetto has no picosecond unit; read its µs
// axis as ps). Region i spans from the previous region's τ′ (or the
// switching instant) to its own τ′.
func regionTraceJSON(label string, events []qwm.Event, switchAt float64) ([]byte, error) {
	const pid, tid = 1, 0
	out := []obs.TraceEvent{
		{Name: "process_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": "qwm regions: " + label}},
		{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": "regions (1 trace µs = 1 circuit ps)"}},
	}
	prev := switchAt
	for _, ev := range events {
		start, end := prev, ev.Tau
		if end < start {
			start = end
		}
		ts := (start - switchAt) * 1e12 // circuit ps → trace µs
		dur := (end - start) * 1e12
		if dur <= 0 {
			dur = 1e-3 // render zero-length regions as 1 ns (≙ 1 fs) slivers
		}
		args := map[string]any{
			"kind":   ev.Kind.String(),
			"tau_ps": ev.Tau * 1e12,
		}
		switch ev.Kind {
		case qwm.RegionTurnOn:
			args["elem"] = ev.Elem
		case qwm.RegionCross:
			args["target_v"] = ev.Target
		case qwm.RegionTimeCap:
			args["pending"] = ev.Pending
		}
		d := dur
		out = append(out, obs.TraceEvent{
			Name: fmt.Sprintf("region %d: %s", ev.Region, ev.Kind),
			Cat:  "qwm", Ph: "X", TS: ts, Dur: &d, Pid: pid, Tid: tid,
			Args: args,
		})
		prev = ev.Tau
	}
	md := map[string]any{
		"source":    "qwm/internal/verify.DumpStageCase",
		"case":      label,
		"time_unit": "1 trace µs = 1 circuit ps",
	}
	return obs.ChromeTraceJSON(out, md)
}
