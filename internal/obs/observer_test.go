package obs

import "testing"

// TestFuncsNilFieldsIgnoreEvents: a zero Funcs observer accepts every event
// without panicking, and set fields receive theirs.
func TestFuncsNilFieldsIgnoreEvents(t *testing.T) {
	var zero Funcs
	zero.AnalyzeStart(AnalyzeStartInfo{})
	zero.LevelStart(LevelStartInfo{})
	zero.StageEval(StageEvalInfo{})
	zero.AnalyzeEnd(AnalyzeEndInfo{})

	got := 0
	f := Funcs{OnStageEval: func(StageEvalInfo) { got++ }}
	f.StageEval(StageEvalInfo{})
	f.AnalyzeStart(AnalyzeStartInfo{}) // ignored, nil field
	if got != 1 {
		t.Errorf("OnStageEval fired %d times, want 1", got)
	}
	// Nop implements the interface and does nothing.
	var _ Observer = Nop{}
}
