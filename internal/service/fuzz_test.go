package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	v1 "qwm/internal/api/v1"
)

// maxFuzzBody bounds the bodies FuzzAnalyzeBody posts: large enough for a
// 3-bit decoder request, small enough that every input analyzes quickly.
const maxFuzzBody = 4 << 10

// FuzzAnalyzeBody: POST /analyze is the v1 front door, and its body comes
// from any client. Whatever the body — malformed JSON, a batch, an async
// batch, an invalid netlist, a chaos request — the handler must not panic,
// must not answer 5xx, and must answer with a v1 envelope (the current
// schema version and a status). Seeds: the decoder request and the bodies
// TestAnalyzeRejectBodiesPinned pins, under testdata/fuzz/FuzzAnalyzeBody.
func FuzzAnalyzeBody(f *testing.F) {
	s := New(tech, lib, Options{})
	f.Cleanup(func() { s.Close() })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxFuzzBody {
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body)))
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("body %q: status %d %s", body, rec.Code, rec.Body)
		}
		var env struct {
			SchemaVersion string `json:"schema_version"`
			Status        string `json:"status"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("body %q: status %d answered a non-JSON body %q: %v", body, rec.Code, rec.Body, err)
		}
		if env.SchemaVersion != v1.SchemaVersion || env.Status == "" {
			t.Fatalf("body %q: status %d answered %q, not a v1 envelope", body, rec.Code, rec.Body)
		}
	})
}
