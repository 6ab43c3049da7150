package service

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"

	"qwm/internal/api/v1"
	"qwm/internal/obs"
)

// maxBodyBytes bounds one POST body. Netlists are text; 8 MiB is far above
// any deck this engine targets and keeps a hostile client from ballooning
// the process.
const maxBodyBytes = 8 << 20

// Handler returns the service mux: POST /analyze and GET /result/{id},
// wrapped in the RED-metrics / request-tracing middleware when Options
// configured either (see trace.go; without both the mux is returned bare).
// Mount it alongside an obs.Server handler for the full serving surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/analyze", s.handleAnalyze)
	mux.HandleFunc("/result/", s.handleResult)
	return s.instrument(mux)
}

// httpStatus maps a v1 response to its transport status. The wire envelope
// carries the real verdict; the HTTP code exists for clients and proxies
// that route on status alone.
func httpStatus(resp v1.AnalyzeResponse) int {
	if resp.Status == v1.StatusOK {
		return http.StatusOK
	}
	if resp.Error == nil {
		return http.StatusInternalServerError
	}
	switch resp.Error.Code {
	case v1.CodeInvalidRequest:
		return http.StatusBadRequest
	case v1.CodeInvalidNetlist:
		return http.StatusUnprocessableEntity
	case v1.CodeOverloaded:
		return http.StatusTooManyRequests
	case v1.CodeNotFound:
		return http.StatusNotFound
	case v1.CodeGone:
		return http.StatusGone
	case v1.CodeCancelled:
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

// retryAfter derives the 429 Retry-After hint: a base that grows with the
// queued backlog relative to drain capacity (an empty queue says "1", a deep
// one says "come back much later"), plus a deterministic per-request jitter
// hashed from the request id so a burst of rejected clients does not return
// in lockstep and re-collide. Same id, same depth, same answer — replayable
// under test.
func (s *Server) retryAfter(id string) string {
	base := 1 + s.depth()/(4*s.opts.Workers)
	if base > 30 {
		base = 30
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	return strconv.Itoa(base + int(h.Sum64()%uint64(base+1)))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed,
			v1.ErrorResponse("", v1.CodeInvalidRequest, "POST required"))
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			v1.ErrorResponse("", v1.CodeInvalidRequest, "request body too large"))
		return
	}
	// A batch is detected by the presence of the "requests" key; anything
	// else is a single AnalyzeRequest. One decode reads both. A body it
	// refuses is decoded again in two steps, the "requests" probe and then
	// the request, whose errors are the messages 400 answers carry.
	var in analyzeBody
	if err := json.Unmarshal(body, &in); err != nil {
		if in, err = decodeTwoStep(body); err != nil {
			writeJSON(w, http.StatusBadRequest,
				v1.ErrorResponse("", v1.CodeInvalidRequest, "malformed JSON: "+err.Error()))
			return
		}
	}
	if in.Requests != nil {
		s.handleBatch(w, r, body)
		return
	}
	req := in.AnalyzeRequest
	s.mRequests.Inc()
	b := s.admit(r.Context(), []v1.AnalyzeRequest{req}, false)
	if b == nil {
		w.Header().Set("Retry-After", s.retryAfter(req.ID))
		writeJSON(w, http.StatusTooManyRequests,
			v1.ErrorResponse(req.ID, v1.CodeOverloaded, "work queue full, retry later"))
		return
	}
	<-b.done
	resp := b.responses[0]
	resp.TraceID = obs.TraceIDFrom(r.Context())
	writeJSON(w, httpStatus(resp), resp)
}

// readBody reads a POST body under the maxBodyBytes guard. A declared
// Content-Length within the cap is read into one buffer of exactly that
// size; any read error, the guard's included, is reported as is.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		buf := make([]byte, n)
		if _, err := io.ReadFull(body, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	return io.ReadAll(body)
}

// analyzeBody is a POST /analyze body: a single request, or a batch when
// "requests" is present.
type analyzeBody struct {
	v1.AnalyzeRequest
	Requests []json.RawMessage `json:"requests"`
}

// decodeTwoStep decodes body as the "requests" probe, then — for a
// non-batch — as the request.
func decodeTwoStep(body []byte) (analyzeBody, error) {
	var probe struct {
		Requests []json.RawMessage `json:"requests"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return analyzeBody{}, err
	}
	in := analyzeBody{Requests: probe.Requests}
	if in.Requests != nil {
		return in, nil
	}
	err := json.Unmarshal(body, &in.AnalyzeRequest)
	return in, err
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, body []byte) {
	var breq v1.BatchRequest
	if err := json.Unmarshal(body, &breq); err != nil {
		writeJSON(w, http.StatusBadRequest,
			v1.ErrorResponse("", v1.CodeInvalidRequest, "malformed JSON: "+err.Error()))
		return
	}
	if err := v1.Validate(breq.SchemaVersion); err != nil {
		writeJSON(w, http.StatusBadRequest,
			v1.ErrorResponse(breq.ID, v1.CodeInvalidRequest, err.Error()))
		return
	}
	if len(breq.Requests) == 0 {
		writeJSON(w, http.StatusBadRequest,
			v1.ErrorResponse(breq.ID, v1.CodeInvalidRequest, "empty batch"))
		return
	}
	s.mBatches.Inc()
	s.mRequests.Add(int64(len(breq.Requests)))
	if len(breq.Requests) > s.opts.QueueLen {
		// Larger than the queue will EVER hold: retrying is hopeless, so
		// this is a client error, not backpressure.
		writeJSON(w, http.StatusRequestEntityTooLarge,
			v1.ErrorResponse(breq.ID, v1.CodeInvalidRequest,
				fmt.Sprintf("batch of %d exceeds queue capacity %d; split it",
					len(breq.Requests), s.opts.QueueLen)))
		return
	}
	// Async batches outlive the submitting connection: they run under
	// Background so a post-202 disconnect cannot shed retained work.
	ctx := r.Context()
	if breq.Async {
		ctx = context.Background()
	}
	b := s.admit(ctx, breq.Requests, breq.Async)
	if b == nil {
		w.Header().Set("Retry-After", s.retryAfter(breq.ID))
		writeJSON(w, http.StatusTooManyRequests, v1.BatchResponse{
			SchemaVersion: v1.SchemaVersion,
			ID:            breq.ID,
			Status:        v1.StatusError,
			Total:         len(breq.Requests),
			Error:         &v1.Error{Code: v1.CodeOverloaded, Message: "work queue full, retry later"},
		})
		return
	}
	if breq.Async {
		writeJSON(w, http.StatusAccepted, v1.BatchResponse{
			SchemaVersion: v1.SchemaVersion,
			ID:            b.id,
			Status:        v1.StatusPending,
			Total:         b.total,
			TraceID:       obs.TraceIDFrom(r.Context()),
		})
		return
	}
	<-b.done
	bresp := batchResponse(b)
	bresp.TraceID = obs.TraceIDFrom(r.Context())
	writeJSON(w, http.StatusOK, bresp)
}

// batchResponse renders a COMPLETED batch.
func batchResponse(b *batch) v1.BatchResponse {
	resp := v1.BatchResponse{
		SchemaVersion: v1.SchemaVersion,
		ID:            b.id,
		Status:        v1.StatusOK,
		Completed:     b.total,
		Total:         b.total,
		Responses:     b.responses,
	}
	for _, r := range b.responses {
		if r.Status != v1.StatusOK {
			resp.Status = v1.StatusError
			break
		}
	}
	return resp
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed,
			v1.ErrorResponse("", v1.CodeInvalidRequest, "GET required"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/result/")
	b, evicted := s.lookup(id)
	if b == nil {
		// Two distinct failures, two distinct answers: an id this server
		// retained and then FIFO-evicted is 410 Gone (the result existed;
		// polling later cannot help), an id it never issued is 404.
		if evicted {
			writeJSON(w, http.StatusGone, v1.BatchResponse{
				SchemaVersion: v1.SchemaVersion,
				ID:            id,
				Status:        v1.StatusError,
				Error:         &v1.Error{Code: v1.CodeGone, Message: "result evicted by retention cap; re-submit the batch"},
			})
			return
		}
		writeJSON(w, http.StatusNotFound, v1.BatchResponse{
			SchemaVersion: v1.SchemaVersion,
			ID:            id,
			Status:        v1.StatusError,
			Error:         &v1.Error{Code: v1.CodeNotFound, Message: "unknown result id"},
		})
		return
	}
	select {
	case <-b.done:
		writeJSON(w, http.StatusOK, batchResponse(b))
	default:
		completed, total := b.progress()
		writeJSON(w, http.StatusAccepted, v1.BatchResponse{
			SchemaVersion: v1.SchemaVersion,
			ID:            b.id,
			Status:        v1.StatusPending,
			Completed:     completed,
			Total:         total,
		})
	}
}
