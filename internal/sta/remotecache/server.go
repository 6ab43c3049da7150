package remotecache

import (
	"encoding/base64"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"qwm/internal/obs"
	"qwm/internal/sta"
	"qwm/internal/sta/diskcache"
)

// tierPathPrefix is the URL prefix of the tier API. One namespace lives at
//
//	/tier/<base64url(signature)>/
//
// with the signature base64.RawURLEncoding-encoded (it is a structured
// string full of separators; encoding keeps the router trivial and
// proxy-safe). Anything after the trailing slash — the retired single-key
// routes' key segment included — is a malformed path (400). Two methods:
//
//   - POST reads a batch. The body is 1 to maxBatchKeys concatenated
//     sta.KeySize-byte keys; the answer is 200 with the concatenated
//     CRC32-Castagnoli frames (the diskcache on-disk format, see
//     diskcache.EncodeRecord) of the keys that hit, in request order. Each
//     frame embeds its key, so a miss is simply absent.
//   - PUT writes a batch. The body is 1 to maxBatchKeys concatenated
//     frames. Each frame is checked on its own — it must lie inside the
//     body, pass its checksum and decode to a valid entry — and stored if
//     it does; frames that fail are counted and dropped, never stored. The
//     answer is 204 when every frame was accepted, else 400 naming the
//     rejections (the valid frames are stored all the same).
//
// A body of the wrong shape (empty, not whole keys, over a bound) is 400.
const tierPathPrefix = "/tier/"

// Content types of the two batch bodies.
const (
	contentType     = "application/x-qwm-tier-record" // concatenated frames
	keysContentType = "application/x-qwm-tier-keys"   // concatenated keys
)

// ServerStats is a snapshot of a Server's counters. Gets, Hits and Misses
// count keys and Puts, Stored and Corrupt count frames, so rates stay
// comparable however the keys were batched; ReadRequests and WriteRequests
// count the round trips served.
type ServerStats struct {
	Gets, Hits, Misses          int64
	Puts, Stored                int64
	Corrupt                     int64 // PUT frames rejected (framing, CRC, invalid entry)
	BadRequests                 int64 // malformed paths, methods and bodies
	ReadRequests, WriteRequests int64
}

// Server exposes TierStores over HTTP so a fleet of replicas can share one
// warm delay cache. It holds no storage of its own: StoreFor maps a result
// signature to the backing TierStore (a diskcache namespace, a MemoryTier —
// anything honouring the TierStore contract). Mount Handler() under
// obs.Server.Extra or any mux.
type Server struct {
	// StoreFor resolves the backing store for one result signature,
	// typically creating it on first use. An error refuses the namespace
	// (500); a nil store with nil error serves misses and drops puts.
	StoreFor func(signature string) (sta.TierStore, error)

	// Name identifies this replica in peer spans (the Process field of the
	// Qwm-Span a traced request receives back). "" reads as "cache-plane".
	Name string

	gets, hits, misses, puts, stored, corrupt, badreq, readReqs, writeReqs cpair
	mGets, mHits, mMisses, mPuts, mStored, mCorrupt, mBadreq,
	mReadReqs, mWriteReqs *obs.Counter
}

// NewServer builds a Server over the given namespace resolver. metrics may
// be nil.
func NewServer(storeFor func(signature string) (sta.TierStore, error), metrics *obs.Registry) *Server {
	s := &Server{StoreFor: storeFor}
	s.mGets = metrics.Counter("sta/remote/server/gets")
	s.mHits = metrics.Counter("sta/remote/server/hits")
	s.mMisses = metrics.Counter("sta/remote/server/misses")
	s.mPuts = metrics.Counter("sta/remote/server/puts")
	s.mStored = metrics.Counter("sta/remote/server/stored")
	s.mCorrupt = metrics.Counter("sta/remote/server/corrupt")
	s.mBadreq = metrics.Counter("sta/remote/server/badrequests")
	s.mReadReqs = metrics.Counter("sta/remote/server/read_requests")
	s.mWriteReqs = metrics.Counter("sta/remote/server/write_requests")
	return s
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Gets:          s.gets.value(),
		Hits:          s.hits.value(),
		Misses:        s.misses.value(),
		Puts:          s.puts.value(),
		Stored:        s.stored.value(),
		Corrupt:       s.corrupt.value(),
		BadRequests:   s.badreq.value(),
		ReadRequests:  s.readReqs.value(),
		WriteRequests: s.writeReqs.value(),
	}
}

// Handler returns the http.Handler serving the tier API. Mount it at
// tierPathPrefix ("/tier/").
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serve) }

// parseTierPath decodes the signature of /tier/<b64sig>/. Anything after the
// trailing slash is malformed.
func parseTierPath(path string) (sig string, ok bool) {
	rest, found := strings.CutPrefix(path, tierPathPrefix)
	if !found {
		return "", false
	}
	encSig, tail, found := strings.Cut(rest, "/")
	if !found || encSig == "" || tail != "" {
		return "", false
	}
	sigB, err := base64.RawURLEncoding.DecodeString(encSig)
	if err != nil {
		return "", false
	}
	return string(sigB), true
}

func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	sig, ok := parseTierPath(r.URL.Path)
	if !ok {
		s.bad(w, "remotecache: malformed tier path")
		return
	}
	// A valid traceparent marks the request as traced: the handler answers
	// with one encoded child span in the Qwm-Span header (set before any
	// body write), which the calling replica merges into its live trace.
	traced := false
	if tp := r.Header.Get(traceparentHeader); tp != "" {
		_, _, traced = obs.ParseTraceparent(tp)
	}
	switch r.Method {
	case http.MethodPost:
		s.handleRead(w, r, sig, traced)
	case http.MethodPut:
		s.handleWrite(w, r, sig, traced)
	default:
		s.badreq.add(1, s.mBadreq)
		w.Header().Set("Allow", "POST, PUT")
		http.Error(w, "remotecache: method not allowed", http.StatusMethodNotAllowed)
	}
}

// store resolves sig's backing store, answering 500 when the namespace is
// refused. The handlers call it only once the body is known to be well
// formed, so a rejected request never opens a namespace.
func (s *Server) store(w http.ResponseWriter, sig string) (sta.TierStore, bool) {
	store, err := s.StoreFor(sig)
	if err != nil {
		http.Error(w, "remotecache: namespace unavailable", http.StatusInternalServerError)
		return nil, false
	}
	return store, true
}

// bad answers 400 for a malformed request, counted.
func (s *Server) bad(w http.ResponseWriter, msg string) {
	s.badreq.add(1, s.mBadreq)
	http.Error(w, msg, http.StatusBadRequest)
}

// setPeerSpan encodes the replica-side span into the response header. It must
// run before the first status or body write.
func (s *Server) setPeerSpan(w http.ResponseWriter, name string, dur time.Duration, attrs map[string]string) {
	proc := s.Name
	if proc == "" {
		proc = "cache-plane"
	}
	v := obs.EncodePeerSpan(obs.PeerSpan{
		Name:    name,
		Process: proc,
		DurUS:   float64(dur) / float64(time.Microsecond),
		Attrs:   attrs,
	})
	if v != "" {
		w.Header().Set(peerSpanHeader, v)
	}
}

// readBody reads a request body of at most max bytes; ok is false for an
// unreadable, empty or oversized body.
func readBody(r *http.Request, max int) ([]byte, bool) {
	body, err := io.ReadAll(io.LimitReader(r.Body, int64(max)+1))
	return body, err == nil && len(body) > 0 && len(body) <= max
}

func (s *Server) handleRead(w http.ResponseWriter, r *http.Request, sig string, traced bool) {
	s.readReqs.add(1, s.mReadReqs)
	start := time.Now()
	body, ok := readBody(r, maxBatchKeys*sta.KeySize)
	if !ok || len(body)%sta.KeySize != 0 {
		s.bad(w, "remotecache: read body must be 1 to 4096 whole keys")
		return
	}
	store, ok := s.store(w, sig)
	if !ok {
		return
	}
	n := len(body) / sta.KeySize
	keys := make([]sta.Key, n)
	for i := range keys {
		keys[i] = sta.Key(body[i*sta.KeySize:])
	}
	out := make([]sta.TierEntry, n)
	hit := make([]bool, n)
	if store != nil {
		store.GetMany(r.Context(), keys, out, hit)
	}
	var resp []byte
	hits := 0
	for i := range keys {
		if !hit[i] || !out[i].Valid() {
			continue
		}
		frame := diskcache.EncodeRecord(keys[i], diskcache.EncodeEntry(out[i]))
		if len(resp)+len(frame) > maxResponseBytes {
			break // the rest read as misses
		}
		resp = append(resp, frame...)
		hits++
	}
	s.gets.add(int64(n), s.mGets)
	s.hits.add(int64(hits), s.mHits)
	s.misses.add(int64(n-hits), s.mMisses)
	if traced {
		s.setPeerSpan(w, "cache-plane get", time.Since(start), map[string]string{
			"op": "get", "outcome": outcome(n, hits, nil),
			"keys": strconv.Itoa(n), "hits": strconv.Itoa(hits),
		})
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(resp)
}

func (s *Server) handleWrite(w http.ResponseWriter, r *http.Request, sig string, traced bool) {
	s.writeReqs.add(1, s.mWriteReqs)
	start := time.Now()
	body, ok := readBody(r, maxRequestBytes)
	if !ok {
		s.bad(w, "remotecache: write body must be 1 to 4096 frames")
		return
	}
	// Bound the frame count before storing anything. A tail that is not a
	// whole frame counts as one frame here and is rejected below.
	frames := 0
	for rest := body; len(rest) > 0 && frames <= maxBatchKeys; frames++ {
		_, next, ok := diskcache.NextRecord(rest)
		if !ok {
			frames++
			break
		}
		rest = next
	}
	if frames > maxBatchKeys {
		s.bad(w, "remotecache: write body must be 1 to 4096 frames")
		return
	}
	store, ok := s.store(w, sig)
	if !ok {
		return
	}
	// The server re-runs the client's own end-to-end checks on every frame
	// before storing it: the frame lies inside the body, its CRC holds, and
	// its entry decodes and is valid. A frame that fails any of them is
	// counted and dropped — the shared tier must never launder a corrupt
	// frame into a durable one.
	var stored, rejected int
	reason := ""
	reject := func(why string) {
		rejected++
		if reason == "" {
			reason = why
		}
	}
	for rest := body; len(rest) > 0; {
		frame, next, ok := diskcache.NextRecord(rest)
		if !ok {
			reject("truncated frame")
			break
		}
		rest = next
		key, val, err := diskcache.DecodeRecord(frame)
		if err != nil {
			reject("corrupt frame")
			continue
		}
		e, err := diskcache.DecodeEntry(val)
		if err != nil || !e.Valid() {
			reject("invalid entry")
			continue
		}
		if store != nil {
			store.Put(r.Context(), key, e)
			stored++
		}
	}
	s.puts.add(int64(frames), s.mPuts)
	s.stored.add(int64(stored), s.mStored)
	s.corrupt.add(int64(rejected), s.mCorrupt)
	if traced {
		out := "stored"
		switch {
		case rejected == frames:
			out = "corrupt"
		case rejected > 0:
			out = "partial"
		case store == nil:
			out = "dropped"
		}
		s.setPeerSpan(w, "cache-plane put", time.Since(start), map[string]string{
			"op": "put", "outcome": out,
			"frames": strconv.Itoa(frames), "stored": strconv.Itoa(stored),
		})
	}
	if rejected > 0 {
		http.Error(w, fmt.Sprintf("remotecache: %d of %d frames rejected: %s", rejected, frames, reason), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// MemoryStores returns a StoreFor resolver backed by per-signature
// MemoryTiers of the given capacity — the simplest shared-tier deployment
// (one cache pod, no disk), and the rig the smoke tests use.
func MemoryStores(capPerSig int) func(signature string) (sta.TierStore, error) {
	var mu sync.Mutex
	stores := map[string]*sta.MemoryTier{}
	return func(signature string) (sta.TierStore, error) {
		mu.Lock()
		defer mu.Unlock()
		st, ok := stores[signature]
		if !ok {
			st = sta.NewMemoryTier(capPerSig)
			stores[signature] = st
		}
		return st, nil
	}
}
