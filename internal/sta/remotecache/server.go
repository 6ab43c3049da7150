package remotecache

import (
	"encoding/base64"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"qwm/internal/obs"
	"qwm/internal/sta"
	"qwm/internal/sta/diskcache"
)

// tierPathPrefix is the URL prefix of the tier API. One cache key lives at
//
//	/tier/<base64url(signature)>/<base64url(key)>
//
// with both path segments base64.RawURLEncoding-encoded: the signature is a
// structured string full of separators and the key is the 41 raw bytes of an
// sta.Key (55 characters encoded), and encoding keeps the URL router trivial
// and proxy-safe. A path whose key segment is not the canonical encoding of
// exactly sta.KeySize bytes is malformed (400). GET returns 200 with a
// CRC32-Castagnoli-framed record (the diskcache on-disk format, see
// diskcache.EncodeRecord) or 404 for a miss; PUT accepts the same frame and
// answers 204, or 400 when the frame fails the checksum, embeds a different
// key than the URL, or decodes to an invalid entry — a corrupt upload is
// counted and discarded, never stored.
const tierPathPrefix = "/tier/"

// contentType labels tier frames in transit.
const contentType = "application/x-qwm-tier-record"

// maxRequestBytes bounds one PUT body, mirroring maxResponseBytes.
const maxRequestBytes = maxResponseBytes

// ServerStats is a snapshot of a Server's counters.
type ServerStats struct {
	Gets, Hits, Misses int64
	Puts, Stored       int64
	Corrupt            int64 // PUT frames rejected (CRC, key mismatch, invalid entry)
	BadRequests        int64 // malformed paths / methods
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

	gets, hits, misses, puts, stored, corrupt, badreq cpair
	mGets, mHits, mMisses, mPuts, mStored, mCorrupt,
	mBadreq *obs.Counter
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
	return s
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Gets:        s.gets.value(),
		Hits:        s.hits.value(),
		Misses:      s.misses.value(),
		Puts:        s.puts.value(),
		Stored:      s.stored.value(),
		Corrupt:     s.corrupt.value(),
		BadRequests: s.badreq.value(),
	}
}

// Handler returns the http.Handler serving the tier API. Mount it at
// tierPathPrefix ("/tier/").
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serve) }

// keyEncoding is the key segment's encoding; Strict rejects non-zero
// padding bits, so every key has exactly one spelling.
var keyEncoding = base64.RawURLEncoding.Strict()

// parseTierPath splits /tier/<b64sig>/<b64key> into the decoded signature
// and key. A key segment that does not decode to exactly sta.KeySize bytes
// is malformed.
func parseTierPath(path string) (sig string, key sta.Key, ok bool) {
	rest, found := strings.CutPrefix(path, tierPathPrefix)
	if !found {
		return "", key, false
	}
	encSig, encKey, found := strings.Cut(rest, "/")
	if !found || encSig == "" || len(encKey) != keyEncoding.EncodedLen(sta.KeySize) {
		return "", key, false
	}
	sigB, err := base64.RawURLEncoding.DecodeString(encSig)
	if err != nil {
		return "", key, false
	}
	if n, err := keyEncoding.Decode(key[:], []byte(encKey)); err != nil || n != sta.KeySize {
		return "", sta.Key{}, false
	}
	return string(sigB), key, true
}

func (s *Server) serve(w http.ResponseWriter, r *http.Request) {
	sig, key, ok := parseTierPath(r.URL.Path)
	if !ok {
		s.badreq.add(1, s.mBadreq)
		http.Error(w, "remotecache: malformed tier path", http.StatusBadRequest)
		return
	}
	store, err := s.StoreFor(sig)
	if err != nil {
		http.Error(w, "remotecache: namespace unavailable", http.StatusInternalServerError)
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
	case http.MethodGet:
		s.handleGet(w, r, store, key, traced)
	case http.MethodPut:
		s.handlePut(w, r, store, key, traced)
	default:
		s.badreq.add(1, s.mBadreq)
		w.Header().Set("Allow", "GET, PUT")
		http.Error(w, "remotecache: method not allowed", http.StatusMethodNotAllowed)
	}
}

// setPeerSpan encodes the replica-side span into the response header. It must
// run before the first status or body write.
func (s *Server) setPeerSpan(w http.ResponseWriter, name string, dur time.Duration, op, outcome string) {
	proc := s.Name
	if proc == "" {
		proc = "cache-plane"
	}
	v := obs.EncodePeerSpan(obs.PeerSpan{
		Name:    name,
		Process: proc,
		DurUS:   float64(dur) / float64(time.Microsecond),
		Attrs:   map[string]string{"op": op, "outcome": outcome},
	})
	if v != "" {
		w.Header().Set(peerSpanHeader, v)
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request, store sta.TierStore, key sta.Key, traced bool) {
	s.gets.add(1, s.mGets)
	start := time.Now()
	var (
		e  sta.TierEntry
		ok bool
	)
	if store != nil {
		e, ok = store.Get(r.Context(), key)
	}
	hit := ok && e.Valid()
	if traced {
		outcome := "miss"
		if hit {
			outcome = "hit"
		}
		s.setPeerSpan(w, "cache-plane get", time.Since(start), "get", outcome)
	}
	if !hit {
		s.misses.add(1, s.mMisses)
		http.Error(w, "miss", http.StatusNotFound)
		return
	}
	s.hits.add(1, s.mHits)
	w.Header().Set("Content-Type", contentType)
	w.Write(diskcache.EncodeRecord(key, diskcache.EncodeEntry(e)))
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request, store sta.TierStore, key sta.Key, traced bool) {
	s.puts.add(1, s.mPuts)
	start := time.Now()
	fail := func(msg string) {
		s.corrupt.add(1, s.mCorrupt)
		if traced {
			s.setPeerSpan(w, "cache-plane put", time.Since(start), "put", "corrupt")
		}
		http.Error(w, msg, http.StatusBadRequest)
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes+1))
	if err != nil || len(body) > maxRequestBytes {
		fail("remotecache: unreadable or oversized frame")
		return
	}
	// The server re-runs the client's own end-to-end checks before storing:
	// CRC over the frame, URL key == embedded key, decodable and valid
	// entry. A record that fails any of them is counted and dropped — the
	// shared tier must never launder a corrupt frame into a durable one.
	gotKey, val, err := diskcache.DecodeRecord(body)
	if err != nil || gotKey != key {
		fail("remotecache: corrupt frame")
		return
	}
	e, err := diskcache.DecodeEntry(val)
	if err != nil || !e.Valid() {
		fail("remotecache: invalid entry")
		return
	}
	outcome := "dropped"
	if store != nil {
		store.Put(r.Context(), key, e)
		s.stored.add(1, s.mStored)
		outcome = "stored"
	}
	if traced {
		s.setPeerSpan(w, "cache-plane put", time.Since(start), "put", outcome)
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
