package remotecache_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"qwm/internal/sta"
	"qwm/internal/sta/diskcache"
	"qwm/internal/sta/remotecache"
)

// FuzzTierServe: the tier endpoint is a trust boundary — any peer can send
// it any method, path and body. Every request must be answered with one of
// the API's statuses and never panic. Afterwards a batch read of every key
// the body's frames name must answer only valid entries in the canonical
// frame, in request order; a key that hits must read back byte for byte as
// the last frame for it that passes the server's checks; and after a PUT
// the server accepted whole (204), every one of those keys must hit.
func FuzzTierServe(f *testing.F) {
	f.Fuzz(func(t *testing.T, method, path string, body []byte) {
		h := remotecache.NewServer(remotecache.MemoryStores(0), nil).Handler()
		serve := func(method string, body []byte) *httptest.ResponseRecorder {
			req := &http.Request{
				Method: method,
				URL:    &url.URL{Path: path},
				Header: http.Header{},
				Body:   io.NopCloser(bytes.NewReader(body)),
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			switch rec.Code {
			case http.StatusOK, http.StatusNoContent, http.StatusBadRequest,
				http.StatusMethodNotAllowed:
			default:
				t.Fatalf("%s %q: status %d", method, path, rec.Code)
			}
			return rec
		}
		put := serve(method, body)

		// The keys the body's frames name, first appearance first, and the
		// last frame per key that passes every check the server runs.
		var keys []sta.Key
		accepted := map[sta.Key][]byte{}
		for rest := body; len(rest) > 0 && len(keys) < 4096; {
			frame, next, ok := diskcache.NextRecord(rest)
			if !ok {
				break
			}
			rest = next
			key := sta.Key(frame[8 : 8+sta.KeySize])
			if _, seen := accepted[key]; !seen {
				keys = append(keys, key)
				accepted[key] = nil
			}
			if _, val, err := diskcache.DecodeRecord(frame); err == nil {
				if e, err := diskcache.DecodeEntry(val); err == nil && e.Valid() {
					accepted[key] = frame
				}
			}
		}
		if len(keys) == 0 {
			return
		}
		var req []byte
		for _, k := range keys {
			req = append(req, k[:]...)
		}
		get := serve(http.MethodPost, req)
		if get.Code != http.StatusOK {
			return
		}
		next, hits := 0, map[sta.Key]bool{}
		for rest := get.Body.Bytes(); len(rest) > 0; {
			frame, r, ok := diskcache.NextRecord(rest)
			if !ok {
				t.Fatalf("read of %q served a truncated frame stream", path)
			}
			rest = r
			key, val, err := diskcache.DecodeRecord(frame)
			if err != nil {
				t.Fatalf("read of %q served a corrupt frame: %v", path, err)
			}
			e, err := diskcache.DecodeEntry(val)
			if err != nil || !e.Valid() {
				t.Fatalf("read of %q served an invalid entry %+v (%v)", path, e, err)
			}
			if want := diskcache.EncodeRecord(key, diskcache.EncodeEntry(e)); !bytes.Equal(frame, want) {
				t.Fatalf("read of %q frame is not canonical:\ngot:  %x\nwant: %x", path, frame, want)
			}
			for next < len(keys) && keys[next] != key {
				next++
			}
			if next == len(keys) {
				t.Fatalf("read of %q answered key %s out of request order", path, key)
			}
			next++
			if !bytes.Equal(frame, accepted[key]) {
				t.Fatalf("key %s reads back differently from its last valid frame:\nput: %x\ngot: %x", key, accepted[key], frame)
			}
			hits[key] = true
		}
		if method == http.MethodPut && put.Code == http.StatusNoContent {
			for _, k := range keys {
				if !hits[k] {
					t.Fatalf("accepted PUT %q: key %s does not read back", path, k)
				}
			}
		}
	})
}
