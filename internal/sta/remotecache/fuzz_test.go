package remotecache_test

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"qwm/internal/sta/diskcache"
	"qwm/internal/sta/remotecache"
)

// FuzzTierServe: the tier endpoint is a trust boundary — any peer can send
// it any method, path and body. Every request must be answered with one of
// the API's statuses and never panic; whatever a later GET of the same path
// returns must be a valid entry in the canonical frame; and a PUT the server
// accepted must read back byte for byte.
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
				http.StatusNotFound, http.StatusMethodNotAllowed:
			default:
				t.Fatalf("%s %q: status %d", method, path, rec.Code)
			}
			return rec
		}
		put := serve(method, body)

		get := serve(http.MethodGet, nil)
		if get.Code != http.StatusOK {
			if method == http.MethodPut && put.Code == http.StatusNoContent {
				t.Fatalf("accepted PUT %q reads back with status %d", path, get.Code)
			}
			return
		}
		frame := get.Body.Bytes()
		key, val, err := diskcache.DecodeRecord(frame)
		if err != nil {
			t.Fatalf("GET %q served a corrupt frame: %v", path, err)
		}
		e, err := diskcache.DecodeEntry(val)
		if err != nil || !e.Valid() {
			t.Fatalf("GET %q served an invalid entry %+v (%v)", path, e, err)
		}
		if want := diskcache.EncodeRecord(key, diskcache.EncodeEntry(e)); !bytes.Equal(frame, want) {
			t.Fatalf("GET %q frame is not canonical:\ngot:  %x\nwant: %x", path, frame, want)
		}
		if !bytes.Equal(frame, body) {
			t.Fatalf("accepted PUT %q reads back differently:\nput: %x\ngot: %x", path, body, frame)
		}
	})
}
