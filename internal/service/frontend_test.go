package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	v1 "qwm/internal/api/v1"
)

// TestAnalyzeAbsurdGeometry422: a device outside the channel-geometry bounds
// is an invalid netlist, answered 422 invalid_netlist before any solver work.
// The bodies are the two fuzz corpus entries that found such decks (a 1 m
// wide and a 350 m long device) and the 2-bit decoder with one device
// resized to W = 1 pm, W = 1 m and L = 1 mm.
func TestAnalyzeAbsurdGeometry422(t *testing.T) {
	s := New(tech, lib, Options{})
	defer s.Close()
	h := s.Handler()
	var bodies []string
	for _, seed := range []string{"dbebc9953d06aa98", "dfbf9c276e2b304f"} {
		bodies = append(bodies, fuzzCorpusBytes(t, "testdata/fuzz/FuzzAnalyzeBody/"+seed))
	}
	deck, _, outs := decoderDeck(t)
	const healthy = "W=1u L=350n"
	if !strings.Contains(deck, healthy) {
		t.Fatalf("decoder deck has no %q device to resize", healthy)
	}
	for _, geom := range []string{"W=1p L=350n", "W=1 L=350n", "W=1u L=1m"} {
		body, err := json.Marshal(v1.AnalyzeRequest{Netlist: strings.Replace(deck, healthy, geom, 1), Outputs: outs})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, string(body))
	}
	for _, body := range bodies {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", strings.NewReader(body)))
		resp := decodeAnalyze(t, rec.Body.Bytes())
		if rec.Code != http.StatusUnprocessableEntity || resp.Error == nil || resp.Error.Code != v1.CodeInvalidNetlist ||
			!strings.Contains(resp.Error.Message, "outside") {
			t.Errorf("body %.80q…: got %d %s, want 422 invalid_netlist naming the bound", body, rec.Code, rec.Body)
		}
	}
}

// fuzzCorpusBytes decodes a one-[]byte go fuzz corpus file.
func fuzzCorpusBytes(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, arg, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

// TestRetainedResponseDoesNotAliasBody holds the alias rule: the parser hands
// out node names as substrings of the request's deck, so no string in a
// response the service retains (an async batch's, kept for polling) may
// point into that deck — one would keep the whole deck, up to the body
// limit, alive for the batch's lifetime. The batch covers a healthy analysis
// with every arrival and a degraded one under a starved Newton budget, so
// the critical path, the worst output, the arrival keys and the diagnostics
// maps are all populated.
func TestRetainedResponseDoesNotAliasBody(t *testing.T) {
	s := New(tech, lib, Options{Workers: 1})
	defer s.Close()
	text, _, outs := decoderDeck(t)
	deck := string([]byte(text)) // a deck of our own, at a known address
	b := s.admit(context.Background(), []v1.AnalyzeRequest{
		{ID: "full", Netlist: deck, Outputs: outs, FullArrivals: true},
		{ID: "starved", Netlist: deck, Outputs: outs, FullArrivals: true, Budget: &v1.Budget{NRIters: 1}},
	}, true)
	if b == nil {
		t.Fatal("batch refused")
	}
	<-b.done
	kept, _ := s.lookup(b.id)
	if kept == nil {
		t.Fatal("async batch not retained")
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(deck)))
	hi := lo + uintptr(len(deck))
	n, degraded := 0, false
	for _, resp := range kept.responses {
		if resp.Status != v1.StatusOK {
			t.Fatalf("%s: %+v", resp.ID, resp.Error)
		}
		degraded = degraded || len(resp.Result.Diagnostics.EvalTier) > 0
		walkStrings(reflect.ValueOf(resp), func(path, str string) {
			n++
			if p := uintptr(unsafe.Pointer(unsafe.StringData(str))); len(str) > 0 && p >= lo && p < hi {
				t.Errorf("%s %s = %q points into the request deck", resp.ID, path, str)
			}
		})
	}
	if !degraded {
		t.Error("the starved request did not degrade: its diagnostics maps went unchecked")
	}
	if n < 2*len(outs) {
		t.Fatalf("walked only %d strings", n)
	}
}

// walkStrings calls fn for every string reachable from v: fields, elements,
// map keys and values, through pointers and interfaces.
func walkStrings(v reflect.Value, fn func(path, s string)) {
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.String:
			fn(path, v.String())
		case reflect.Pointer, reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), path+"["+strconv.Itoa(i)+"]")
			}
		case reflect.Map:
			it := v.MapRange()
			for it.Next() {
				walk(it.Key(), path+"{key}")
				walk(it.Value(), path+"["+it.Key().String()+"]")
			}
		}
	}
	walk(v, "")
}
