package remotecache_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"qwm/internal/obs"
	"qwm/internal/sta"
	"qwm/internal/sta/remotecache"
)

// tracedCtx builds a context carrying a trace ref parented under probeID.
func tracedCtx(at *obs.ActiveTrace, probeID string) context.Context {
	return obs.ContextWithTrace(context.Background(),
		obs.TraceRef{T: at, Parent: probeID, Level: 0, Item: 0})
}

// TestTracedGetMergesPeerSpan pins the client half of the cross-replica
// trace: a traced Get records an attempt span with the outcome, and the
// peer's Qwm-Span response header becomes a child span carrying the peer's
// replica name.
func TestTracedGetMergesPeerSpan(t *testing.T) {
	base, srv := startTier(t)
	srv.Name = "peer-1"
	c := remotecache.New(base, "sig", quick())
	defer c.Close()
	e := sta.TierEntry{Delay: 1e-10, Slew: 2e-11, OK: true, Tier: uint8(sta.TierQWM)}

	at := obs.NewActiveTrace("")
	// Traced miss, then a traced put, then a traced hit — distinct parents
	// so the three operations' spans are distinguishable.
	if _, ok := get(tracedCtx(at, "p.miss"), c, tk("k1")); ok {
		t.Fatal("cold Get hit")
	}
	c.Put(tracedCtx(at, "p"), tk("k1"), e)
	c.Flush()
	got, ok := get(tracedCtx(at, "p.hit"), c, tk("k1"))
	if !ok || got != e {
		t.Fatalf("traced round trip = %+v, %v", got, ok)
	}

	rt := at.Finish("test", 200, time.Millisecond)
	spans := map[string]obs.ReqSpan{}
	for _, s := range rt.Spans() {
		spans[s.ID] = s
	}
	miss, ok := spans["p.miss.a0"]
	if !ok || miss.Name != "remote get" || miss.Attrs.Get("outcome") != "miss" {
		t.Errorf("miss attempt span wrong: %+v (have %v)", miss, keysOf(spans))
	}
	hit, ok := spans["p.hit.a0"]
	if !ok || hit.Attrs.Get("outcome") != "hit" {
		t.Errorf("hit attempt span wrong: %+v", hit)
	}
	for _, id := range []string{"p.miss.a0.peer", "p.hit.a0.peer"} {
		peer, ok := spans[id]
		if !ok {
			t.Errorf("missing peer span %s", id)
			continue
		}
		if peer.Process != "peer-1" {
			t.Errorf("peer span %s process %q, want peer-1", id, peer.Process)
		}
		if peer.Parent != strings.TrimSuffix(id, ".peer") {
			t.Errorf("peer span %s parented under %q", id, peer.Parent)
		}
	}
}

func keysOf(m map[string]obs.ReqSpan) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTracedKillMidRequest drives traced gets against a peer that dies
// mid-sequence: failed attempts and breaker fast-fails must surface as spans
// (outcome error / breaker-open), the client must keep degrading to misses,
// and the whole rig — client, recorder, server — must unwind without leaking
// goroutines. The remote-smoke matrix runs this under -race.
func TestTracedKillMidRequest(t *testing.T) {
	before := runtime.NumGoroutine()
	fl := obs.NewFlightRecorder()

	func() {
		srv := remotecache.NewServer(remotecache.MemoryStores(0), nil)
		srv.Name = "peer-1"
		hs := httptest.NewServer(srv.Handler())
		opts := quick()
		opts.Timeout = 500 * time.Millisecond
		c := remotecache.New(hs.URL, "sig", opts)
		defer c.Close()
		e := sta.TierEntry{Delay: 1e-10, OK: true}

		at := obs.NewActiveTrace("")
		c.Put(tracedCtx(at, "p"), tk("k"), e)
		c.Flush()
		if _, ok := get(tracedCtx(at, "p.warm"), c, tk("k")); !ok {
			t.Fatal("warm get missed")
		}

		// Kill the peer. Traced gets must degrade to misses, recording the
		// failure; threshold 3 opens the breaker, after which fast-fails are
		// traced too — with zero network traffic.
		hs.CloseClientConnections()
		hs.Close()
		var errSpans, fastFails int
		for i := 0; i < 4; i++ {
			if _, ok := get(tracedCtx(at, fmt.Sprintf("p.dead%d", i)), c, tk("k")); ok {
				t.Fatalf("get %d hit a dead peer", i)
			}
		}
		rt := at.Finish("test", 200, time.Millisecond)
		for _, s := range rt.Spans() {
			switch s.Attrs.Get("outcome") {
			case "error":
				errSpans++
			case "breaker-open":
				fastFails++
			}
		}
		if errSpans != 3 || fastFails != 1 {
			t.Errorf("dead-peer spans: %d errors, %d breaker-open; want 3 and 1 (%d spans total)",
				errSpans, fastFails, rt.NumSpans())
		}
		fl.Record(rt)
		if fl.Get(rt.TraceID) == nil {
			t.Error("flight recorder lost the degraded trace")
		}
	}()

	fl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
