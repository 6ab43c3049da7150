package sta

import (
	"context"
	"strconv"
	"time"

	"qwm/internal/obs"
)

// This file holds the analyzer's only reads and writes of Config.Tiers. When
// a request carries a trace reference (trace.T != nil), each probe becomes
// one "tier <name>" span and the stores receive a context carrying a child
// trace reference, so the remote-cache client's own attempt/peer spans land
// in the same tree. The untraced path formats no span IDs.

// tierGet is the leader's read through Config.Tiers: probe the stores in
// order, treat an entry failing Valid as a miss, and promote a hit into every
// earlier store. Span IDs embed a short hash of the key: one eval may perform
// two lookups (slew-bucket interpolation), and sibling probe groups must not
// collide.
func (a *Analyzer) tierGet(trace *obs.TraceRef, it *workItem, key *Key) (TierEntry, bool) {
	ctx := context.Background()
	var evalID, groupID string
	if trace.T != nil {
		evalID = evalSpanID(trace.Parent, it)
		groupID = evalID + ".k" + obs.KeyHash(key[:])
	}
	for j, st := range a.cfg.Tiers {
		var (
			name, probeID string
			start         time.Time
		)
		if trace.T != nil {
			name = st.Name()
			probeID = groupID + ".t" + strconv.Itoa(j) + "-" + name
			ctx = obs.ContextWithTrace(context.Background(), obs.TraceRef{
				T: trace.T, Parent: probeID, Level: it.level, Item: it.idx,
			})
			start = time.Now()
		}
		e, ok := st.Get(ctx, *key)
		hit := ok && e.Valid()
		if trace.T != nil {
			trace.T.Add(obs.ReqSpan{
				ID: probeID, Parent: evalID, Name: "tier " + name,
				Level: it.level, Item: it.idx,
				Start: start, Dur: time.Since(start),
				Attrs: obs.Attrs{obs.Str("tier", name), obs.Bool("hit", hit)},
			})
		}
		if hit {
			// Promotion carries no trace: the peer sees the write, but it
			// belongs to no probe span.
			for _, earlier := range a.cfg.Tiers[:j] {
				earlier.Put(context.Background(), *key, e)
			}
			return e, true
		}
	}
	return TierEntry{}, false
}

// tierPut is the leader's write-behind: the entry goes to every store. Traced,
// the context names the eval's put span, which a remote store stamps on its
// asynchronous PUT for the peer's correlation (no span is merged back).
func (a *Analyzer) tierPut(trace *obs.TraceRef, it *workItem, key *Key, e TierEntry) {
	ctx := context.Background()
	if trace.T != nil {
		ctx = obs.ContextWithTrace(ctx, obs.TraceRef{
			T: trace.T, Parent: evalSpanID(trace.Parent, it) + ".k" + obs.KeyHash(key[:]) + ".put",
			Level: it.level, Item: it.idx,
		})
	}
	for _, st := range a.cfg.Tiers {
		st.Put(ctx, *key, e)
	}
}

// evalSpanID is the trace bridge's span ID for the eval of work item it
// under the analyze span analyzeID.
func evalSpanID(analyzeID string, it *workItem) string {
	return analyzeID + ".L" + strconv.Itoa(it.level) + ".e" + strconv.Itoa(it.idx)
}
