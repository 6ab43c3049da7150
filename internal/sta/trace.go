package sta

import (
	"context"
	"strconv"
	"time"

	"qwm/internal/obs"
)

// This file holds the analyzer's only reads and writes of Config.Tiers. When
// a request carries a trace reference (trace.T != nil), each store a level
// probes becomes one "tier <name>" span and the store receives a context
// carrying a child trace reference, so the remote-cache client's own
// attempt/peer spans land in the same tree. The untraced path formats no
// span IDs.

// levelTiers is what a level's workers share about the tiers: the request's
// trace reference (for write-behind spans) and the hits of the level's
// batched read. Both are read-only while the level's items run.
type levelTiers struct {
	trace obs.TraceRef
	hits  map[Key]TierEntry
}

// readTiers is the level's one read through Config.Tiers. It takes the keys
// the level's peek found absent from the memory cache (pending items with no
// flight), deduped in item order, and walks the stores in order: each store
// gets one GetMany with the keys still missing, an entry failing Valid is a
// miss, and a hit is promoted into every earlier store. The hits land in the
// scratch's map, which the level's single-flight leaders read instead of
// calling the stores.
func (a *Analyzer) readTiers(s *analyzeScratch, items []workItem, pending []int32, level int, trace *obs.TraceRef) map[Key]TierEntry {
	clear(s.tierSeen)
	clear(s.tierHits)
	keys := s.tierKeys[:0]
	for _, i := range pending {
		it := &items[i]
		if it.wait != nil {
			continue
		}
		k := it.key()
		if _, dup := s.tierSeen[k]; !dup {
			s.tierSeen[k] = struct{}{}
			keys = append(keys, k)
		}
	}
	ctx := context.Background()
	var levelID string
	if trace.T != nil {
		levelID = trace.Parent + ".L" + strconv.Itoa(level)
	}
	for j, st := range a.cfg.Tiers {
		if len(keys) == 0 {
			break
		}
		if cap(s.tierOut) < len(keys) {
			s.tierOut = make([]TierEntry, len(keys))
			s.tierHit = make([]bool, len(keys))
		}
		out, hit := s.tierOut[:len(keys)], s.tierHit[:len(keys)]
		clear(hit)
		var (
			name, probeID string
			start         time.Time
		)
		if trace.T != nil {
			name = st.Name()
			probeID = levelID + ".t" + strconv.Itoa(j) + "-" + name
			ctx = obs.ContextWithTrace(context.Background(), obs.TraceRef{
				T: trace.T, Parent: probeID, Level: level, Item: -1,
			})
			start = time.Now()
		}
		st.GetMany(ctx, keys, out, hit)
		probed, hits := len(keys), 0
		missing := keys[:0] // compacts in place: writes trail reads
		for i, k := range keys {
			if !hit[i] || !out[i].Valid() {
				missing = append(missing, k)
				continue
			}
			hits++
			s.tierHits[k] = out[i]
			// Promotion carries no trace: the peer sees the write, but it
			// belongs to no probe span.
			for _, earlier := range a.cfg.Tiers[:j] {
				earlier.Put(context.Background(), k, out[i])
			}
		}
		if trace.T != nil {
			trace.T.Add(obs.ReqSpan{
				ID: probeID, Parent: levelID, Name: "tier " + name,
				Level: level, Item: -1,
				Start: start, Dur: time.Since(start),
				Attrs: obs.Attrs{obs.Str("tier", name), obs.Int("keys", probed), obs.Int("hits", hits)},
			})
		}
		keys = missing
	}
	s.tierKeys = keys
	return s.tierHits
}

// tierPut is the leader's write-behind: the entry goes to every store. Traced,
// the context names the eval's put span, which a remote store stamps on its
// asynchronous PUT for the peer's correlation (no span is merged back).
func (a *Analyzer) tierPut(lt *levelTiers, it *workItem, key *Key, e TierEntry) {
	ctx := context.Background()
	if lt.trace.T != nil {
		ctx = obs.ContextWithTrace(ctx, obs.TraceRef{
			T: lt.trace.T, Parent: evalSpanID(lt.trace.Parent, it) + ".k" + obs.KeyHash(key[:]) + ".put",
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
