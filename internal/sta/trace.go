package sta

import (
	"context"
	"strconv"
	"time"

	"qwm/internal/obs"
)

// This file holds the analyzer's only reads and writes of Config.Tiers and
// every span the engine writes into a request trace. When a request's context
// carries a trace reference, the recorder writes one analyze span, one span
// per dependency level and one per work item; each store a level probes
// becomes one "tier <name>" span, and the store receives a context carrying a
// child trace reference, so the remote-cache client's own attempt/peer spans
// land in the same tree. The untraced path formats no span IDs.
//
// Span IDs are semantic paths (see internal/obs/reqtrace.go), built only by
// the helpers below:
//
//	<parent>.analyze                      the analysis
//	  .L<level>                           one dependency level
//	    .e<item>                          one work item's resolution
//	      .k<key hash>.put                its leader's write-behind
//	    .t<store>-<name>                  one tier store's batched read

func analyzeSpanID(parent string) string { return parent + ".analyze" }

func levelSpanID(analyzeID string, level int) string {
	return analyzeID + ".L" + strconv.Itoa(level)
}

func evalSpanID(levelID string, item int) string {
	return levelID + ".e" + strconv.Itoa(item)
}

func putSpanID(evalID string, key *Key) string {
	return evalID + ".k" + obs.KeyHash(key[:]) + ".put"
}

func probeSpanID(levelID string, store int, name string) string {
	return levelID + ".t" + strconv.Itoa(store) + "-" + name
}

// levelTiers is what a level's workers share about the tiers: the request's
// trace reference, copied from the recorder (T nil when untraced, Parent the
// analyze span's ID), which names the write-behind put spans, and the hits
// of the level's batched read. Both are read-only while the level's items
// run.
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
		levelID = levelSpanID(trace.Parent, level)
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
			probeID = probeSpanID(levelID, j, name)
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
			T: lt.trace.T, Parent: putSpanID(evalSpanID(levelSpanID(lt.trace.Parent, it.level), it.idx), key),
			Level: it.level, Item: it.idx,
		})
	}
	for _, st := range a.cfg.Tiers {
		st.Put(ctx, *key, e)
	}
}

// levelSpan writes the span of the level the recorder has open, which ran
// for d from r.levelAt.
func (r *recorder) levelSpan(d time.Duration) {
	l := r.level
	r.trace.T.Add(obs.ReqSpan{
		ID: levelSpanID(r.trace.Parent, l.Level), Parent: r.trace.Parent,
		Name:  "level " + strconv.Itoa(l.Level),
		Level: l.Level, Item: -1,
		Start: r.levelAt, Dur: d,
		Attrs: obs.Attrs{obs.Int("level", l.Level), obs.Int("stages", l.Stages), obs.Int("items", l.Items)},
	})
}

// evalSpan writes the span of one work item's resolution, on the lane of
// the worker that resolved it.
func (r *recorder) evalSpan(it *workItem, dir, tier string, start time.Time, d time.Duration, worker int) {
	cache := "hit"
	if it.evals > 0 {
		cache = "miss"
	}
	// The solver statistics belong to the cache entry (a hit carries the
	// stats of the evaluation that produced it, persisted in tier records),
	// so they are schedule-independent like the cache outcome and tier.
	st := it.timing.stats
	attrs := [9]obs.Attr{
		obs.Str("output", it.out), obs.Str("dir", dir), obs.Str("cache", cache),
		obs.Int("nr_iters", st.NRIters),
		obs.Int("regions", st.Regions),
		obs.Int("dense_fallbacks", st.DenseFallbacks),
		obs.Int("cap_resolves", st.CapResolves),
	}
	n := 7
	if tier != "" {
		attrs[n] = obs.Str("tier", tier)
		n++
	}
	if it.timing.errMsg != "" {
		attrs[n] = obs.Str("err", it.timing.errMsg)
		n++
	}
	levelID := levelSpanID(r.trace.Parent, it.level)
	r.trace.T.Add(obs.ReqSpan{
		ID:     evalSpanID(levelID, it.idx),
		Parent: levelID,
		Name:   it.out + "~" + dir,
		Level:  it.level, Item: it.idx,
		Start: start, Dur: d,
		Thread: worker + 1,
		Attrs:  attrs[:n],
	})
}

// analyzeSpan writes the analysis's span, which ran for info.Duration from
// r.start.
func (r *recorder) analyzeSpan(info *obs.AnalyzeEndInfo) {
	attrs := [11]obs.Attr{
		obs.Int("stages", r.info.Stages),
		obs.Int("levels", r.info.Levels),
		obs.Int("items", r.info.Items),
		obs.Int("outputs", r.info.Outputs),
		// Deterministic per the single-flight cache contract; the Workers
		// setting and durations are not, so neither is an attribute.
		obs.Int64("cache_hits", info.CacheHits),
		obs.Int64("cache_misses", info.CacheMisses),
		obs.Int("stages_evaluated", info.StagesEvaluated),
		obs.Int("eval_errors", info.EvalErrors),
		obs.Int("slew_fallbacks", info.SlewFallbacks),
	}
	n := 9
	if info.Cancelled {
		attrs[n] = obs.Bool("cancelled", true)
		n++
	}
	if info.Err != nil {
		attrs[n] = obs.Str("err", info.Err.Error())
		n++
	}
	r.trace.T.Add(obs.ReqSpan{
		ID: r.trace.Parent, Parent: r.traceParent,
		Name:  "analyze",
		Level: obs.LevelAnalyze, Item: r.trace.Item,
		Start: r.start, Dur: info.Duration,
		Attrs: attrs[:n],
	})
}
