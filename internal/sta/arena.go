package sta

import (
	"slices"
	"sync"

	"qwm/internal/circuit"
	"qwm/internal/slab"
)

// This file is the per-Analyze arena: a pooled scratch structure holding
// every map, slice and byte buffer the preflight/extract/gather/levelize/
// apply machinery needs, so a warm Analyze (all cache hits) allocates almost
// nothing. The arena is strictly request-scoped — acquired at the top of
// AnalyzeContext, released (cleared of per-request pointers) when it returns
// — and pooled once per process, so concurrent Analyzes each get their own,
// steady-state reuse is allocation-free, and a fresh Analyzer starts from an
// arena an earlier one grew. The arena therefore holds no analyzer state:
// its technology, library, Config and cache are passed in, never kept.
// Nothing reachable from a Result may point into the arena: Result.Arrivals,
// CriticalPath and the diagnostics maps are always freshly allocated.
//
// The arena also holds the request's node table and its stages (ex: the
// extraction's slabs). Those stages are valid only until AnalyzeContext
// returns; nothing that outlives the call — the delay cache, the tiers, a
// trace — may keep a *circuit.Stage, a *circuit.StageEdge or one of their
// slices.

// analyzeScratch is one request's arena. All fields are grow-only: maps are
// cleared (buckets retained) and slices re-sliced to length zero between
// requests, so capacity accumulates to the high-water mark and stays there.
type analyzeScratch struct {
	// Front end (see preflight): the node table and stage slabs, the
	// duplicate-name set, and the per-node canonical IDs and touch counts.
	ex       circuit.Extractor
	devNames map[string]string
	canon    []int32
	touch    []int32

	producer map[string]*circuit.Stage
	predFall map[string]string // net -> worst fall predecessor (a rising input)
	predRise map[string]string
	ix       loadIndex

	// Levelization scratch (see levelize). seenStamp uses the monotonic
	// stamp-counter idiom: a per-stage "visited" mark is one int compare
	// instead of a fresh map per stage, and because stamp never resets,
	// stale values from earlier requests can never collide.
	idx       map[*circuit.Stage]int
	consumers [][]int
	indeg     []int
	seenStamp []int
	stamp     int
	cur, next []int
	levelBuf  []*circuit.Stage
	levels    [][]*circuit.Stage

	// Per-level slabs. evs and items are sized to the level's output count
	// up front so &evs[i] stays stable while the level is filled.
	ins   []stageInputs
	items []workItem
	evs   []outEval
	// pending indexes the level's items whose key the peek did not find
	// finished (see peekLevel).
	pending []int32

	// Tier-read scratch (see readTiers): the level's keys still to probe,
	// one GetMany's result slots, a dedupe set, and the level's hits.
	tierKeys []Key
	tierOut  []TierEntry
	tierHit  []bool
	tierSeen map[Key]struct{}
	tierHits map[Key]TierEntry

	// Pooled per-output load maps, reused level over level (an output's map
	// is only read while its level is in flight).
	loadMaps []map[string]float64
	loadUsed int

	// Digest-encoding buffers (see contentDigest): keyBuf assembles one
	// (stage, output)'s content encoding, segBuf/segOffs/segOrd hold the
	// stage-edge segments being sorted, and nodeBuf sorts load-map node names.
	keyBuf  []byte
	segBuf  []byte
	segOffs []int
	segOrd  []int
	nodeBuf []string
}

// scratchPool holds the idle arenas of every Analyzer in the process.
var scratchPool sync.Pool

func getScratch() *analyzeScratch {
	if s, ok := scratchPool.Get().(*analyzeScratch); ok && s != nil {
		return s
	}
	return newScratch()
}

// newScratch returns an empty arena.
func newScratch() *analyzeScratch {
	return &analyzeScratch{
		producer: map[string]*circuit.Stage{},
		predFall: map[string]string{},
		predRise: map[string]string{},
		tierSeen: map[Key]struct{}{},
		tierHits: map[Key]TierEntry{},
		idx:      map[*circuit.Stage]int{},
	}
}

// putScratch clears every per-request pointer before pooling, so an idle
// arena never pins a finished request's netlist, stages or results.
func putScratch(s *analyzeScratch) {
	s.ex.Reset()
	clear(s.devNames)
	clear(s.producer)
	clear(s.predFall)
	clear(s.predRise)
	clear(s.tierSeen)
	clear(s.tierHits)
	clear(s.tierOut)
	clear(s.idx)
	s.ix.nodes = nil
	for m := range s.loadMaps {
		clear(s.loadMaps[m])
	}
	s.loadUsed = 0
	clear(s.levelBuf)
	s.levelBuf = s.levelBuf[:0]
	clear(s.levels)
	s.levels = s.levels[:0]
	clear(s.items)
	s.items = s.items[:0]
	clear(s.evs)
	s.evs = s.evs[:0]
	clear(s.ins)
	s.ins = s.ins[:0]
	clear(s.nodeBuf)
	s.nodeBuf = s.nodeBuf[:0]
	scratchPool.Put(s)
}

// loadMap hands out a cleared pooled load map. resetLoadMaps begins reuse
// from the start of the pool; callers do so per level, since an output's map
// is dead once its level's apply phase completes.
func (s *analyzeScratch) loadMap() map[string]float64 {
	if s.loadUsed < len(s.loadMaps) {
		m := s.loadMaps[s.loadUsed]
		s.loadUsed++
		clear(m)
		return m
	}
	m := map[string]float64{}
	s.loadMaps = append(s.loadMaps, m)
	s.loadUsed++
	return m
}

func (s *analyzeScratch) resetLoadMaps() { s.loadUsed = 0 }

// levelize groups stages into dependency levels with Kahn's algorithm:
// level 0 holds stages with no in-stage producers, level k+1 holds stages
// whose producers all sit in levels ≤ k. Stages within a level are ordered
// by ascending ExtractStages index, so the schedule — and therefore the
// sequential apply order — is deterministic. A cycle in the stage graph is a
// combinational loop and is rejected. The returned level slices alias the
// scratch's backing array and are only valid until the next request.
func (s *analyzeScratch) levelize(stages []*circuit.Stage, producer map[string]*circuit.Stage) ([][]*circuit.Stage, error) {
	n := len(stages)
	for i, st := range stages {
		s.idx[st] = i
	}
	s.indeg = slab.Resize(s.indeg, n)
	clear(s.indeg)
	s.seenStamp = slab.Resize(s.seenStamp, n) // not cleared: see the stamp idiom
	if cap(s.consumers) < n {
		s.consumers = make([][]int, n)
	}
	s.consumers = s.consumers[:n]
	for i := range s.consumers {
		s.consumers[i] = s.consumers[i][:0]
	}
	for i, st := range stages {
		s.stamp++
		for _, in := range st.Inputs {
			p, ok := producer[in]
			if !ok || p == st {
				continue
			}
			j := s.idx[p]
			if s.seenStamp[j] == s.stamp {
				continue
			}
			s.seenStamp[j] = s.stamp
			s.consumers[j] = append(s.consumers[j], i)
			s.indeg[i]++
		}
	}
	cur, next := s.cur[:0], s.next[:0]
	for i := range stages {
		if s.indeg[i] == 0 {
			cur = append(cur, i)
		}
	}
	if cap(s.levelBuf) < n {
		s.levelBuf = make([]*circuit.Stage, 0, n)
	}
	buf := s.levelBuf[:0]
	levels := s.levels[:0]
	processed := 0
	for len(cur) > 0 {
		// Deterministic in-level order: ascending original index.
		slices.Sort(cur)
		start := len(buf)
		next = next[:0]
		for _, i := range cur {
			buf = append(buf, stages[i])
			processed++
			for _, c := range s.consumers[i] {
				if s.indeg[c]--; s.indeg[c] == 0 {
					next = append(next, c)
				}
			}
		}
		levels = append(levels, buf[start:len(buf):len(buf)])
		cur, next = next, cur
	}
	s.cur, s.next = cur, next
	s.levelBuf, s.levels = buf, levels
	if processed != n {
		for i := range stages {
			if s.indeg[i] > 0 {
				return nil, errLoop(stages[i].Name)
			}
		}
	}
	return levels, nil
}
