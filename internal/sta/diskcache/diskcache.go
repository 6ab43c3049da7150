// Package diskcache is the persistent tier below the engine's in-memory
// delay cache: a content-addressed store of direction timings (sta.TierEntry
// values keyed by the engine's cache keys) that survives process restarts,
// so a service replica restarting over a warm directory serves previously
// analyzed netlists without re-running the solver.
//
// Design constraints, in order:
//
//  1. Never serve wrong data. Every record carries a CRC32 over its entire
//     payload, re-verified on every Get (not just at open), and a semantic
//     validity check on the decoded entry. Any mismatch is a miss — the
//     engine re-evaluates and overwrites. Torn tails from a crash mid-write
//     are truncated away at open.
//  2. Lossy is fine, slow is not. Puts are write-behind through a bounded
//     channel drained by one writer goroutine; when the channel is full the
//     put is dropped (and counted). Gets are a ReadAt against the segment
//     file under an RLock — no serialization with the writer beyond index
//     access.
//  3. Bounded size. Records append to numbered segment files; when a segment
//     exceeds segTarget bytes it is sealed and a new one started, and when
//     the directory's total exceeds MaxBytes the oldest sealed segments are
//     dropped whole (with their index entries). Dropping whole segments
//     keeps GC O(dropped keys) with no compaction or rewrite phase.
//
// A directory must only ever be shared by analyzers with equal result
// signatures (sta.Config.Signature); Open persists the signature in a
// "signature" file and refuses a mismatched reopen — the one failure mode
// the CRC cannot catch, because a stale entry from another configuration is
// internally consistent and still wrong.
package diskcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"qwm/internal/obs"
	"qwm/internal/sta"
)

// Options tunes a store. The zero value is usable: 256 MiB cap, 4 MiB
// segments, a 1024-entry write-behind queue, no metrics.
type Options struct {
	// MaxBytes caps the directory's total segment bytes; exceeding it drops
	// the oldest sealed segments. 0 means 256 MiB, negative means unlimited.
	MaxBytes int64
	// SegmentBytes is the size at which the active segment is sealed and a
	// new one started. 0 means 4 MiB.
	SegmentBytes int64
	// QueueLen bounds the write-behind channel; a full queue drops the put.
	// 0 means 1024.
	QueueLen int
	// Sync, when set, fsyncs the active segment after every record — crash
	// durability for every put, at a large throughput cost. Off by default:
	// the store is a cache, and a lost tail only costs re-evaluation.
	Sync bool
	// Metrics, when set, receives the store's counters (sta/disk/hits,
	// misses, puts, dropped, corrupt, evictions) and the sta/disk/bytes
	// gauge.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MaxBytes == 0 {
		o.MaxBytes = 256 << 20
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.QueueLen <= 0 {
		o.QueueLen = 1024
	}
	return o
}

// Stats is a snapshot of a store's counters.
type Stats struct {
	Hits, Misses int64 // Get outcomes
	Puts         int64 // records durably appended
	Dropped      int64 // puts discarded by a full write-behind queue
	Corrupt      int64 // CRC / decode failures served as misses
	Evictions    int64 // keys dropped by segment GC
	Entries      int   // live index entries
	Segments     int   // segment files on disk
	Bytes        int64 // total segment bytes
}

// HitRate returns hits / (hits + misses), 0 when idle.
func (s Stats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

const (
	segMagic   = "QWMDSEG1"     // 8-byte segment preamble
	sigFile    = "signature"    // persisted Config.Signature
	segPattern = "seg-%06d.log" // segment file naming
	recHeader  = 4 + 4 + 4      // CRC32, key length, value length
	maxKeyLen  = 1 << 20        // sanity bounds: a longer field means a
	maxValLen  = 1 << 20        // corrupt header, not a huge record
	entryVer   = 1              // TierEntry encoding version
	flagOK     = 1 << 0
	flagFell   = 1 << 1
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// indexEntry locates a record's value bytes inside a segment.
type indexEntry struct {
	seg    int
	off    int64 // offset of the VALUE bytes
	keyLen int
	valLen int
	crc    uint32 // CRC over keyLen|valLen|key|val, re-verified on Get
}

type segment struct {
	id   int
	f    *os.File
	size int64
}

type putReq struct {
	key string
	val []byte
	// ack, when non-nil, marks a Flush barrier: the writer closes it once
	// every request enqueued before it has been processed. Barrier requests
	// carry no data.
	ack chan struct{}
}

// Store is a persistent TierStore over one directory. It satisfies
// sta.TierStore; a nil *Store is a valid no-op tier.
type Store struct {
	dir  string
	opts Options

	mu     sync.RWMutex
	index  map[string]indexEntry
	segs   []*segment // ascending id order; last is active
	closed bool

	queue      chan putReq
	done       chan struct{}
	writerDone chan struct{}
	closeO     sync.Once

	hits, misses, puts, dropped, corrupt, evictions *obs.Counter
	bytes                                           *obs.Gauge

	statHits, statMisses, statPuts, statDropped, statCorrupt, statEvict counterPair
}

// counterPair mirrors a metric into a plain atomic so Stats works with a nil
// registry; obs.Counter is already atomic, so we just keep our own.
type counterPair struct{ c obs.Counter }

func (p *counterPair) add(n int64, m *obs.Counter) { p.c.Add(n); m.Add(n) }
func (p *counterPair) value() int64                { return p.c.Value() }

// Open opens (or creates) the store in dir. signature is the owning
// analyzer configuration's sta.Config.Signature(); a directory previously
// opened under a different signature is rejected, because its entries would
// be internally consistent but computed under other settings.
func Open(dir, signature string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	if err := checkSignature(dir, signature); err != nil {
		return nil, err
	}
	s := &Store{
		dir:        dir,
		opts:       opts,
		index:      map[string]indexEntry{},
		queue:      make(chan putReq, opts.QueueLen),
		done:       make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	r := opts.Metrics
	s.hits = r.Counter("sta/disk/hits")
	s.misses = r.Counter("sta/disk/misses")
	s.puts = r.Counter("sta/disk/puts")
	s.dropped = r.Counter("sta/disk/dropped")
	s.corrupt = r.Counter("sta/disk/corrupt")
	s.evictions = r.Counter("sta/disk/evictions")
	s.bytes = r.Gauge("sta/disk/bytes")
	if err := s.load(); err != nil {
		s.closeSegments()
		return nil, err
	}
	s.bytes.Set(s.totalBytes())
	go s.writer()
	return s, nil
}

// checkSignature creates or verifies the directory's signature file.
func checkSignature(dir, signature string) error {
	p := filepath.Join(dir, sigFile)
	b, err := os.ReadFile(p)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return os.WriteFile(p, []byte(signature), 0o644)
	case err != nil:
		return fmt.Errorf("diskcache: %w", err)
	case string(b) != signature:
		return fmt.Errorf("diskcache: %s was written under signature %q, refusing to reopen under %q",
			dir, b, signature)
	}
	return nil
}

// load scans every segment, rebuilding the index. Later segments win on
// duplicate keys (append-only: the latest write is the freshest). The
// ACTIVE (last) segment's torn tail — a crash mid-append — is truncated
// away; corruption in a SEALED segment stops indexing that segment at the
// bad record (the tail entries are lost, which is a cache miss, not an
// error).
func (s *Store) load() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "seg-*.log"))
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	ids := make([]int, 0, len(names))
	for _, n := range names {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(n), segPattern, &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for i, id := range ids {
		active := i == len(ids)-1
		seg, err := s.scanSegment(id, active)
		if err != nil {
			return err
		}
		if seg != nil {
			s.segs = append(s.segs, seg)
		}
	}
	if len(s.segs) == 0 {
		seg, err := s.newSegment(0)
		if err != nil {
			return err
		}
		s.segs = []*segment{seg}
	}
	return nil
}

func (s *Store) segPath(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf(segPattern, id))
}

func (s *Store) newSegment(id int) (*segment, error) {
	f, err := os.OpenFile(s.segPath(id), os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	return &segment{id: id, f: f, size: int64(len(segMagic))}, nil
}

// scanSegment walks one segment file, indexing every intact record. A
// segment with an unreadable preamble is ignored entirely (renamed out of
// the way would risk data the operator wants; we just skip it).
func (s *Store) scanSegment(id int, active bool) (*segment, error) {
	f, err := os.OpenFile(s.segPath(id), os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	size := fi.Size()
	magic := make([]byte, len(segMagic))
	if n, _ := f.ReadAt(magic, 0); n != len(segMagic) || string(magic) != segMagic {
		f.Close()
		if !active {
			return nil, nil // foreign or empty file: skip, don't destroy
		}
		// Active segment with no valid preamble: recreate it empty.
		if err := os.Remove(s.segPath(id)); err != nil {
			return nil, fmt.Errorf("diskcache: %w", err)
		}
		return s.newSegment(id)
	}

	off := int64(len(segMagic))
	hdr := make([]byte, recHeader)
	var buf []byte
	good := off
	for off < size {
		if n, _ := f.ReadAt(hdr, off); n != recHeader {
			break // torn header
		}
		crc := binary.LittleEndian.Uint32(hdr[0:4])
		keyLen := int(binary.LittleEndian.Uint32(hdr[4:8]))
		valLen := int(binary.LittleEndian.Uint32(hdr[8:12]))
		if keyLen <= 0 || keyLen > maxKeyLen || valLen <= 0 || valLen > maxValLen ||
			off+recHeader+int64(keyLen+valLen) > size {
			break // corrupt header or torn body
		}
		need := 8 + keyLen + valLen
		if cap(buf) < need {
			buf = make([]byte, need)
		}
		body := buf[:need]
		copy(body[0:8], hdr[4:12])
		if n, _ := f.ReadAt(body[8:], off+recHeader); n != keyLen+valLen {
			break
		}
		if crc32.Checksum(body, crcTable) != crc {
			s.statCorrupt.add(1, s.corrupt)
			break // everything past a bad CRC is suspect
		}
		key := string(body[8 : 8+keyLen])
		s.index[key] = indexEntry{
			seg:    id,
			off:    off + recHeader + int64(keyLen),
			keyLen: keyLen,
			valLen: valLen,
			crc:    crc,
		}
		off += recHeader + int64(keyLen+valLen)
		good = off
	}
	if good < size {
		if !active {
			// Sealed segments are never written again; leave the bad tail in
			// place (unindexed) rather than rewrite history.
			return &segment{id: id, f: f, size: size}, nil
		}
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("diskcache: %w", err)
		}
	}
	return &segment{id: id, f: f, size: good}, nil
}

// TierName implements the optional naming interface traced tier probes use.
func (s *Store) TierName() string { return "disk" }

// Get implements sta.TierStore: a read-through probe. Any failure — missing
// key, short read, CRC mismatch, undecodable or invalid entry — is a miss.
func (s *Store) Get(key string) (sta.TierEntry, bool) {
	if s == nil {
		return sta.TierEntry{}, false
	}
	s.mu.RLock()
	ie, ok := s.index[key]
	var f *os.File
	if ok {
		for _, seg := range s.segs {
			if seg.id == ie.seg {
				f = seg.f
				break
			}
		}
	}
	if !ok || f == nil {
		s.mu.RUnlock()
		s.statMisses.add(1, s.misses)
		return sta.TierEntry{}, false
	}
	// Re-read key+value and re-verify the CRC on every hit: a flipped bit
	// anywhere in the record — key or value — downgrades to a miss instead
	// of an aliased or corrupt timing. The read happens under the RLock so
	// GC cannot close the file mid-read; it's a positioned ReadAt, so
	// concurrent readers never contend on a file offset.
	body := make([]byte, 8+ie.keyLen+ie.valLen)
	binary.LittleEndian.PutUint32(body[0:4], uint32(ie.keyLen))
	binary.LittleEndian.PutUint32(body[4:8], uint32(ie.valLen))
	n, _ := f.ReadAt(body[8:], ie.off-int64(ie.keyLen))
	s.mu.RUnlock()
	if n != ie.keyLen+ie.valLen ||
		crc32.Checksum(body, crcTable) != ie.crc ||
		string(body[8:8+ie.keyLen]) != key {
		s.statCorrupt.add(1, s.corrupt)
		s.statMisses.add(1, s.misses)
		return sta.TierEntry{}, false
	}
	e, err := decodeEntry(body[8+ie.keyLen:])
	if err != nil || !e.Valid() {
		s.statCorrupt.add(1, s.corrupt)
		s.statMisses.add(1, s.misses)
		return sta.TierEntry{}, false
	}
	s.statHits.add(1, s.hits)
	return e, true
}

// Put implements sta.TierStore: write-behind, lossy under pressure. The
// value is encoded on the caller's goroutine (cheap, allocation-bounded) so
// a dropped put costs no disk work at all.
func (s *Store) Put(key string, e sta.TierEntry) {
	if s == nil {
		return
	}
	select {
	case s.queue <- putReq{key: key, val: encodeEntry(e)}:
	case <-s.done:
		s.statDropped.add(1, s.dropped)
	default:
		s.statDropped.add(1, s.dropped)
	}
}

// writer is the single write-behind goroutine: it drains the queue,
// appending records and running GC at segment boundaries, until Close.
func (s *Store) writer() {
	defer close(s.writerDone)
	handle := func(req putReq) {
		if req.ack != nil {
			close(req.ack)
			return
		}
		s.append(req)
	}
	for {
		select {
		case req := <-s.queue:
			handle(req)
		case <-s.done:
			// Drain what's already queued, then exit.
			for {
				select {
				case req := <-s.queue:
					handle(req)
				default:
					return
				}
			}
		}
	}
}

// append writes one record to the active segment, sealing and collecting
// when size thresholds trip. Write errors (disk full, EIO) drop the record:
// the store is a cache, and the next Get simply misses.
func (s *Store) append(req putReq) {
	rec := encodeRecord(req.key, req.val)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.segs) == 0 {
		return
	}
	active := s.segs[len(s.segs)-1]
	if active.size+int64(len(rec)) > s.opts.SegmentBytes && active.size > int64(len(segMagic)) {
		seg, err := s.newSegment(active.id + 1)
		if err != nil {
			s.statDropped.add(1, s.dropped)
			return
		}
		s.segs = append(s.segs, seg)
		active = seg
		s.gcLocked()
	}
	if _, err := active.f.WriteAt(rec, active.size); err != nil {
		s.statDropped.add(1, s.dropped)
		return
	}
	if s.opts.Sync {
		active.f.Sync()
	}
	s.index[req.key] = indexEntry{
		seg:    active.id,
		off:    active.size + recHeader + int64(len(req.key)),
		keyLen: len(req.key),
		valLen: len(req.val),
		crc:    binary.LittleEndian.Uint32(rec[0:4]),
	}
	active.size += int64(len(rec))
	s.statPuts.add(1, s.puts)
	s.bytes.Set(s.totalBytesLocked())
}

// gcLocked drops oldest sealed segments until the total fits MaxBytes.
// Requires s.mu held for writing. Index entries pointing into a dropped
// segment are removed — later-segment duplicates of the same key survive
// because the index always points at the LATEST write.
func (s *Store) gcLocked() {
	if s.opts.MaxBytes < 0 {
		return
	}
	for len(s.segs) > 1 && s.totalBytesLocked() > s.opts.MaxBytes {
		victim := s.segs[0]
		s.segs = s.segs[1:]
		removed := int64(0)
		for k, ie := range s.index {
			if ie.seg == victim.id {
				delete(s.index, k)
				removed++
			}
		}
		victim.f.Close()
		os.Remove(s.segPath(victim.id))
		s.statEvict.add(removed, s.evictions)
	}
	s.bytes.Set(s.totalBytesLocked())
}

func (s *Store) totalBytesLocked() int64 {
	var t int64
	for _, seg := range s.segs {
		t += seg.size
	}
	return t
}

func (s *Store) totalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.totalBytesLocked()
}

// Flush blocks until every put enqueued BEFORE the call is durably appended
// (or dropped). Tests and graceful shutdown use it; the engine never waits.
func (s *Store) Flush() {
	if s == nil {
		return
	}
	// The queue is FIFO and drained by one goroutine: once our barrier is
	// acknowledged, everything enqueued before it has been appended.
	ack := make(chan struct{})
	select {
	case s.queue <- putReq{ack: ack}:
	case <-s.done:
		return
	}
	select {
	case <-ack:
	case <-s.writerDone:
	}
}

// Close drains the write-behind queue, fsyncs and closes every segment.
// The store is unusable afterwards (Gets miss, Puts drop).
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.closeO.Do(func() { close(s.done) })
	<-s.writerDone
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var first error
	for _, seg := range s.segs {
		if err := seg.f.Sync(); err != nil && first == nil {
			first = err
		}
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.segs = nil
	s.index = map[string]indexEntry{}
	return first
}

func (s *Store) closeSegments() {
	for _, seg := range s.segs {
		seg.f.Close()
	}
	s.segs = nil
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Hits:      s.statHits.value(),
		Misses:    s.statMisses.value(),
		Puts:      s.statPuts.value(),
		Dropped:   s.statDropped.value(),
		Corrupt:   s.statCorrupt.value(),
		Evictions: s.statEvict.value(),
		Entries:   len(s.index),
		Segments:  len(s.segs),
		Bytes:     s.totalBytesLocked(),
	}
}

// encodeRecord frames one key/value pair:
//
//	[u32 CRC][u32 keyLen][u32 valLen][key][val]
//
// The CRC (Castagnoli) covers keyLen|valLen|key|val — everything after
// itself — so a bit flip anywhere in the record, lengths included, fails
// verification.
func encodeRecord(key string, val []byte) []byte {
	rec := make([]byte, recHeader+len(key)+len(val))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(len(val)))
	copy(rec[12:], key)
	copy(rec[12+len(key):], val)
	binary.LittleEndian.PutUint32(rec[0:4], crc32.Checksum(rec[4:], crcTable))
	return rec
}

// encodeEntry serializes a TierEntry:
//
//	u8 version, u8 flags, u8 tier, u8 pad,
//	u32 panics, u32 reduced,
//	u64 delayBits, u64 slewBits,
//	u32 nrIters, u32 regions, u32 denseFallbacks, u32 capResolves,
//	u16 errLen, errMsg
//
// Floats travel as raw IEEE-754 bits (math.Float64bits): the warm-disk path
// must reproduce in-memory results BIT for bit, and a decimal round-trip
// could not promise that.
func encodeEntry(e sta.TierEntry) []byte {
	errMsg := e.ErrMsg
	if len(errMsg) > math.MaxUint16 {
		errMsg = errMsg[:math.MaxUint16]
	}
	b := make([]byte, 46+len(errMsg))
	b[0] = entryVer
	var flags byte
	if e.OK {
		flags |= flagOK
	}
	if e.SlewFellBack {
		flags |= flagFell
	}
	b[1] = flags
	b[2] = e.Tier
	binary.LittleEndian.PutUint32(b[4:8], uint32(e.Panics))
	binary.LittleEndian.PutUint32(b[8:12], uint32(e.Reduced))
	binary.LittleEndian.PutUint64(b[12:20], math.Float64bits(e.Delay))
	binary.LittleEndian.PutUint64(b[20:28], math.Float64bits(e.Slew))
	binary.LittleEndian.PutUint32(b[28:32], uint32(e.NRIters))
	binary.LittleEndian.PutUint32(b[32:36], uint32(e.Regions))
	binary.LittleEndian.PutUint32(b[36:40], uint32(e.DenseFall))
	binary.LittleEndian.PutUint32(b[40:44], uint32(e.CapResolves))
	binary.LittleEndian.PutUint16(b[44:46], uint16(len(errMsg)))
	copy(b[46:], errMsg)
	return b
}

// decodeEntry parses an encodeEntry value. It accepts exactly the byte
// strings encodeEntry produces, so whatever decodes re-encodes to the same
// bytes.
func decodeEntry(b []byte) (sta.TierEntry, error) {
	if len(b) < 46 {
		return sta.TierEntry{}, errors.New("diskcache: short entry")
	}
	if b[0] != entryVer {
		return sta.TierEntry{}, fmt.Errorf("diskcache: unknown entry version %d", b[0])
	}
	if b[1]&^(flagOK|flagFell) != 0 || b[3] != 0 {
		// Bits the encoder never sets: the entry is not one of ours.
		return sta.TierEntry{}, errors.New("diskcache: unknown entry flags")
	}
	errLen := int(binary.LittleEndian.Uint16(b[44:46]))
	if len(b) != 46+errLen {
		return sta.TierEntry{}, errors.New("diskcache: entry length mismatch")
	}
	e := sta.TierEntry{
		OK:           b[1]&flagOK != 0,
		SlewFellBack: b[1]&flagFell != 0,
		Tier:         b[2],
		Panics:       int32(binary.LittleEndian.Uint32(b[4:8])),
		Reduced:      int32(binary.LittleEndian.Uint32(b[8:12])),
		Delay:        math.Float64frombits(binary.LittleEndian.Uint64(b[12:20])),
		Slew:         math.Float64frombits(binary.LittleEndian.Uint64(b[20:28])),
		NRIters:      int32(binary.LittleEndian.Uint32(b[28:32])),
		Regions:      int32(binary.LittleEndian.Uint32(b[32:36])),
		DenseFall:    int32(binary.LittleEndian.Uint32(b[36:40])),
		CapResolves:  int32(binary.LittleEndian.Uint32(b[40:44])),
		ErrMsg:       string(b[46:]),
	}
	return e, nil
}
