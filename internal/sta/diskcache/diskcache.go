// Package diskcache is the persistent tier below the engine's in-memory
// delay cache: a content-addressed store of direction timings (sta.TierEntry
// values keyed by the engine's fixed-width sta.Key) that survives process restarts,
// so a service replica restarting over a warm directory serves previously
// analyzed netlists without re-running the solver.
//
// Design constraints, in order:
//
//  1. Never serve wrong data. Every record carries a CRC32 over its entire
//     payload, re-verified on every read (not just at open), and a semantic
//     validity check on the decoded entry. Any mismatch is a miss — the
//     engine re-evaluates and overwrites. Torn tails from a crash mid-write
//     are truncated away at open.
//  2. Lossy is fine, slow is not. Puts are write-behind through a bounded
//     WriteQueue drained by one goroutine, which appends each drained batch
//     under one lock; when the queue is full or closed the put is dropped
//     (and counted). A GetMany batch is ReadAts against the segment files
//     under one RLock into a pooled fixed-size buffer — no serialization
//     with the writer beyond index access, and no allocation on a hit.
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
	"context"
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
	// new one started. 0 means 4 MiB; above MaxSegmentBytes, Open fails
	// with ErrSegmentBytes.
	SegmentBytes int64
	// QueueLen bounds the write-behind channel; a full queue drops the put.
	// 0 means 1024.
	QueueLen int
	// Metrics, when set, receives the store's counters (sta/disk/hits,
	// misses, puts, dropped, corrupt, evictions) and its share of the
	// sta/disk/bytes gauge, which sums every open store on the registry.
	// The store keeps no other tally: without Metrics nothing is counted.
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

const (
	segMagic   = "QWMDSEG2"     // 8-byte segment preamble
	sigFile    = "signature"    // persisted Config.Signature
	segPattern = "seg-%06d.log" // segment file naming
	recHeader  = 4 + 4          // CRC32, value length
	recKeyOff  = recHeader      // the fixed-width key follows the header
	recValOff  = recHeader + sta.KeySize
	maxValLen  = 1 << 20 // sanity bound: a longer field means a corrupt header
	entryVer   = 1       // TierEntry encoding version
	entryFixed = 46      // EncodeEntry's bytes before the error message
	flagOK     = 1 << 0
	flagFell   = 1 << 1

	// getBufLen sizes GetMany's read buffer: the checksummed part of a record
	// (value length, key, value) whose error message is at most 165 bytes,
	// which covers every successful timing. Longer records use the heap.
	getBufLen = 256
)

// MaxSegmentBytes is the largest Options.SegmentBytes: the index holds
// 32-bit record offsets, and a record is appended only where it ends within
// SegmentBytes (or opens an empty segment).
const MaxSegmentBytes = math.MaxUint32

// ErrSegmentBytes is Open's error for an Options.SegmentBytes above
// MaxSegmentBytes.
var ErrSegmentBytes = errors.New("diskcache: SegmentBytes exceeds the index's 32-bit offsets")

// getBufs pools GetMany's read buffers. A stack array would escape anyway: the
// CRC routine's argument leaks to the heap.
var getBufs = sync.Pool{New: func() any { return new([getBufLen]byte) }}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// locator is an index slot: where one record sits inside a segment.
type locator struct {
	off    uint32 // offset of the record's key bytes
	seg    int32
	valLen uint32
	crc    uint32 // CRC over valLen|key|val, re-verified on every read
}

// indexWord is a key's index slot: the digest's first 64-bit word mixed
// with the namespace byte and the slew bucket. Multiplying by an odd
// constant is a bijection, so one stage at another rail or bucket (below
// 2^56) always takes another slot. Two keys sharing a word share a slot, and
// the later write owns it; a read re-checks the full key in the record, so
// the other key reads as a miss, never as its neighbour's timing.
func indexWord(k *sta.Key) uint64 {
	const nsOff = sta.KeySize - 9 // a key is digest | namespace byte | 8-byte bucket
	d := binary.LittleEndian.Uint64(k[0:8])
	bucket := binary.BigEndian.Uint64(k[nsOff+1:])
	return d ^ (bucket<<8|uint64(k[nsOff]))*0x9e3779b97f4a7c15
}

type segment struct {
	id   int
	f    *os.File
	size int64
}

type putReq struct {
	key sta.Key
	val []byte
}

// Store is a persistent TierStore over one directory. It satisfies
// sta.TierStore; a nil *Store is a valid no-op tier.
type Store struct {
	dir  string
	opts Options

	mu     sync.RWMutex
	index  map[uint64]locator // by indexWord
	segs   []*segment         // ascending id order; last is active
	closed bool

	queue *WriteQueue[putReq]

	hits, misses, puts, dropped, corrupt, evictions *obs.Counter
	// bytes is the registry-wide sta/disk/bytes gauge, shared by every
	// store on the registry: each adds the change in its own total, of
	// which published is the part already added.
	bytes     *obs.Gauge
	published int64
}

// Open opens (or creates) the store in dir. signature is the owning
// analyzer configuration's sta.Config.Signature(); a directory previously
// opened under a different signature is rejected, because its entries would
// be internally consistent but computed under other settings.
func Open(dir, signature string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if opts.SegmentBytes > MaxSegmentBytes {
		return nil, fmt.Errorf("%w: %d > %d", ErrSegmentBytes, opts.SegmentBytes, int64(MaxSegmentBytes))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	if err := checkSignature(dir, signature); err != nil {
		return nil, err
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		index: map[uint64]locator{},
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
	s.publishBytesLocked()
	s.queue = NewWriteQueue(opts.QueueLen, s.append)
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

// load scans every segment, rebuilding the index. Later records win on
// duplicate index words (append-only: the latest write is the freshest). The
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
		valLen := int(binary.LittleEndian.Uint32(hdr[4:8]))
		if valLen <= 0 || valLen > maxValLen || off+recValOff+int64(valLen) > size {
			break // corrupt header or torn body
		}
		if off+recKeyOff > MaxSegmentBytes {
			break // past what a locator addresses: left unindexed
		}
		need := 4 + sta.KeySize + valLen
		if cap(buf) < need {
			buf = make([]byte, need)
		}
		body := buf[:need]
		copy(body[0:4], hdr[4:8])
		if n, _ := f.ReadAt(body[4:], off+recKeyOff); n != sta.KeySize+valLen {
			break
		}
		if crc32.Checksum(body, crcTable) != crc {
			s.corrupt.Add(1)
			break // everything past a bad CRC is suspect
		}
		key := sta.Key(body[4 : 4+sta.KeySize])
		s.index[indexWord(&key)] = locator{
			off:    uint32(off + recKeyOff),
			seg:    int32(id),
			valLen: uint32(valLen),
			crc:    crc,
		}
		off += recValOff + int64(valLen)
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

// Name implements sta.TierStore.
func (s *Store) Name() string { return "disk" }

// GetMany implements sta.TierStore: the batch resolves under one RLock. Any
// failure — missing key, short read, CRC mismatch, undecodable or invalid
// entry — is a miss. A hit reads the record into a pooled buffer and
// allocates nothing.
func (s *Store) GetMany(_ context.Context, keys []sta.Key, out []sta.TierEntry, hit []bool) {
	if s == nil {
		clear(hit[:len(keys)])
		return
	}
	buf := getBufs.Get().(*[getBufLen]byte)
	defer getBufs.Put(buf)
	var hits, corrupt int64
	s.mu.RLock()
	for i := range keys {
		var ok bool
		out[i], ok, hit[i] = s.getLocked(&keys[i], buf)
		if hit[i] {
			hits++
		} else if ok {
			corrupt++
		}
	}
	s.mu.RUnlock()
	s.hits.Add(hits)
	s.misses.Add(int64(len(keys)) - hits)
	if corrupt > 0 {
		s.corrupt.Add(corrupt)
	}
}

// getLocked reads one key; found reports an intact record under the key's
// index word, hit a verified entry for the key itself (found && !hit is
// corruption). A record of another key sharing the word is a plain miss,
// and is never decoded. Requires s.mu held for reading, so GC cannot close
// the file mid-read; the read is a positioned ReadAt, so concurrent readers
// never contend on a file offset.
func (s *Store) getLocked(key *sta.Key, buf *[getBufLen]byte) (e sta.TierEntry, found, hit bool) {
	ie, ok := s.index[indexWord(key)]
	if !ok {
		return e, false, false
	}
	var f *os.File
	for _, seg := range s.segs {
		if seg.id == int(ie.seg) {
			f = seg.f
			break
		}
	}
	if f == nil {
		return e, false, false
	}
	// Re-read key+value and re-verify the CRC on every hit: a flipped bit
	// anywhere in the record — key or value — downgrades to a miss instead
	// of an aliased or corrupt timing.
	need := 4 + sta.KeySize + int(ie.valLen)
	var body []byte
	if need <= getBufLen {
		body = buf[:need]
	} else {
		body = make([]byte, need)
	}
	binary.LittleEndian.PutUint32(body[0:4], uint32(ie.valLen))
	n, _ := f.ReadAt(body[4:], int64(ie.off))
	if n != need-4 || crc32.Checksum(body, crcTable) != ie.crc {
		return e, true, false
	}
	if sta.Key(body[4:4+sta.KeySize]) != *key {
		return e, false, false
	}
	e, err := DecodeEntry(body[4+sta.KeySize:])
	if err != nil || !e.Valid() {
		return sta.TierEntry{}, true, false
	}
	return e, true, true
}

// Put implements sta.TierStore: write-behind, lossy under pressure. The
// value is encoded on the caller's goroutine (cheap, allocation-bounded) so
// a dropped put costs no disk work at all.
func (s *Store) Put(_ context.Context, key sta.Key, e sta.TierEntry) {
	if s == nil {
		return
	}
	if !s.queue.Enqueue(putReq{key: key, val: EncodeEntry(e)}) {
		s.dropped.Add(1)
	}
}

// append is the write-behind sink: it writes a batch of records to the
// active segment under one lock, sealing and collecting when size thresholds
// trip. Write errors (disk full, EIO) drop the record: the store is a cache,
// and the next read simply misses.
func (s *Store) append(batch []putReq) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || len(s.segs) == 0 {
		return
	}
	for _, req := range batch {
		s.appendLocked(req)
	}
	s.publishBytesLocked()
}

// appendLocked writes one record. Requires s.mu held for writing.
func (s *Store) appendLocked(req putReq) {
	rec := EncodeRecord(req.key, req.val)
	active := s.segs[len(s.segs)-1]
	if active.size+int64(len(rec)) > s.opts.SegmentBytes && active.size > int64(len(segMagic)) {
		seg, err := s.newSegment(active.id + 1)
		if err != nil {
			s.dropped.Add(1)
			return
		}
		s.segs = append(s.segs, seg)
		active = seg
		s.gcLocked()
	}
	if _, err := active.f.WriteAt(rec, active.size); err != nil {
		s.dropped.Add(1)
		return
	}
	s.index[indexWord(&req.key)] = locator{
		off:    uint32(active.size + recKeyOff),
		seg:    int32(active.id),
		valLen: uint32(len(req.val)),
		crc:    binary.LittleEndian.Uint32(rec[0:4]),
	}
	active.size += int64(len(rec))
	s.puts.Add(1)
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
			if int(ie.seg) == victim.id {
				delete(s.index, k)
				removed++
			}
		}
		victim.f.Close()
		os.Remove(s.segPath(victim.id))
		s.evictions.Add(removed)
	}
	s.publishBytesLocked()
}

func (s *Store) totalBytesLocked() int64 {
	var t int64
	for _, seg := range s.segs {
		t += seg.size
	}
	return t
}

// publishBytesLocked moves the sta/disk/bytes gauge by the change in this
// store's total since it last did. Requires s.mu held for writing (or a
// store no other goroutine can reach yet).
func (s *Store) publishBytesLocked() {
	t := s.totalBytesLocked()
	s.bytes.Add(t - s.published)
	s.published = t
}

// Flush blocks until every put enqueued BEFORE the call is appended
// (or dropped). Tests and graceful shutdown use it; the engine never waits.
func (s *Store) Flush() {
	if s == nil {
		return
	}
	s.queue.Flush()
}

// Close drains the write-behind queue, fsyncs and closes every segment.
// The store is unusable afterwards (reads miss, Puts drop and are counted).
// Safe to call more than once.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.queue.Close()
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
	s.publishBytesLocked()
	s.index = map[uint64]locator{}
	return first
}

func (s *Store) closeSegments() {
	for _, seg := range s.segs {
		seg.f.Close()
	}
	s.segs = nil
}

// EncodeRecord frames one key/value pair:
//
//	[u32 CRC][u32 valLen][key: sta.KeySize bytes][val]
//
// The CRC (Castagnoli) covers valLen|key|val — everything after itself — so
// a bit flip anywhere in the record, length included, fails verification.
func EncodeRecord(key sta.Key, val []byte) []byte {
	rec := make([]byte, recValOff+len(val))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(val)))
	copy(rec[recKeyOff:], key[:])
	copy(rec[recValOff:], val)
	binary.LittleEndian.PutUint32(rec[0:4], crc32.Checksum(rec[4:], crcTable))
	return rec
}

// EncodeEntry serializes a TierEntry into the store's value encoding:
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
func EncodeEntry(e sta.TierEntry) []byte {
	errMsg := e.ErrMsg
	if len(errMsg) > math.MaxUint16 {
		errMsg = errMsg[:math.MaxUint16]
	}
	b := make([]byte, entryFixed+len(errMsg))
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
	copy(b[entryFixed:], errMsg)
	return b
}

// DecodeEntry parses an EncodeEntry value. It accepts exactly the byte
// strings EncodeEntry produces, so whatever decodes re-encodes to the same
// bytes. It performs structural validation only; callers must still check
// sta.TierEntry.Valid.
func DecodeEntry(b []byte) (sta.TierEntry, error) {
	if len(b) < entryFixed {
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
	if len(b) != entryFixed+errLen {
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
		ErrMsg:       string(b[entryFixed:]),
	}
	return e, nil
}
