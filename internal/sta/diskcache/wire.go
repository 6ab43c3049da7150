package diskcache

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"qwm/internal/sta"
)

// The CRC-framed record and Float64bits entry encodings (EncodeRecord,
// EncodeEntry and DecodeEntry in diskcache.go) double as the remote-cache
// wire format (internal/sta/remotecache): one replica's disk segments and
// another replica's HTTP responses carry byte-identical frames, verified by
// the same checksum at every hop. They are the single source of truth for
// that format — the remote tier must never grow a second, subtly different
// encoder.

// ErrCorruptRecord is returned by DecodeRecord for any framing failure —
// short buffer, implausible lengths, trailing bytes, or checksum mismatch.
// Callers treat it uniformly as "this record does not exist".
var ErrCorruptRecord = errors.New("diskcache: corrupt record frame")

// DecodeRecord parses and CRC-verifies a frame produced by EncodeRecord,
// returning the embedded key and value bytes (aliasing b, not copied).
func DecodeRecord(b []byte) (key sta.Key, val []byte, err error) {
	if len(b) < recValOff {
		return sta.Key{}, nil, ErrCorruptRecord
	}
	crc := binary.LittleEndian.Uint32(b[0:4])
	valLen := int(binary.LittleEndian.Uint32(b[4:8]))
	if valLen <= 0 || valLen > maxValLen || len(b) != recValOff+valLen {
		return sta.Key{}, nil, ErrCorruptRecord
	}
	if crc32.Checksum(b[4:], crcTable) != crc {
		return sta.Key{}, nil, ErrCorruptRecord
	}
	return sta.Key(b[recKeyOff:recValOff]), b[recValOff:], nil
}

// NextRecord splits the first frame off a concatenation of EncodeRecord
// frames (the remote tier's batch bodies) by its length field, without
// verifying it — DecodeRecord does that. ok is false when b is too short
// for a frame header or for the frame its header announces; the rest of the
// stream is then unusable, since no later frame boundary can be found.
func NextRecord(b []byte) (frame, rest []byte, ok bool) {
	if len(b) < recValOff {
		return nil, nil, false
	}
	valLen := int(binary.LittleEndian.Uint32(b[4:8]))
	if valLen <= 0 || valLen > maxValLen || len(b)-recValOff < valLen {
		return nil, nil, false
	}
	n := recValOff + valLen
	return b[:n:n], b[n:], true
}
