package diskcache

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"qwm/internal/sta"
)

// The CRC-framed record and Float64bits entry encodings double as the
// remote-cache wire format (internal/sta/remotecache): one replica's disk
// segments and another replica's HTTP responses carry byte-identical frames,
// verified by the same checksum at every hop. These exported wrappers are the
// single source of truth for that format — the remote tier must never grow a
// second, subtly different encoder.

// EncodeEntry serializes a TierEntry into the store's value encoding
// (version byte, flags, raw IEEE-754 float bits — see encodeEntry).
func EncodeEntry(e sta.TierEntry) []byte { return encodeEntry(e) }

// DecodeEntry parses a value encoded by EncodeEntry. It performs structural
// validation only; callers must still check sta.TierEntry.Valid.
func DecodeEntry(b []byte) (sta.TierEntry, error) { return decodeEntry(b) }

// EncodeRecord frames one key/value pair with a leading CRC32-Castagnoli over
// everything after the checksum itself:
//
//	[u32 CRC][u32 valLen][key: sta.KeySize bytes][val]
func EncodeRecord(key sta.Key, val []byte) []byte { return encodeRecord(key, val) }

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
