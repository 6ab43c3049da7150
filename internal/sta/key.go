package sta

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"

	"qwm/internal/circuit"
	"qwm/internal/mos"
	"qwm/internal/slab"
)

// KeySize is the length of a Key in bytes.
const KeySize = sha256.Size + 1 + 8

// Key is the delay cache's one key format, shared by the in-memory cache and
// every TierStore:
//
//	[0:32]  SHA-256 content digest
//	[32]    namespace byte: nsRise (the rail)
//	[33:41] slew bucket, big-endian two's complement
//
// The digest covers one (stage, output)'s timing-relevant content — output
// name, canonically sorted edges with their junction geometry, load map,
// reduction signature — in a length-prefixed binary encoding, so node names
// can hold any byte (separators included) without two different stages
// sharing a key. The digest is computed once per (stage, output) in the
// gather phase; a lookup only copies it and fills in the bucket.
//
// SHA-256 rather than a faster non-cryptographic hash: keys are derived from
// client-supplied netlists and shared across clients through the tiers, so a
// crafted collision would let one client poison another's timings.
type Key [KeySize]byte

// Namespace bits of Key[nsByte].
const (
	nsByte = sha256.Size

	// nsRise marks the output-rising direction (rail circuit.SupplyNode);
	// clear, the output falls (rail circuit.GroundNode).
	nsRise byte = 1 << 0
)

// digest is the content part of a Key.
type digest = [sha256.Size]byte

// makeKey builds a bucket-zero key from a digest and namespace byte.
func makeKey(d *digest, ns byte) Key {
	var k Key
	copy(k[:], d[:])
	k[nsByte] = ns
	return k
}

// withBucket returns k with its slew-bucket field set.
func (k Key) withBucket(bucket int) Key {
	binary.BigEndian.PutUint64(k[nsByte+1:], uint64(int64(bucket)))
	return k
}

// String renders the key in hex. Fault-injection site keys use it, so it is
// built only when a FaultPlan is set.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// contentDigest hashes the timing-relevant content of one (stage, output):
// the output name, the stage's edges in canonical order (with their devices'
// junction geometry), the output's load map and the reduction signature. Two
// stages get equal digests exactly when all of these are equal, load caps
// included bit for bit: a load that differs in any bit may time differently,
// so it must not share an entry. The encoding is assembled in the scratch's
// reused buffers, so a warm gather allocates nothing.
func (s *analyzeScratch) contentDigest(st *circuit.Stage, out string, loads map[string]float64, redSig string) digest {
	b := appendString(s.keyBuf[:0], out)
	b = s.appendEdges(b, st)
	b = s.appendLoads(b, loads)
	b = appendString(b, redSig)
	s.keyBuf = b
	return sha256.Sum256(b)
}

// appendEdges appends the edge count and every edge's encoding, sorted
// bytewise so edge declaration order drops out. Each edge encoding is
// self-delimiting (length-prefixed strings, fixed-width floats), so the
// sorted concatenation decodes to exactly one multiset of edges.
func (s *analyzeScratch) appendEdges(b []byte, st *circuit.Stage) []byte {
	seg := s.segBuf[:0]
	offs := s.segOffs[:0]
	for _, e := range st.Edges {
		offs = append(offs, len(seg))
		seg = appendString(seg, e.Kind.String())
		seg = appendString(seg, e.Src)
		seg = appendString(seg, e.Snk)
		seg = appendString(seg, e.Gate)
		seg = appendFloat(seg, e.W)
		seg = appendFloat(seg, e.L)
		seg = appendFloat(seg, e.R)
		seg = appendJunctions(seg, e)
	}
	offs = append(offs, len(seg))
	s.segBuf, s.segOffs = seg, offs
	ne := len(st.Edges)
	ord := s.segOrd[:0]
	for i := 0; i < ne; i++ {
		ord = append(ord, i)
	}
	// Insertion sort: stages have a handful of edges, and the comparisons
	// are plain memcmp over the segment bytes.
	for i := 1; i < ne; i++ {
		for j := i; j > 0 && bytes.Compare(seg[offs[ord[j]]:offs[ord[j]+1]], seg[offs[ord[j-1]]:offs[ord[j-1]+1]]) < 0; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	s.segOrd = ord
	b = binary.AppendUvarint(b, uint64(ne))
	for _, i := range ord {
		b = append(b, seg[offs[i]:offs[i+1]]...)
	}
	return b
}

// appendJunctions appends one byte saying whether the edge's device sets
// junction geometry (AD/PD/AS/PS) and, when it does, which channel end is
// the drain (0 for Src, 1 for Snk) and the drain and source junctions' area
// and perimeter. qwm.Build charges each path node with the junction of the
// device terminal on it, and a zero junction stands for the W-derived
// default, which W already keys.
func appendJunctions(b []byte, e *circuit.StageEdge) []byte {
	t := e.Ref
	if t == nil || t.DrainJunc == (mos.Junction{}) && t.SourceJunc == (mos.Junction{}) {
		return append(b, 0)
	}
	drainSide := byte(0)
	if t.Drain != e.Src {
		drainSide = 1
	}
	b = append(b, 1, drainSide)
	for _, v := range [4]float64{t.DrainJunc.Area, t.DrainJunc.Perim, t.SourceJunc.Area, t.SourceJunc.Perim} {
		b = appendFloat(b, v)
	}
	return b
}

// appendLoads appends the load map as a count and name-sorted (name, cap)
// pairs, each cap as its exact float bits.
func (s *analyzeScratch) appendLoads(b []byte, loads map[string]float64) []byte {
	nodes := slab.Resize(s.nodeBuf, len(loads))[:0]
	for n := range loads {
		nodes = append(nodes, n)
	}
	slices.Sort(nodes)
	s.nodeBuf = nodes
	b = binary.AppendUvarint(b, uint64(len(nodes)))
	for _, n := range nodes {
		b = appendString(b, n)
		b = appendFloat(b, loads[n])
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, v float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(v))
}
