package core

import (
	"encoding/binary"
	"strconv"

	"vnetp/internal/ethernet"
)

// FlowKeyLen is the size of a packed FlowKey: 4 bytes of tenant ID plus
// two 6-byte MAC addresses.
const FlowKeyLen = 16

// FlowKey identifies one unidirectional flow through the overlay: the
// tenant namespace plus the frame's source and destination MACs. It is
// the index of the per-flow forwarding cache (ISSUE 9): one key maps to
// the fully-resolved forwarding decision (link, encap template, seal
// context), so the steady-state hot path performs a single lookup
// instead of re-walking route match → tenant guard → link resolve per
// frame.
//
// FlowKey is a comparable value type, usable directly as a map key.
type FlowKey struct {
	Tenant uint32
	Src    ethernet.MAC
	Dst    ethernet.MAC
}

// String formats k as "t<tenant> <src>-><dst>". Every shed frame's ledger
// detail carries it, so it is built in one buffer on the stack: one
// allocation, the string's.
func (k FlowKey) String() string {
	var buf [len("t4294967295 ->") + 2*ethernet.MACStringLen]byte
	b := strconv.AppendUint(append(buf[:0], 't'), uint64(k.Tenant), 10)
	b = k.Src.AppendTo(append(b, ' '))
	b = k.Dst.AppendTo(append(b, "->"...))
	return string(b)
}

// Encode packs the key into its canonical 16-byte wire form:
// big-endian tenant ID, then source MAC, then destination MAC. The
// packed form is what the sharded cache hashes and what the fuzz
// corpus feeds DecodeFlowKey.
func (k FlowKey) Encode() [FlowKeyLen]byte {
	var b [FlowKeyLen]byte
	binary.BigEndian.PutUint32(b[0:4], k.Tenant)
	copy(b[4:10], k.Src[:])
	copy(b[10:16], k.Dst[:])
	return b
}

// DecodeFlowKey unpacks a 16-byte packed key. It is the exact inverse
// of Encode: DecodeFlowKey(k.Encode()) == k for every key, and
// Decode∘Encode round-trips every 16-byte input (the FuzzFlowKey
// property).
func DecodeFlowKey(b [FlowKeyLen]byte) FlowKey {
	var k FlowKey
	k.Tenant = binary.BigEndian.Uint32(b[0:4])
	copy(k.Src[:], b[4:10])
	copy(k.Dst[:], b[10:16])
	return k
}

// Shard hashes the key onto one of n shards (n must be a power of two)
// with a word-at-a-time multiply-mix over the tenant ID and both MACs.
// This sits on the cache-hit path of every routed frame, so it avoids
// the packed Encode copy and the byte-wise FNV loop; the tenant ID is
// folded in so two tenants sharing a MAC pair land on independent
// shards more often than not.
func (k FlowKey) Shard(n int) int {
	a := binary.BigEndian.Uint32(k.Src[2:])
	b := binary.BigEndian.Uint32(k.Dst[2:])
	c := uint32(k.Src[0])<<24 | uint32(k.Src[1])<<16 | uint32(k.Dst[0])<<8 | uint32(k.Dst[1])
	h := (a ^ k.Tenant) * 0x9E3779B1
	h ^= (b ^ c ^ h>>15) * 0x85EBCA6B
	h ^= h >> 16
	return int(h & uint32(n-1))
}
