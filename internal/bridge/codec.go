// Package bridge implements the wire format of the VNET/P bridge (paper
// Sect. 4.5), the host-kernel component that encapsulates routed
// Ethernet frames in UDP: the encapsulation header, fragmentation of
// packets that exceed the physical MTU, record trains, reassembly and
// the sealed-link templates.
//
// It is pure and shared by the simulated bridge (internal/vnetpsim) and
// the real-socket overlay (internal/overlay).
package bridge

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"vnetp/internal/ethernet"
)

// Encapsulation header layout (16 bytes), VNET/U-compatible in spirit:
//
//	magic(2) | version(1) | flags(1) | id(4) | fragOff(4) | totalLen(4)
//
// followed by a slice of the marshalled inner Ethernet frame — or, when
// the aggregate flag is set, by a slice of a record train of whole inner
// frames (aggregate.go): fragOff then carries the train's frame count
// (>= 1) in its high 16 bits above the slice's offset, and totalLen the
// train's byte length.
//
// Version 2 widened fragOff and totalLen from 16 to 32 bits: with the
// 64 KB overlay MTU (ethernet.MaxMTU = 65535) a maximum-size frame
// marshals to 65549 bytes, which wrapped the v1 uint16 length fields and
// corrupted exactly the jumbo frames the large MTU exists for. v1
// datagrams are rejected with ErrBadVersion.
const (
	EncapMagic     = 0x564e // "VN"
	EncapVersion   = 2
	EncapHeaderLen = 16

	// EncapTraceLen is the size of the optional trace extension that
	// follows the fixed header when flagTrace is set:
	//
	//	traceID(8) | origin(2) | traceFlags(2)
	//
	// traceID names one sampled packet's journey across the overlay,
	// origin is a 16-bit hash of the node that started the trace, and
	// traceFlags carries sampling metadata (bit 0: explicit per-flow
	// trigger rather than 1-in-N sampling). The extension lets a trace
	// started on the transmit node continue on the receive node, so one
	// trace ID spans both halves of a hop (internal/trace.LiveTracer).
	EncapTraceLen = 12

	// EncapSealLen is the size of the optional seal extension that
	// follows the fixed header (and the trace extension, when both are
	// present) when flagSealed is set:
	//
	//	tenantID(4) | nonce(8)
	//
	// The fragment payload after a sealed header is AEAD ciphertext of
	// the inner-frame slice plus a SealOverhead-byte authentication tag;
	// the entire wire header (fixed part and extensions) is authenticated
	// as associated data, so flags, ids, offsets, tenant, and nonce are
	// all tamper-evident even though they travel in the clear.
	EncapSealLen = 12

	// SealOverhead is the AEAD tag size appended to each sealed
	// fragment's payload (AES-GCM, internal/seal.Overhead).
	SealOverhead = 16

	flagMoreFrags  = 0x01
	flagProbe      = 0x02
	flagProbeReply = 0x04
	flagTrace      = 0x08
	flagSealed     = 0x10
	flagAggregate  = 0x20
)

// TraceExt is the optional per-datagram trace extension (EncapTraceLen
// bytes on the wire, present when the header's trace flag is set).
type TraceExt struct {
	ID     uint64 // trace id, shared by every fragment and both nodes of a hop
	Origin uint16 // hash of the originating node's name
	Flags  uint16 // bit 0: explicitly triggered (per-MAC flow), else sampled
}

// TraceTriggered is the TraceExt.Flags bit marking an explicit per-flow
// trigger (TRACE START FLOW) rather than 1-in-N sampling.
const TraceTriggered uint16 = 0x01

// SealExt is the optional per-datagram seal extension (EncapSealLen
// bytes on the wire, present when the header's sealed flag is set). The
// nonce reuses the traceID shape — origin(16) << 48 | seq(48) — so each
// sending node's nonce stream is unique without coordination.
type SealExt struct {
	Tenant uint32 // tenant whose key sealed this fragment
	Nonce  uint64 // per-sender counter nonce, origin<<48 | seq48
}

// LinkSealer seals one link's outbound fragments for one tenant. It is
// implemented by internal/seal.Sealer; bridge declares the interface so
// the codec stays free of crypto dependencies.
type LinkSealer interface {
	// Tenant reports the tenant ID stamped into the seal extension.
	Tenant() uint32
	// NextNonce reserves a fresh nonce for one fragment.
	NextNonce() uint64
	// Seal encrypts plaintext in place (the slice must have Overhead
	// spare capacity) binding additional as associated data, and returns
	// the ciphertext (len(plaintext)+SealOverhead bytes).
	Seal(nonce uint64, additional, plaintext []byte) []byte
}

// EncapHeader describes one encapsulation fragment. Probe datagrams (the
// link-health heartbeats) travel on the same channel with the probe flags
// set; their payload is the probe body, not an inner-frame slice.
type EncapHeader struct {
	ID         uint32 // per-sender packet id, shared by all fragments
	FragOff    uint32 // byte offset of this fragment's payload (aggregate: frame count<<16 | offset)
	TotalLen   uint32 // total inner-frame length (aggregate: record-train length)
	MoreFrags  bool
	Probe      bool // liveness probe request
	ProbeReply bool // liveness probe echo
	Aggregate  bool // payload is a slice of a train of whole inner frames (aggregate.go)

	// Trace is the optional trace extension, valid when HasTrace is set.
	Trace    TraceExt
	HasTrace bool

	// Seal is the optional seal extension, valid when HasSeal is set.
	// When present the fragment payload is AEAD ciphertext (inner-frame
	// slice + SealOverhead tag) rather than plaintext.
	Seal    SealExt
	HasSeal bool
}

// WireLen reports the marshalled header size, including any extensions
// present.
func (h *EncapHeader) WireLen() int {
	n := EncapHeaderLen
	if h.HasTrace {
		n += EncapTraceLen
	}
	if h.HasSeal {
		n += EncapSealLen
	}
	return n
}

var (
	ErrBadMagic   = errors.New("bridge: bad encapsulation magic")
	ErrBadVersion = errors.New("bridge: unsupported encapsulation version")
	ErrTruncated  = errors.New("bridge: truncated encapsulation header")
	ErrFragBounds = errors.New("bridge: fragment outside packet bounds")
	ErrAggregate  = errors.New("bridge: malformed aggregate datagram")

	ErrRecordTooLong = errors.New("bridge: frame too long for a train record")
)

// Marshal appends the header to b.
func (h *EncapHeader) Marshal(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, EncapMagic)
	flags := byte(0)
	if h.MoreFrags {
		flags |= flagMoreFrags
	}
	if h.Probe {
		flags |= flagProbe
	}
	if h.ProbeReply {
		flags |= flagProbeReply
	}
	if h.HasTrace {
		flags |= flagTrace
	}
	if h.HasSeal {
		flags |= flagSealed
	}
	if h.Aggregate {
		flags |= flagAggregate
	}
	b = append(b, EncapVersion, flags)
	b = binary.BigEndian.AppendUint32(b, h.ID)
	b = binary.BigEndian.AppendUint32(b, h.FragOff)
	b = binary.BigEndian.AppendUint32(b, h.TotalLen)
	if h.HasTrace {
		b = binary.BigEndian.AppendUint64(b, h.Trace.ID)
		b = binary.BigEndian.AppendUint16(b, h.Trace.Origin)
		b = binary.BigEndian.AppendUint16(b, h.Trace.Flags)
	}
	if h.HasSeal {
		b = binary.BigEndian.AppendUint32(b, h.Seal.Tenant)
		b = binary.BigEndian.AppendUint64(b, h.Seal.Nonce)
	}
	return b
}

// EncapFrames peeks at how many inner frames a data datagram stands for,
// without a full parse: one, unless it is a slice of a train — then the
// train's count its header claims, capped by what a train of the length
// it claims could hold (nothing has authenticated the header yet). Drop
// sites that shed a datagram they have not parsed charge this many
// frames to the ledger.
func EncapFrames(b []byte) uint64 {
	if len(b) < EncapHeaderLen || b[3]&flagAggregate == 0 {
		return 1
	}
	return aggFrames(binary.BigEndian.Uint32(b[8:])>>aggCountShift, binary.BigEndian.Uint32(b[12:]))
}

// Frames is EncapFrames for a header ParseEncap accepted (which already
// holds a train's count to what its length could carry): what the frame
// or train the datagram is a slice of stands for.
func (h *EncapHeader) Frames() uint64 {
	if !h.Aggregate {
		return 1
	}
	return uint64(h.FragOff >> aggCountShift)
}

// offset reports the byte offset of the datagram's slice within its
// frame or train.
func (h *EncapHeader) offset() uint32 {
	if h.Aggregate {
		return h.FragOff & aggOffMask
	}
	return h.FragOff
}

// Whole reports whether the datagram carries its frame or train entire —
// the first slice, nothing following — so it needs no reassembly. For a
// header ParseEncap accepted, the payload is then exactly TotalLen bytes.
func (h *EncapHeader) Whole() bool { return h.offset() == 0 && !h.MoreFrags }

// ParseEncap splits an encapsulated datagram into header and fragment
// payload (aliasing b).
func ParseEncap(b []byte) (*EncapHeader, []byte, error) {
	h := new(EncapHeader)
	payload, err := h.Unmarshal(b)
	if err != nil {
		return nil, nil, err
	}
	return h, payload, nil
}

// Unmarshal is ParseEncap into a header the caller owns — the receive
// paths keep one on their stack, so a datagram costs no allocation to
// parse. On an error h holds nothing meaningful.
func (h *EncapHeader) Unmarshal(b []byte) (payload []byte, err error) {
	if len(b) < EncapHeaderLen {
		return nil, ErrTruncated
	}
	if binary.BigEndian.Uint16(b) != EncapMagic {
		return nil, ErrBadMagic
	}
	if b[2] != EncapVersion {
		return nil, ErrBadVersion
	}
	*h = EncapHeader{
		MoreFrags:  b[3]&flagMoreFrags != 0,
		Probe:      b[3]&flagProbe != 0,
		ProbeReply: b[3]&flagProbeReply != 0,
		Aggregate:  b[3]&flagAggregate != 0,
		ID:         binary.BigEndian.Uint32(b[4:]),
		FragOff:    binary.BigEndian.Uint32(b[8:]),
		TotalLen:   binary.BigEndian.Uint32(b[12:]),
	}
	hdrLen := EncapHeaderLen
	if b[3]&flagTrace != 0 {
		if len(b) < hdrLen+EncapTraceLen {
			return nil, ErrTruncated
		}
		h.HasTrace = true
		h.Trace.ID = binary.BigEndian.Uint64(b[hdrLen:])
		h.Trace.Origin = binary.BigEndian.Uint16(b[hdrLen+8:])
		h.Trace.Flags = binary.BigEndian.Uint16(b[hdrLen+10:])
		hdrLen += EncapTraceLen
	}
	if b[3]&flagSealed != 0 {
		if len(b) < hdrLen+EncapSealLen {
			return nil, ErrTruncated
		}
		h.HasSeal = true
		h.Seal.Tenant = binary.BigEndian.Uint32(b[hdrLen:])
		h.Seal.Nonce = binary.BigEndian.Uint64(b[hdrLen+4:])
		hdrLen += EncapSealLen
	}
	payload = b[hdrLen:]
	// A sealed payload is ciphertext: it carries a SealOverhead tag on
	// top of the inner-frame slice, so bounds-check the plaintext size.
	dataLen := len(payload)
	if h.HasSeal {
		if dataLen < SealOverhead {
			return nil, ErrTruncated
		}
		dataLen -= SealOverhead
	}
	end := uint64(h.offset()) + uint64(dataLen)
	if h.Aggregate {
		// A slice of a record train: never a probe or traced (a traced frame
		// travels alone); the train is no longer than the train cap (its
		// length sizes the reassembly buffer, and nothing has authenticated
		// it) and long enough to hold the frames it claims; the slice is not
		// empty, and it ends the train exactly when nothing follows it.
		count := h.FragOff >> aggCountShift
		if b[3]&(flagProbe|flagProbeReply|flagTrace) != 0 || h.TotalLen > MaxTrainBytes ||
			count == 0 || count > h.TotalLen/aggMinRecord || dataLen == 0 ||
			end > uint64(h.TotalLen) || (end == uint64(h.TotalLen)) == h.MoreFrags {
			return nil, ErrAggregate
		}
		return payload, nil
	}
	// TotalLen sizes the reassembly buffer a first fragment reserves, and
	// nothing has authenticated it: hold it to the largest frame the
	// overlay carries. A datagram that is its whole frame carries all of it.
	if h.TotalLen > ethernet.HeaderLen+ethernet.MaxMTU || end > uint64(h.TotalLen) ||
		(h.Whole() && end != uint64(h.TotalLen)) {
		return nil, ErrFragBounds
	}
	return payload, nil
}

// Encapsulate marshals f and splits it into UDP-payload-sized datagrams,
// each at most maxPayload bytes (header included). It returns the ready
// UDP payloads. maxPayload <= EncapHeaderLen panics: no forward progress
// would be possible.
func Encapsulate(f *ethernet.Frame, id uint32, maxPayload int) ([][]byte, error) {
	if maxPayload <= EncapHeaderLen {
		panic(fmt.Sprintf("bridge: maxPayload %d leaves no room for data", maxPayload))
	}
	inner, err := f.Marshal(nil)
	if err != nil {
		return nil, err
	}
	chunk := maxPayload - EncapHeaderLen
	var out [][]byte
	for off := 0; off < len(inner); off += chunk {
		end := off + chunk
		if end > len(inner) {
			end = len(inner)
		}
		h := EncapHeader{
			ID:        id,
			FragOff:   uint32(off),
			TotalLen:  uint32(len(inner)),
			MoreFrags: end < len(inner),
		}
		buf := make([]byte, 0, EncapHeaderLen+end-off)
		buf = h.Marshal(buf)
		buf = append(buf, inner[off:end]...)
		out = append(out, buf)
	}
	if out == nil { // zero-length inner frame cannot happen (header >= 14) but be safe
		h := EncapHeader{ID: id}
		out = [][]byte{h.Marshal(nil)}
	}
	return out, nil
}

// Encapsulator is a pooling variant of Encapsulate for the hot transmit
// path: the inner-frame marshal scratch, the fragment wire buffers, and
// the datagram slice headers for one frame all live in a single pooled
// EncapPacket, so steady-state encapsulation allocates nothing. The
// zero value is ready to use and safe for concurrent callers.
type Encapsulator struct {
	pool         sync.Pool // *EncapPacket
	hits, misses atomic.Uint64
}

// EncapPacket is one frame's encapsulation: ready-to-send datagrams
// whose backing buffers belong to the Encapsulator's pool. Callers must
// not retain Datagrams (or slices of them) past Release.
type EncapPacket struct {
	Datagrams [][]byte

	owner *Encapsulator
	inner []byte // marshalled inner frame scratch
	wire  []byte // backing storage for every datagram
}

// EncapsulateSealed is the pooled Encapsulate: f split into datagrams of
// at most maxPayload bytes each (header included), every one carrying tr
// when it is non-nil — so the receive node continues the trace under the
// same ID — and sealed by sl (Seal) when that is non-nil. Its header is
// marshalled from an EncapHeader, the one-off equivalent of a link's
// EncapTemplate. The packet must be Released once the transport has
// copied or written every datagram.
func (e *Encapsulator) EncapsulateSealed(f *ethernet.Frame, id uint32, maxPayload int, tr *TraceExt, sl LinkSealer) (*EncapPacket, error) {
	h := EncapHeader{HasTrace: tr != nil, HasSeal: sl != nil}
	if tr != nil {
		h.Trace = *tr
	}
	if sl != nil {
		h.Seal.Tenant = sl.Tenant()
	}
	var buf [EncapHeaderLen + EncapTraceLen + EncapSealLen]byte
	p, err := e.fragment(f, id, maxPayload, h.Marshal(buf[:0]), sl != nil)
	if err == nil && sl != nil {
		p.Seal(sl)
	}
	return p, err
}

// fragment marshals f into a pooled packet and cuts it with the one
// fragment loop (EncapPacket.cut).
func (e *Encapsulator) fragment(f *ethernet.Frame, id uint32, maxPayload int, prefix []byte, sealed bool) (*EncapPacket, error) {
	p, _ := e.pool.Get().(*EncapPacket)
	if p == nil {
		p = &EncapPacket{owner: e}
		e.misses.Add(1)
	} else {
		e.hits.Add(1)
	}
	inner, err := f.Marshal(p.inner[:0])
	if err != nil {
		e.pool.Put(p)
		return nil, err
	}
	p.inner = inner
	p.cut(inner, 0, id, maxPayload, prefix, sealed)
	return p, nil
}

// CutTrain cuts a's record train into p's datagrams of maxPayload bytes,
// only the last one shorter, for a link with template tmpl: the transmit
// path's encoder for every frame that does not travel alone. A sealed
// template's datagrams leave the cut in the clear, to be sealed (Seal)
// by whoever sends them. a must hold at least one frame and no more than
// MaxTrainBytes. p is the caller's — its zero value is ready, and it
// keeps its buffer for the next cut, which overwrites the datagrams; it
// does not alias a.
func (p *EncapPacket) CutTrain(a *Aggregator, id uint32, maxPayload int, tmpl *EncapTemplate) {
	if a.count == 0 || len(a.train) > MaxTrainBytes {
		panic(fmt.Sprintf("bridge: a train of %d frames, %d bytes", a.count, len(a.train)))
	}
	p.cut(a.train, a.count, id, maxPayload, tmpl.prefix, tmpl.sealed)
}

// zeroTag is a sealed datagram's tag room before it is sealed.
var zeroTag [SealOverhead]byte

// cut is the one fragment loop behind every encoder: it splits data — a
// marshalled frame, or (frames > 0) a record train of that many frames —
// into the packet's datagrams of at most maxPayload bytes. Each datagram
// is a copy of prefix — a marshalled header whose per-fragment fields are
// zero — patched at fixed offsets with the moreFrags bit (and for a
// train the aggregate bit), id, fragOff and totalLen, then its slice of
// data. A sealed prefix keeps its zero nonce, and each datagram ends in
// SealOverhead zero bytes of room for the tag: the datagrams are whole
// but in the clear until SealDatagram seals them in place. A maxPayload
// that leaves no room for data panics: no forward progress is possible.
func (p *EncapPacket) cut(data []byte, frames int, id uint32, maxPayload int, prefix []byte, sealed bool) {
	var tagRoom []byte
	if sealed {
		tagRoom = zeroTag[:]
	}
	perFrag := len(prefix) + len(tagRoom)
	chunk := maxPayload - perFrag
	if chunk <= 0 {
		panic(fmt.Sprintf("bridge: maxPayload %d leaves no room for data", maxPayload))
	}
	nfrags := max(1, (len(data)+chunk-1)/chunk)
	flags := byte(0)
	fragOff := uint32(0)
	if frames > 0 {
		flags, fragOff = flagAggregate, uint32(frames)<<aggCountShift
	}
	// One contiguous wire buffer holds every datagram (header, slice, tag
	// room); sizing it up front keeps the datagram sub-slices stable.
	need := len(data) + nfrags*perFrag
	if cap(p.wire) < need {
		p.wire = make([]byte, 0, need)
	}
	wire := p.wire[:0]
	dgs := p.Datagrams[:0]
	for i := 0; i < nfrags; i++ {
		off := i * chunk
		end := min(off+chunk, len(data))
		start := len(wire)
		wire = append(wire, prefix...)
		hdr := wire[start:]
		hdr[tmplFlagsOff] |= flags
		if end < len(data) {
			hdr[tmplFlagsOff] |= flagMoreFrags
		}
		binary.BigEndian.PutUint32(hdr[tmplIDOff:], id)
		binary.BigEndian.PutUint32(hdr[tmplFragOff:], fragOff|uint32(off))
		binary.BigEndian.PutUint32(hdr[tmplTotalLenOff:], uint32(len(data)))
		wire = append(append(wire, data[off:end]...), tagRoom...)
		dgs = append(dgs, wire[start:len(wire):len(wire)])
	}
	p.wire = wire
	p.Datagrams = dgs
}

// Seal seals, in order, every datagram of a packet cut under a sealed
// header (SealDatagram).
func (p *EncapPacket) Seal(sl LinkSealer) {
	for _, d := range p.Datagrams {
		SealDatagram(d, sl)
	}
}

// SealDatagram seals one datagram a sealed cut left in the clear: it
// draws a nonce from sl and writes it at the end of the header — whose
// length the header's own trace flag gives — then encrypts the payload in
// place into the tag room behind it, with the whole header as associated
// data. The link's sender calls it right before it transmits, so the
// nonces a link draws go on the wire in the order they were drawn.
func SealDatagram(d []byte, sl LinkSealer) {
	hdrLen := EncapHeaderLen + EncapSealLen
	if d[tmplFlagsOff]&flagTrace != 0 {
		hdrLen += EncapTraceLen
	}
	nonce := sl.NextNonce()
	binary.BigEndian.PutUint64(d[hdrLen-8:], nonce) // the nonce ends the seal extension
	sl.Seal(nonce, d[:hdrLen], d[hdrLen:len(d)-SealOverhead])
}

// PoolStats reports how many Encapsulate calls were served from the pool
// (hits) versus had to allocate a fresh packet (misses).
func (e *Encapsulator) PoolStats() (hits, misses uint64) {
	return e.hits.Load(), e.misses.Load()
}

// Release returns the packet's buffers to the pool. The packet and its
// datagrams must not be used (or Released again) afterwards.
func (p *EncapPacket) Release() {
	if p.owner == nil {
		return
	}
	p.Datagrams = p.Datagrams[:0]
	p.owner.pool.Put(p)
}

// FragmentCount reports how many datagrams Encapsulate would produce for
// an inner frame of innerLen bytes. Used by the simulated bridge, which
// fragments by size accounting without materializing bytes.
func FragmentCount(innerLen, maxPayload int) int {
	chunk := maxPayload - EncapHeaderLen
	if chunk <= 0 {
		panic("bridge: maxPayload leaves no room for data")
	}
	n := (innerLen + chunk - 1) / chunk
	if n == 0 {
		n = 1
	}
	return n
}

// span is a half-open received byte range [off, end).
type span struct {
	off, end int
}

// partial accumulates the slices of one inner frame or record train.
// Received bytes are tracked as merged ranges, not a raw counter: a
// duplicated fragment must not count twice, or a datagram could
// "complete" with a hole in it.
type partial struct {
	buf     []byte  // nil until a slice arrives (Reject opens a partial without one)
	spans   []span  // disjoint, sorted received ranges
	inOrder [1]span // spans' first backing: in-order fragments never need a second
	total   int
	frames  uint64 // what it stands for: 1 for a frame, its count for a train
	train   bool
	charged bool // its frames are on the caller's ledger already (Reject)
	sawLast bool
	gen     uint64 // the sweep generation that last touched it
}

// addSpan records [off, end) as received, merging overlapping and
// adjacent ranges. Fragments nearly always arrive in order, each one
// starting where the last range ends: that extends it in place. Anything
// else is inserted at its sorted position and merged with its neighbours.
func (p *partial) addSpan(off, end int) {
	if end <= off {
		return
	}
	if n := len(p.spans); n > 0 && off == p.spans[n-1].end {
		p.spans[n-1].end = end
		return
	}
	i := 0
	for i < len(p.spans) && p.spans[i].end < off {
		i++
	}
	j := i
	for ; j < len(p.spans) && p.spans[j].off <= end; j++ {
		off, end = min(off, p.spans[j].off), max(end, p.spans[j].end)
	}
	if i == j { // touches no range: open a slot at i
		p.spans = append(p.spans, span{})
		copy(p.spans[i+1:], p.spans[i:])
	} else { // spans[i:j] collapse into one
		p.spans = append(p.spans[:i+1], p.spans[j:]...)
	}
	p.spans[i] = span{off, end}
}

// complete reports whether every byte of [0, total) has arrived.
func (p *partial) complete() bool {
	return len(p.spans) == 1 && p.spans[0].off == 0 && p.spans[0].end == p.total
}

// Reassembler reconstructs inner Ethernet frames, and record trains,
// from encapsulation fragments. Fragments may arrive in any order;
// packets are keyed by (sender key, id). Stale partial packets are
// evicted by generation sweeps (EvictStale) rather than wall-clock timers
// so the type works in both simulated and real time.
type Reassembler struct {
	partials map[partialKey]*partial
	curGen   uint64

	// Reassembled counts completed frames and trains; Dropped counts
	// evicted partials.
	Reassembled, Dropped uint64
}

// NewReassembler returns an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{partials: make(map[partialKey]*partial)}
}

// partialKey names one inner frame in flight: its sender and packet id.
type partialKey struct {
	sender string
	id     uint32
}

// Add processes one encapsulated datagram from sender. When the datagram
// completes an inner frame, the frame is parsed and returned; otherwise
// (more fragments pending) it returns (nil, nil).
func (r *Reassembler) Add(sender string, datagram []byte) (*ethernet.Frame, error) {
	h, payload, err := ParseEncap(datagram)
	if err != nil {
		return nil, err
	}
	return r.AddParsed(sender, h, payload)
}

// AddParsed is Add for a datagram the caller already split with
// ParseEncap (the overlay parses first to intercept probe datagrams).
func (r *Reassembler) AddParsed(sender string, h *EncapHeader, payload []byte) (*ethernet.Frame, error) {
	if h.Aggregate {
		return nil, ErrAggregate // a slice of a record train: AddSlice's to complete, WalkAggregate's to split
	}
	// Fast path: unfragmented packet.
	if h.Whole() {
		if len(payload) != int(h.TotalLen) {
			return nil, ErrFragBounds
		}
		return ethernet.Unmarshal(payload)
	}
	b, err := r.AddSlice(sender, h, payload)
	if b == nil || err != nil {
		return nil, err
	}
	return ethernet.Unmarshal(b)
}

// AddSlice adds one slice of a frame or of a record train, as ParseEncap
// split it, and returns the marshalled frame or the train — a buffer of
// exactly TotalLen bytes that is the caller's — once every byte of it has
// arrived; until then it returns nil.
func (r *Reassembler) AddSlice(sender string, h *EncapHeader, payload []byte) ([]byte, error) {
	k := partialKey{sender, h.ID}
	p := r.open(k, h)
	if p.total != int(h.TotalLen) || p.frames != h.Frames() || p.train != h.Aggregate {
		delete(r.partials, k)
		return nil, ErrFragBounds
	}
	if p.buf == nil {
		p.buf = make([]byte, p.total)
	}
	off := int(h.offset())
	copy(p.buf[off:], payload)
	p.addSpan(off, off+len(payload))
	if !h.MoreFrags {
		p.sawLast = true
	}
	if p.sawLast && p.complete() {
		delete(r.partials, k)
		r.Reassembled++
		return p.buf, nil
	}
	return nil, nil
}

// open finds the partial k names, or opens one shaped by h, and marks it
// touched in this sweep generation.
func (r *Reassembler) open(k partialKey, h *EncapHeader) *partial {
	p := r.partials[k]
	if p == nil {
		p = &partial{total: int(h.TotalLen), frames: h.Frames(), train: h.Aggregate}
		p.spans = p.inOrder[:0]
		r.partials[k] = p
	}
	p.gen = r.curGen
	return p
}

// Reject records that a slice of the frame or train h names was refused
// before reassembly — its seal did not open — and reports whether the
// frames that frame or train stands for are still to be charged: the
// first refused slice charges them; a later refused slice, and the sweep
// that evicts the slices that did arrive, do not. A whole datagram has no
// partial and is always charged.
func (r *Reassembler) Reject(sender string, h *EncapHeader) bool {
	if h.Whole() {
		return true
	}
	p := r.open(partialKey{sender, h.ID}, h)
	charge := !p.charged
	p.charged = true
	return charge
}

// EvictStale drops partial packets not touched since the previous call
// and reports the frames they stood for that no Reject has charged: one
// for a frame, its count for a train. Call it periodically (e.g. once per
// second of real or simulated time).
func (r *Reassembler) EvictStale() int {
	frames := 0
	for k, p := range r.partials {
		if p.gen < r.curGen {
			delete(r.partials, k)
			r.Dropped++
			if !p.charged {
				frames += int(p.frames)
			}
		}
	}
	r.curGen++
	return frames
}

// Pending reports the number of partially reassembled packets.
func (r *Reassembler) Pending() int { return len(r.partials) }
