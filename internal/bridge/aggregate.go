package bridge

import (
	"encoding/binary"
	"slices"
	"sync/atomic"

	"vnetp/internal/ethernet"
)

// Aggregate datagrams: the batched sender's wire format for frames small
// enough to share a datagram. The kernel's per-datagram cost — not the
// syscall, which sendmmsg already divides — dominates a small-frame
// stream, so a batch's frames travel in as few datagrams as the link's
// budget allows. After the header (aggregate flag set, fragOff = frame
// count, totalLen = train length) comes a train of records,
//
//	len(2) | marshalled inner frame
//
// in ring order. On a sealed link the whole train is one AEAD seal under
// one nonce, the full wire header as associated data. An aggregate is
// never fragmented and never traced; a frame that is either travels in
// datagrams of its own (EncapsulateSealed / EncapsulateTemplate).

// aggRecordHdr is the per-record length prefix; aggMinRecord the shortest
// well-formed record, a bare Ethernet header.
const (
	aggRecordHdr = 2
	aggMinRecord = aggRecordHdr + ethernet.HeaderLen
)

// aggFrames clamps an aggregate's claimed frame count to [1, what room
// payload bytes could hold].
func aggFrames(count uint32, room int) uint64 {
	if most := uint64(room / aggMinRecord); uint64(count) > most {
		count = uint32(most)
	}
	if count == 0 {
		return 1
	}
	return uint64(count)
}

// Aggregator packs one batch's frames into aggregate datagrams for one
// link. It keeps its wire buffer across batches, so a long-lived sender
// allocates nothing per batch. Not safe for concurrent use. A datagram
// returned by Close aliases the buffer and is valid until the next Reset.
type Aggregator struct {
	tmpl *EncapTemplate
	sl   LinkSealer
	room int // datagram budget left for header + train (seal tag set aside)
	wire []byte

	start int // offset of the open aggregate's header in wire
	count int // frames in the open aggregate; 0 = none open
}

// Reset starts a batch for a link: tmpl and sl as for EncapsulateTemplate,
// maxPayload the link's datagram budget.
func (a *Aggregator) Reset(tmpl *EncapTemplate, sl LinkSealer, maxPayload int) {
	if tmpl.sealed != (sl != nil) {
		panic("bridge: template/sealer mismatch")
	}
	a.tmpl, a.sl, a.room = tmpl, sl, maxPayload
	if tmpl.sealed {
		a.room -= SealOverhead
	}
	a.wire, a.count = a.wire[:0], 0
}

// Open reports whether an aggregate is under construction.
func (a *Aggregator) Open() bool { return a.count > 0 }

// Add packs f behind the frames of the open aggregate, opening one under
// the next id from ids when none is. fit is false, and nothing changed,
// when f's record does not fit the budget: with an aggregate open the
// caller Closes it and Adds again; with none open f fits no aggregate at
// all and must be fragmented. An error is f's own (it cannot be
// marshalled) and changes nothing either.
func (a *Aggregator) Add(f *ethernet.Frame, ids *atomic.Uint32) (fit bool, err error) {
	used := len(a.tmpl.prefix)
	if a.count > 0 {
		used = len(a.wire) - a.start
	}
	if used+aggRecordHdr+f.Len() > a.room || f.Len() > 0xffff {
		return false, nil
	}
	mark := len(a.wire)
	wire := a.wire
	if a.count == 0 {
		wire = append(wire, a.tmpl.prefix...)
		wire[mark+tmplFlagsOff] |= flagAggregate
	}
	wire, err = f.Marshal(binary.BigEndian.AppendUint16(wire, uint16(f.Len())))
	if err != nil {
		return false, err
	}
	if a.count == 0 {
		a.start = mark
		binary.BigEndian.PutUint32(wire[mark+tmplIDOff:], ids.Add(1))
	}
	a.wire = wire
	a.count++
	return true, nil
}

// Close finishes the open aggregate — frame count, train length, and on
// a sealed link the nonce and the in-place seal of the whole train — and
// returns the datagram and how many frames it carries.
func (a *Aggregator) Close() (datagram []byte, frames int) {
	train := a.start + len(a.tmpl.prefix)
	hdr := a.wire[a.start:train]
	binary.BigEndian.PutUint32(hdr[tmplFragOff:], uint32(a.count))
	binary.BigEndian.PutUint32(hdr[tmplTotalLenOff:], uint32(len(a.wire)-train))
	if a.tmpl.sealed {
		nonce := a.sl.NextNonce()
		binary.BigEndian.PutUint64(hdr[tmplNonceOff:], nonce)
		// Room for the tag first, so Seal encrypts in place; growing may
		// move the buffer, so the header is re-cut from a.wire.
		a.wire = slices.Grow(a.wire, SealOverhead)
		ct := a.sl.Seal(nonce, a.wire[a.start:train], a.wire[train:])
		a.wire = a.wire[:train+len(ct)]
	}
	frames, a.count = a.count, 0
	return a.wire[a.start:len(a.wire):len(a.wire)], frames
}

// WalkAggregate checks an aggregate's whole record train — every length
// prefix present and in bounds, every record at least an Ethernet
// header, exactly count records, no trailing bytes — and only then calls
// fn with each record, in order. A malformed train yields ErrAggregate
// and no call: the receiver delivers all of a datagram's frames or none.
func WalkAggregate(train []byte, count uint32, fn func(record []byte)) error {
	records := uint32(0)
	for rest := train; len(rest) > 0; records++ {
		if len(rest) < aggRecordHdr {
			return ErrAggregate
		}
		n := int(binary.BigEndian.Uint16(rest))
		if n < ethernet.HeaderLen || n > len(rest)-aggRecordHdr {
			return ErrAggregate
		}
		rest = rest[aggRecordHdr+n:]
	}
	if records != count {
		return ErrAggregate
	}
	for rest := train; len(rest) > 0; {
		n := int(binary.BigEndian.Uint16(rest))
		fn(rest[aggRecordHdr : aggRecordHdr+n])
		rest = rest[aggRecordHdr+n:]
	}
	return nil
}
