package bridge

import (
	"encoding/binary"

	"vnetp/internal/ethernet"
)

// Record trains: the transmit path's wire format for a batch. The
// kernel's per-datagram walk through its UDP/IP stack — not the syscall,
// which sendmmsg already divides — dominates a small-frame stream, and a
// UDP_SEGMENT message pays that walk once for up to MaxTrainSegments
// datagrams of one size. So a batch's frames are laid end to end as one
// train of records,
//
//	len(2) | marshalled inner frame
//
// in add order, and the one fragment loop (EncapPacket.CutTrain) cuts
// the train into datagrams of exactly the link's budget, only the last
// one shorter, as it cuts a frame. Each datagram's header carries the
// aggregate flag, the train id, fragOff = count<<16 | the slice's byte
// offset, totalLen = the train's length and more-follows. On a sealed
// link the cut leaves each datagram in the clear with room for its tag,
// and the link's sender seals each under a nonce of its own right before
// it sends it (SealDatagram), like a fragment. A lone frame is a train of
// one record in one datagram. A traced frame, and a frame whose record
// does not fit one train, travel alone (EncapsulateFor). The receiver reassembles a
// train's slices like a frame's fragments and walks the completed train
// (WalkAggregate); a train of one datagram needs no reassembly.

// aggRecordHdr is the per-record length prefix; aggMinRecord the shortest
// well-formed record, a bare Ethernet header.
const (
	aggRecordHdr = 2
	aggMinRecord = aggRecordHdr + ethernet.HeaderLen
)

// A train's fragOff: its frame count above the slice's byte offset. A
// train is at most MaxTrainBytes long, so the offset fits 16 bits.
const (
	aggCountShift = 16
	aggOffMask    = 1<<aggCountShift - 1
)

// The limits of one UDP_SEGMENT message (linux/udp.h UDP_MAX_SEGMENTS,
// and one IP datagram's worth of bytes less room for the IP and UDP
// headers), which a train is cut to fit. MaxTrainBytes is also the wire
// format's cap on a train's length, so a slice's header can reserve no
// more than that at the receiver.
const (
	MaxTrainSegments = 64
	MaxTrainBytes    = 65000
)

// aggFrames clamps a train's claimed frame count to [1, what a train of
// its claimed length, held to the train cap, could hold].
func aggFrames(count, trainLen uint32) uint64 {
	if most := min(trainLen, MaxTrainBytes) / aggMinRecord; count > most {
		count = most
	}
	return max(uint64(count), 1)
}

// RecordLen reports the bytes f adds to a train.
func RecordLen(f *ethernet.Frame) int { return aggRecordHdr + f.Len() }

// Aggregator builds one record train. It keeps its buffer across trains,
// so a long-lived sender allocates nothing per batch. Not safe for
// concurrent use.
type Aggregator struct {
	train []byte
	count int
}

// Reset empties the train.
func (a *Aggregator) Reset() { a.train, a.count = a.train[:0], 0 }

// Len reports the train's length in bytes.
func (a *Aggregator) Len() int { return len(a.train) }

// Count reports how many frames the train holds.
func (a *Aggregator) Count() int { return a.count }

// Add appends f's record. An error is f's own (it cannot be marshalled,
// or is longer than a record's length prefix can state) and leaves the
// train as it was.
func (a *Aggregator) Add(f *ethernet.Frame) error {
	if f.Len() > 0xffff {
		return ErrRecordTooLong
	}
	train, err := f.Marshal(binary.BigEndian.AppendUint16(a.train, uint16(f.Len())))
	if err != nil {
		return err
	}
	a.train = train
	a.count++
	return nil
}

// TrainRoom reports the longest record train a link with this template
// sends as one UDP_SEGMENT message: cut into datagrams of maxPayload
// bytes (header and, when sealed, the AEAD tag included), it stays
// within MaxTrainSegments datagrams and MaxTrainBytes bytes.
func (t *EncapTemplate) TrainRoom(maxPayload int) int {
	overhead := len(t.prefix)
	if t.sealed {
		overhead += SealOverhead
	}
	full := min(MaxTrainSegments, MaxTrainBytes/maxPayload)
	room := full * (maxPayload - overhead)
	if left := MaxTrainBytes - full*maxPayload; full < MaxTrainSegments && left > overhead {
		room += left - overhead
	}
	return room
}

// WalkAggregate checks a completed record train — every length prefix
// present and in bounds, every record at least an Ethernet header,
// exactly count records, no trailing bytes — and only then calls fn with
// each record, in order. A malformed train yields ErrAggregate and no
// call: the receiver delivers all of a train's frames or none.
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
