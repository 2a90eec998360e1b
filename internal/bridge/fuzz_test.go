package bridge

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"vnetp/internal/ethernet"
)

// FuzzEncapDecode throws arbitrary bytes at the wire-format decoder and
// pins the codec's safety contract: ParseEncap never panics, v1
// datagrams (the pre-widening format) are rejected with exactly
// ErrBadVersion, a clean v2 header survives a marshal round-trip
// (aggregate flag included), an accepted aggregate header is one the
// sender could have written (not a fragment, probe or traced; count >= 1
// and small enough for its train; train length exact), and any payload
// the decoder accepts also survives a full encapsulate → reassemble
// cycle (both the allocating and the pooled encoder).
func FuzzEncapDecode(f *testing.F) {
	seed := &ethernet.Frame{
		Dst: ethernet.LocalMAC(1), Src: ethernet.LocalMAC(2),
		Type: ethernet.TypeTest, Payload: []byte("seed corpus payload"),
	}
	if dgs, err := Encapsulate(seed, 7, 32); err == nil {
		for _, d := range dgs {
			f.Add(d)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x56, 0x4e, 0x01, 0x00}) // v1, truncated
	// Aggregates: well formed, then each rejected shape — fragment flag,
	// probe flag, count 0, train length off by one.
	agg := aggregateOf(f, seed, seed)
	f.Add(agg)
	for _, mutate := range []func(d []byte){
		func(d []byte) { d[3] |= flagMoreFrags },
		func(d []byte) { d[3] |= flagProbe },
		func(d []byte) { d[11] = 0 },
		func(d []byte) { d[15]++ },
	} {
		bad := append([]byte(nil), agg...)
		mutate(bad)
		if _, _, err := ParseEncap(bad); !errors.Is(err, ErrAggregate) {
			f.Fatalf("malformed aggregate header % x: got %v, want ErrAggregate", bad[:EncapHeaderLen], err)
		}
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		h, payload, err := ParseEncap(data) // must never panic
		if err != nil {
			if len(data) >= EncapHeaderLen && data[0] == 0x56 && data[1] == 0x4e && data[2] == 1 {
				if !errors.Is(err, ErrBadVersion) {
					t.Fatalf("v1 datagram: got %v, want ErrBadVersion", err)
				}
			}
			return
		}
		// Accepted datagram: re-marshalling the parsed header must
		// reproduce the wire header — trace extension included — whenever
		// no unknown flag bits were set (Marshal cannot represent unknown
		// bits).
		if data[3]&^(flagMoreFrags|flagProbe|flagProbeReply|flagTrace|flagSealed|flagAggregate) == 0 {
			if re := h.Marshal(nil); !bytes.Equal(re, data[:h.WireLen()]) {
				t.Fatalf("header round-trip: % x != % x", re, data[:h.WireLen()])
			}
		}
		if h.Aggregate {
			train := len(payload)
			if h.HasSeal {
				train -= SealOverhead
			}
			if h.MoreFrags || h.Probe || h.ProbeReply || h.HasTrace || h.FragOff == 0 ||
				int(h.TotalLen) != train || int(h.FragOff) > train/aggMinRecord {
				t.Fatalf("accepted an aggregate no sender writes: %+v over %d train bytes", h, train)
			}
		} else if h.TotalLen > ethernet.HeaderLen+ethernet.MaxMTU {
			// TotalLen is what a first fragment makes the reassembler reserve.
			t.Fatalf("accepted a %d-byte frame: no overlay MTU carries it", h.TotalLen)
		}

		// Encode side: treat the accepted payload as an inner-frame
		// payload and require encapsulate → reassemble identity at a
		// fuzz-chosen fragment size, through both encoders.
		if len(payload) == 0 || len(payload) > ethernet.MaxMTU {
			return
		}
		inner := &ethernet.Frame{
			Dst: ethernet.LocalMAC(3), Src: ethernet.LocalMAC(4),
			Type: ethernet.TypeTest, Payload: payload,
		}
		maxPayload := EncapHeaderLen + 1 + int(h.ID%512)
		dgs, err := Encapsulate(inner, h.ID, maxPayload)
		if err != nil {
			t.Fatal(err)
		}
		var enc Encapsulator
		pkt, err := enc.Encapsulate(inner, h.ID, maxPayload)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkt.Datagrams) != len(dgs) {
			t.Fatalf("pooled encoder produced %d datagrams, allocating produced %d",
				len(pkt.Datagrams), len(dgs))
		}
		for i := range dgs {
			if !bytes.Equal(pkt.Datagrams[i], dgs[i]) {
				t.Fatalf("pooled datagram %d differs from allocating encoder's", i)
			}
		}
		pkt.Release()
		r := NewReassembler()
		var got *ethernet.Frame
		for _, d := range dgs {
			out, err := r.Add("fuzz", d)
			if err != nil {
				t.Fatalf("own fragment rejected: %v", err)
			}
			if out != nil {
				got = out
			}
		}
		if got == nil {
			t.Fatal("complete fragment set did not reassemble")
		}
		if !bytes.Equal(got.Payload, payload) || got.Dst != inner.Dst || got.Src != inner.Src {
			t.Fatal("reassembled frame differs from input")
		}
		if r.Pending() != 0 {
			t.Fatalf("%d partials leaked after completion", r.Pending())
		}
	})
}

// FuzzReassembler drives the reassembler with a fuzz-chosen feed order
// over one fragmented packet — duplicates, arbitrary order, and
// synthetic overlapping fragments — and pins the span-accounting
// invariants: a packet completes only once every byte has genuinely
// arrived (duplicates never double-count toward completion), the
// reassembled bytes equal the original, and eviction leaves no partial
// state behind.
func FuzzReassembler(f *testing.F) {
	f.Add([]byte("some payload long enough to fragment several times over"), []byte{3, 0, 1, 0x87, 2, 2, 5})
	f.Add([]byte("x"), []byte{0})
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz"), []byte{0x90, 1, 1, 0, 2})
	f.Fuzz(func(t *testing.T, payload, script []byte) {
		if len(payload) == 0 || len(payload) > 4096 {
			return
		}
		inner := &ethernet.Frame{
			Dst: ethernet.LocalMAC(5), Src: ethernet.LocalMAC(6),
			Type: ethernet.TypeTest, Payload: payload,
		}
		innerBytes, err := inner.Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		chunk := 1 + len(payload)/4 // forces >= 2 fragments for multi-byte payloads
		dgs, err := Encapsulate(inner, 42, EncapHeaderLen+chunk)
		if err != nil {
			t.Fatal(err)
		}

		r := NewReassembler()
		covered := make([]bool, len(innerBytes))
		sawLast := false
		allCovered := func() bool {
			for _, c := range covered {
				if !c {
					return false
				}
			}
			return true
		}
		feed := func(d []byte, off, end int, last bool) *ethernet.Frame {
			t.Helper()
			out, err := r.Add("s", d)
			if err != nil {
				t.Fatalf("well-formed fragment rejected: %v", err)
			}
			for i := off; i < end; i++ {
				covered[i] = true
			}
			if last {
				sawLast = true
			}
			if out != nil {
				// The core double-count invariant: completion implies the
				// spans truly cover the packet and the tail was seen.
				if !allCovered() || !sawLast {
					t.Fatal("completed with a hole (duplicate or overlap double-counted)")
				}
				if !bytes.Equal(out.Payload, payload) {
					t.Fatal("reassembled payload differs")
				}
			}
			return out
		}
		fragRange := func(idx int) (off, end int, last bool) {
			off = idx * chunk
			end = off + chunk
			if end > len(innerBytes) {
				end = len(innerBytes)
			}
			return off, end, idx == len(dgs)-1
		}

		var done *ethernet.Frame
		for _, b := range script {
			if done != nil {
				break
			}
			if b&0x80 != 0 && len(innerBytes) > 1 {
				// Synthetic overlapping fragment: correct bytes at an
				// offset straddling fragment boundaries, never the last.
				off := int(b&0x7f) % (len(innerBytes) - 1)
				end := off + chunk
				if end > len(innerBytes) {
					end = len(innerBytes)
				}
				h := EncapHeader{ID: 42, FragOff: uint32(off),
					TotalLen: uint32(len(innerBytes)), MoreFrags: true}
				done = feed(append(h.Marshal(nil), innerBytes[off:end]...), off, end, false)
				continue
			}
			idx := int(b) % len(dgs)
			off, end, last := fragRange(idx)
			done = feed(dgs[idx], off, end, last)
		}
		// Top up with every fragment in order: the packet must complete.
		for idx := 0; done == nil && idx < len(dgs); idx++ {
			off, end, last := fragRange(idx)
			done = feed(dgs[idx], off, end, last)
		}
		if done == nil {
			t.Fatal("full fragment set never completed")
		}
		if r.Reassembled == 0 {
			t.Fatal("Reassembled counter not incremented")
		}
		// Leak check: any partial state left behind (e.g. a post-
		// completion duplicate re-opening the key) must age out in two
		// generation sweeps and leave the table empty.
		if len(dgs) > 1 {
			feedStale, _ := r.Add("s", dgs[0])
			if feedStale != nil && len(dgs) > 1 {
				t.Fatal("lone stale fragment completed a packet")
			}
		}
		r.EvictStale()
		r.EvictStale()
		if r.Pending() != 0 {
			t.Fatalf("%d partials leaked past eviction", r.Pending())
		}
	})
}

// aggregateOf packs frames into one plaintext aggregate datagram.
func aggregateOf(t testing.TB, frames ...*ethernet.Frame) []byte {
	t.Helper()
	var agg Aggregator
	var ids atomic.Uint32
	agg.Reset(NewEncapTemplate(nil), nil, 1400)
	for i, f := range frames {
		if fit, err := agg.Add(f, &ids); !fit || err != nil {
			t.Fatalf("frame %d: fit=%v err=%v", i, fit, err)
		}
	}
	d, _ := agg.Close()
	return append([]byte(nil), d...)
}

// FuzzAggregate drives the aggregate record walker with arbitrary trains
// and counts, and the encoder with fuzz-cut frames. The walker never
// panics; it yields records only from a train it accepted whole, and
// then exactly count of them, each at least an Ethernet header, tiling
// the train with their length prefixes and nothing left over. A train
// the Aggregator built — across however many datagrams the cut needs —
// parses, walks, and unmarshals back to the frames that went in, in
// order.
func FuzzAggregate(f *testing.F) {
	record := func(n int) []byte {
		return append([]byte{byte(n >> 8), byte(n)}, bytes.Repeat([]byte{0xee}, n)...)
	}
	two := append(record(14), record(30)...)
	f.Add(two, uint32(2), byte(20))                              // well formed
	f.Add(two[:len(two)-1], uint32(2), byte(20))                 // last record truncated
	f.Add(append(two, 0x00), uint32(2), byte(0))                 // truncated length prefix
	f.Add(append(record(14), record(13)...), uint32(2), byte(1)) // record shorter than an Ethernet header
	f.Add(two, uint32(3), byte(7))                               // count != records
	f.Add(append(two, record(14)...), uint32(2), byte(7))        // trailing bytes past count records
	f.Add(append(record(14), 0, 0), uint32(2), byte(7))          // zero-length record
	f.Add([]byte{}, uint32(0), byte(3))
	f.Fuzz(func(t *testing.T, train []byte, count uint32, cut byte) {
		var got [][]byte
		err := WalkAggregate(train, count, func(rec []byte) { got = append(got, rec) })
		if err != nil {
			if len(got) != 0 {
				t.Fatalf("rejected train yielded %d records", len(got))
			}
		} else {
			if uint32(len(got)) != count {
				t.Fatalf("accepted train yielded %d records for count %d", len(got), count)
			}
			var tiled []byte
			for _, rec := range got {
				if len(rec) < ethernet.HeaderLen {
					t.Fatalf("yielded a %d-byte record", len(rec))
				}
				tiled = append(append(tiled, byte(len(rec)>>8), byte(len(rec))), rec...)
			}
			if !bytes.Equal(tiled, train) {
				t.Fatal("records do not tile the train")
			}
		}

		// Encode side: cut the input into payloads of 1..cut+1 bytes, pack
		// them under a small budget so the stream spills over several
		// aggregates, and walk every datagram back.
		var frames []*ethernet.Frame
		for rest := train; len(rest) > 0 && len(frames) < 64; {
			n := min(len(rest), int(cut)+1)
			frames = append(frames, &ethernet.Frame{Dst: ethernet.LocalMAC(7), Src: ethernet.LocalMAC(uint32(len(frames))),
				Type: ethernet.TypeTest, Payload: rest[:n]})
			rest = rest[n:]
		}
		var agg Aggregator
		var ids atomic.Uint32
		agg.Reset(NewEncapTemplate(nil), nil, 512)
		var datagrams [][]byte
		for _, fr := range frames {
			fit, err := agg.Add(fr, &ids)
			if !fit && err == nil && agg.Open() {
				d, _ := agg.Close()
				datagrams = append(datagrams, d)
				fit, err = agg.Add(fr, &ids)
			}
			if !fit || err != nil {
				t.Fatalf("a %d-byte payload does not fit an empty 512-byte aggregate: fit=%v err=%v", len(fr.Payload), fit, err)
			}
		}
		if agg.Open() {
			d, _ := agg.Close()
			datagrams = append(datagrams, d)
		}
		next := 0
		for _, d := range datagrams {
			if len(d) > 512 {
				t.Fatalf("aggregate of %d bytes over a 512-byte budget", len(d))
			}
			h, payload, err := ParseEncap(d)
			if err != nil || !h.Aggregate {
				t.Fatalf("own aggregate does not parse: %v", err)
			}
			err = WalkAggregate(payload, h.FragOff, func(rec []byte) {
				fr, err := ethernet.Unmarshal(rec)
				if err != nil || next >= len(frames) {
					t.Fatalf("record %d: %v", next, err)
				}
				if want := frames[next]; fr.Src != want.Src || fr.Dst != want.Dst || !bytes.Equal(fr.Payload, want.Payload) {
					t.Fatalf("record %d differs from the frame packed", next)
				}
				next++
			})
			if err != nil {
				t.Fatalf("own aggregate does not walk: %v", err)
			}
		}
		if next != len(frames) {
			t.Fatalf("%d of %d frames came back", next, len(frames))
		}
	})
}
