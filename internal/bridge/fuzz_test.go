package bridge

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"vnetp/internal/ethernet"
)

// FuzzEncapDecode throws arbitrary bytes at the wire-format decoder and
// pins the codec's safety contract: ParseEncap never panics, v1
// datagrams (the pre-widening format) are rejected with exactly
// ErrBadVersion, a clean v2 header survives a marshal round-trip
// (aggregate flag included), an accepted train slice is one a sender
// could have written (not a probe or traced; count >= 1 and small enough
// for its train; the train within the train cap; a non-empty slice that
// ends the train exactly when nothing follows it) and makes the
// reassembler reserve no more than the train cap, and any payload the
// decoder accepts also survives a full encapsulate → reassemble cycle
// (both the allocating and the pooled encoder, and as two records of a
// train).
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
	// A whole frame one byte short of the length it claims.
	if dgs, err := Encapsulate(seed, 8, 1400); err == nil {
		short := dgs[0][:len(dgs[0])-1]
		if _, _, err := ParseEncap(short); !errors.Is(err, ErrFragBounds) {
			f.Fatalf("whole frame short of its length: got %v, want ErrFragBounds", err)
		}
		f.Add(short)
	}
	// Train slices: well formed, then each rejected shape.
	train := trainOf(f, 3, nil, 64, seed, seed, seed)
	for _, d := range train {
		f.Add(d)
	}
	first, last := train[0], train[len(train)-1]
	trainLen := binary.BigEndian.Uint32(first[12:])
	for _, bad := range []struct {
		what   string
		d      []byte
		mutate func(d []byte)
	}{
		{"more follows the end of the train", last, func(d []byte) { d[3] |= flagMoreFrags }},
		{"nothing follows a slice short of the end", first, func(d []byte) { d[3] &^= flagMoreFrags }},
		{"probe flag", first, func(d []byte) { d[3] |= flagProbe }},
		{"trace flag", first, func(d []byte) { d[3] |= flagTrace }},
		{"count 0", first, func(d []byte) { d[8], d[9] = 0, 0 }},
		{"more frames than the train could hold", first, func(d []byte) { d[8], d[9] = 0xff, 0xff }},
		{"train over the cap", first, func(d []byte) { binary.BigEndian.PutUint32(d[12:], MaxTrainBytes+1) }},
		{"last slice short of the train", last, func(d []byte) { binary.BigEndian.PutUint32(d[12:], trainLen+1) }},
		{"slice past the train", first, func(d []byte) { binary.BigEndian.PutUint16(d[10:], uint16(trainLen)) }},
		{"empty slice", first[:EncapHeaderLen], func([]byte) {}},
	} {
		d := append([]byte(nil), bad.d...)
		bad.mutate(d)
		if _, _, err := ParseEncap(d); !errors.Is(err, ErrAggregate) {
			f.Fatalf("%s: header % x: got %v, want ErrAggregate", bad.what, d[:EncapHeaderLen], err)
		}
		f.Add(d)
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
		dataLen := len(payload)
		if h.HasSeal {
			dataLen -= SealOverhead
		}
		end := uint64(h.offset()) + uint64(dataLen)
		switch {
		case h.Aggregate:
			count := h.FragOff >> aggCountShift
			if h.Probe || h.ProbeReply || h.HasTrace || count == 0 || h.TotalLen > MaxTrainBytes ||
				count > h.TotalLen/aggMinRecord || dataLen == 0 || end > uint64(h.TotalLen) || (end == uint64(h.TotalLen)) == h.MoreFrags {
				t.Fatalf("accepted a train slice no sender writes: %+v, %d bytes", h, dataLen)
			}
			if !h.HasSeal {
				r := NewReassembler()
				if _, err := r.AddSlice("fuzz", h, payload); err != nil {
					t.Fatalf("accepted slice refused by a fresh reassembler: %v", err)
				}
				for _, p := range r.partials {
					if len(p.buf) > MaxTrainBytes {
						t.Fatalf("one slice reserved %d bytes, over the %d B train cap", len(p.buf), MaxTrainBytes)
					}
				}
			}
		case h.TotalLen > ethernet.HeaderLen+ethernet.MaxMTU:
			// TotalLen is what a first fragment makes the reassembler reserve.
			t.Fatalf("accepted a %d-byte frame: no overlay MTU carries it", h.TotalLen)
		case h.Whole() && end != uint64(h.TotalLen):
			t.Fatalf("accepted a whole frame of %d bytes that claims %d", end, h.TotalLen)
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
		pkt, err := enc.EncapsulateSealed(inner, h.ID, maxPayload, nil, nil)
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

		// And as two records of a train, cut at a fuzz-chosen size.
		if len(payload) > 1024 {
			return
		}
		var walked int
		var done []byte
		for _, d := range trainOf(t, h.ID, nil, EncapHeaderLen+16+int(h.ID%512), inner, inner) {
			th, slice, err := ParseEncap(d)
			if err != nil {
				t.Fatalf("own train slice rejected: %v", err)
			}
			if done, err = r.AddSlice("fuzz", th, slice); err != nil {
				t.Fatalf("own train slice refused: %v", err)
			}
		}
		err = WalkAggregate(done, 2, func(rec []byte) {
			f, err := ethernet.Unmarshal(rec)
			if err != nil || !bytes.Equal(f.Payload, payload) || f.Dst != inner.Dst {
				t.Fatalf("train record %d differs from input: %v", walked, err)
			}
			walked++
		})
		if err != nil || walked != 2 || r.Pending() != 0 {
			t.Fatalf("train of two: walk %v, %d records, %d partials left", err, walked, r.Pending())
		}
	})
}

// FuzzReassembler drives the reassembler with a fuzz-chosen feed order
// over one fragmented packet — a frame, or (frames > 0) a record train
// of up to eight cut from the payload — with duplicates, arbitrary order,
// and synthetic overlapping slices, and pins the span-accounting
// invariants: a packet completes only once every byte has genuinely
// arrived (duplicates never double-count toward completion), the
// completed bytes equal the original (a train walks back to its frames),
// no partial reserves more than the largest packet of its kind, and
// eviction leaves no partial state behind, charging the frames the
// packet stood for.
func FuzzReassembler(f *testing.F) {
	f.Add([]byte("some payload long enough to fragment several times over"), []byte{3, 0, 1, 0x87, 2, 2, 5}, byte(0))
	f.Add([]byte("x"), []byte{0}, byte(0))
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz"), []byte{0x90, 1, 1, 0, 2}, byte(0))
	f.Add([]byte("some payload long enough to fragment several times over"), []byte{4, 0x83, 1, 3, 0, 2, 2}, byte(3))
	f.Add([]byte("abcdefghijklmnopqrstuvwxyz0123456789"), []byte{0x85, 2, 0, 1, 1, 4, 3}, byte(7))
	f.Fuzz(func(t *testing.T, payload, script []byte, frames byte) {
		if len(payload) == 0 || len(payload) > 4096 {
			return
		}
		frame := func(p []byte) *ethernet.Frame {
			return &ethernet.Frame{Dst: ethernet.LocalMAC(5), Src: ethernet.LocalMAC(6), Type: ethernet.TypeTest, Payload: p}
		}
		train := frames > 0
		var in []*ethernet.Frame // what the packet carries
		var data []byte          // the packet: a marshalled frame, or a train
		var dgs [][]byte
		chunk := 1 + len(payload)/4 // forces >= 2 fragments for multi-byte payloads
		largest := ethernet.HeaderLen + ethernet.MaxMTU
		if train {
			parts := min(int(frames%8)+1, len(payload))
			var agg Aggregator
			for i := 0; i < parts; i++ {
				in = append(in, frame(payload[i*len(payload)/parts:(i+1)*len(payload)/parts]))
				if err := agg.Add(in[i]); err != nil {
					t.Fatal(err)
				}
			}
			data = append([]byte(nil), agg.train...)
			dgs = trainOf(t, 42, nil, EncapHeaderLen+chunk, in...)
			largest = MaxTrainBytes
		} else {
			in = []*ethernet.Frame{frame(payload)}
			var err error
			if data, err = in[0].Marshal(nil); err != nil {
				t.Fatal(err)
			}
			if dgs, err = Encapsulate(in[0], 42, EncapHeaderLen+chunk); err != nil {
				t.Fatal(err)
			}
		}
		fragOff := uint32(len(in)) << aggCountShift
		if !train {
			fragOff = 0
		}

		r := NewReassembler()
		covered := make([]bool, len(data))
		sawLast := false
		allCovered := func() bool {
			for _, c := range covered {
				if !c {
					return false
				}
			}
			return true
		}
		feed := func(d []byte, off, end int, last bool) bool {
			t.Helper()
			h, slice, err := ParseEncap(d)
			if err != nil {
				t.Fatalf("well-formed slice rejected: %v", err)
			}
			out, err := r.AddSlice("s", h, slice)
			if err != nil {
				t.Fatalf("well-formed slice refused: %v", err)
			}
			for _, p := range r.partials {
				if len(p.buf) > largest {
					t.Fatalf("a partial reserved %d bytes, over the %d B cap", len(p.buf), largest)
				}
			}
			for i := off; i < end; i++ {
				covered[i] = true
			}
			if last {
				sawLast = true
			}
			if out == nil {
				return false
			}
			// The core double-count invariant: completion implies the
			// spans truly cover the packet and the tail was seen.
			if !allCovered() || !sawLast {
				t.Fatal("completed with a hole (duplicate or overlap double-counted)")
			}
			if !bytes.Equal(out, data) {
				t.Fatal("completed bytes differ from the packet")
			}
			if train {
				i := 0
				if err := WalkAggregate(out, uint32(len(in)), func(rec []byte) {
					f, err := ethernet.Unmarshal(rec)
					if err != nil || !bytes.Equal(f.Payload, in[i].Payload) {
						t.Fatalf("record %d differs from the frame packed", i)
					}
					i++
				}); err != nil {
					t.Fatalf("completed train does not walk: %v", err)
				}
			}
			return true
		}
		sliceRange := func(idx int) (off, end int, last bool) {
			off = idx * chunk
			return off, min(off+chunk, len(data)), idx == len(dgs)-1
		}

		done := false
		for _, b := range script {
			if done {
				break
			}
			if b&0x80 != 0 && len(data) > 1 {
				// Synthetic overlapping slice: correct bytes at an offset
				// straddling slice boundaries, never the last (a train's
				// slice with more following stops short of its end).
				off := int(b&0x7f) % (len(data) - 1)
				end := min(off+chunk, len(data))
				if train {
					end = min(end, len(data)-1)
				}
				h := EncapHeader{ID: 42, FragOff: fragOff | uint32(off), TotalLen: uint32(len(data)), MoreFrags: true, Aggregate: train}
				done = feed(append(h.Marshal(nil), data[off:end]...), off, end, false)
				continue
			}
			idx := int(b) % len(dgs)
			off, end, last := sliceRange(idx)
			done = feed(dgs[idx], off, end, last)
		}
		// Top up with every slice in order: the packet must complete.
		for idx := 0; !done && idx < len(dgs); idx++ {
			off, end, last := sliceRange(idx)
			done = feed(dgs[idx], off, end, last)
		}
		if !done {
			t.Fatal("full slice set never completed")
		}
		if r.Reassembled == 0 {
			t.Fatal("Reassembled counter not incremented")
		}
		// Leak check: any partial state left behind (e.g. a post-
		// completion duplicate re-opening the key) must age out in two
		// generation sweeps, charging what the packet stood for, and leave
		// the table empty.
		if len(dgs) > 1 {
			if feed(dgs[0], 0, 0, false) {
				t.Fatal("lone stale slice completed a packet")
			}
		}
		evicted := r.EvictStale() + r.EvictStale()
		if r.Pending() != 0 {
			t.Fatalf("%d partials leaked past eviction", r.Pending())
		}
		if len(dgs) > 1 && evicted != len(in) {
			t.Fatalf("evicting the stale partial charged %d frames, want %d", evicted, len(in))
		}
	})
}

// FuzzAggregate drives the record walker with arbitrary trains and
// counts, and the train encoder with fuzz-cut frames. The walker never
// panics; it yields records only from a train it accepted whole, and
// then exactly count of them, each at least an Ethernet header, tiling
// the train with their length prefixes and nothing left over. A train
// the Aggregator built, cut into datagrams and delivered in the order
// script draws them — permuted, duplicated, some never — completes each
// time every one of its datagrams has arrived since it last completed,
// and only then, and walks back to the frames that went in, in order; a
// train that never completes ages out charged its frames once.
func FuzzAggregate(f *testing.F) {
	record := func(n int) []byte {
		return append([]byte{byte(n >> 8), byte(n)}, bytes.Repeat([]byte{0xee}, n)...)
	}
	two := append(record(14), record(30)...)
	all := []byte{0, 1, 2, 3, 4, 5, 6, 7}
	f.Add(two, uint32(2), byte(20), all)                              // well formed
	f.Add(two[:len(two)-1], uint32(2), byte(20), all)                 // last record truncated
	f.Add(append(two, 0x00), uint32(2), byte(0), all)                 // truncated length prefix
	f.Add(append(record(14), record(13)...), uint32(2), byte(1), all) // record shorter than an Ethernet header
	f.Add(two, uint32(3), byte(7), all)                               // count != records
	f.Add(append(two, record(14)...), uint32(2), byte(7), all)        // trailing bytes past count records
	f.Add(append(record(14), 0, 0), uint32(2), byte(7), all)          // zero-length record
	f.Add([]byte{}, uint32(0), byte(3), all)
	f.Add(two, uint32(2), byte(0), []byte{3, 1, 1, 0, 2, 3})          // permuted, duplicated
	f.Add(two, uint32(2), byte(0), []byte{0, 2, 3, 0, 2})             // one datagram never arrives
	f.Add(two, uint32(2), byte(0), []byte{0, 1, 2, 3, 0, 1, 2, 3, 1}) // completes twice, then a straggler
	f.Fuzz(func(t *testing.T, train []byte, count uint32, cut byte, script []byte) {
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
		// them into one train, cut it into datagrams of a small budget and
		// deliver them as the script says.
		var frames []*ethernet.Frame
		for rest := train; len(rest) > 0 && len(frames) < 64; {
			n := min(len(rest), int(cut)+1)
			frames = append(frames, &ethernet.Frame{Dst: ethernet.LocalMAC(7), Src: ethernet.LocalMAC(uint32(len(frames))),
				Type: ethernet.TypeTest, Payload: rest[:n]})
			rest = rest[n:]
		}
		if len(frames) == 0 {
			return
		}
		dgs := trainOf(t, 1, nil, EncapHeaderLen+32+int(cut), frames...)
		for i, d := range dgs {
			if len(d) > EncapHeaderLen+32+int(cut) {
				t.Fatalf("datagram %d of %d bytes over its budget", i, len(d))
			}
		}
		r := NewReassembler()
		arrived, missing := make([]bool, len(dgs)), len(dgs)
		for _, b := range script {
			i := int(b) % len(dgs)
			if !arrived[i] {
				arrived[i], missing = true, missing-1
			}
			h, payload, err := ParseEncap(dgs[i])
			if err != nil {
				t.Fatalf("own train slice does not parse: %v", err)
			}
			out, err := r.AddSlice("s", h, payload)
			if err != nil {
				t.Fatalf("own train slice refused: %v", err)
			}
			if out == nil {
				continue
			}
			if missing != 0 {
				t.Fatalf("the train completed with %d of its %d datagrams missing", missing, len(dgs))
			}
			next := 0
			err = WalkAggregate(out, uint32(h.Frames()), func(rec []byte) {
				fr, err := ethernet.Unmarshal(rec)
				if err != nil || next >= len(frames) {
					t.Fatalf("record %d: %v", next, err)
				}
				if want := frames[next]; fr.Src != want.Src || fr.Dst != want.Dst || !bytes.Equal(fr.Payload, want.Payload) {
					t.Fatalf("record %d differs from the frame packed", next)
				}
				next++
			})
			if err != nil || next != len(frames) {
				t.Fatalf("own train walks %d of %d frames: %v", next, len(frames), err)
			}
			clear(arrived)
			missing = len(dgs)
		}
		stale, want := r.Pending(), 0
		if stale > 0 {
			want = len(frames)
		}
		if evicted := r.EvictStale() + r.EvictStale(); r.Pending() != 0 || evicted != want {
			t.Fatalf("%d stale partials evicted charging %d frames, want %d; %d left", stale, evicted, want, r.Pending())
		}
	})
}
