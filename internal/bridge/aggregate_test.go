package bridge

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"vnetp/internal/ethernet"
)

func aggFrame(id uint32, size int) *ethernet.Frame {
	return &ethernet.Frame{Dst: ethernet.LocalMAC(9), Src: ethernet.LocalMAC(id),
		Type: ethernet.TypeTest, Payload: bytes.Repeat([]byte{byte(id)}, size)}
}

// TestAggregatorFillsToBudget: frames join the open aggregate until the
// next one would push the datagram — header, train and, on a sealed
// link, the seal tag — past the budget; that frame is refused with
// nothing changed and opens the next aggregate after a Close. Every
// datagram stays within budget, carries a fresh id, and walks back to
// the frames that went in.
func TestAggregatorFillsToBudget(t *testing.T) {
	s, rx := sealedPair(t)
	for _, sl := range []LinkSealer{nil, s} {
		const budget = 1400
		tmpl := NewEncapTemplate(sl)
		var agg Aggregator
		var ids atomic.Uint32
		agg.Reset(tmpl, sl, budget)
		var datagrams [][]byte
		var counts []int
		const frames = 40
		for i := uint32(0); i < frames; i++ {
			f := aggFrame(i, 100)
			fit, err := agg.Add(f, &ids)
			if err != nil {
				t.Fatal(err)
			}
			if !fit {
				d, n := agg.Close()
				datagrams, counts = append(datagrams, d), append(counts, n)
				if fit, err = agg.Add(f, &ids); !fit || err != nil {
					t.Fatalf("frame %d refused by an empty aggregate: %v", i, err)
				}
			}
		}
		d, n := agg.Close()
		datagrams, counts = append(datagrams, d), append(counts, n)

		overhead := tmpl.WireLen()
		if sl != nil {
			overhead += SealOverhead
		}
		perDatagram := (budget - overhead) / (aggRecordHdr + ethernet.HeaderLen + 100)
		next := uint32(0)
		for i, d := range datagrams {
			if len(d) > budget {
				t.Fatalf("datagram %d is %d bytes, budget %d", i, len(d), budget)
			}
			if i < len(datagrams)-1 && counts[i] != perDatagram {
				t.Fatalf("datagram %d closed with %d frames, room for %d", i, counts[i], perDatagram)
			}
			h, payload, err := ParseEncap(d)
			if err != nil {
				t.Fatal(err)
			}
			if sl != nil {
				h, payload = unsealDatagram(t, rx, d)
			}
			if !h.Aggregate || h.ID != uint32(i+1) || int(h.FragOff) != counts[i] || int(h.TotalLen) != len(payload) {
				t.Fatalf("datagram %d header %+v, want aggregate id %d count %d train %d", i, h, i+1, counts[i], len(payload))
			}
			err = WalkAggregate(payload, h.FragOff, func(rec []byte) {
				f, err := ethernet.Unmarshal(rec)
				if err != nil || f.Src != ethernet.LocalMAC(next) || !bytes.Equal(f.Payload, aggFrame(next, 100).Payload) {
					t.Fatalf("record %d: %v %v", next, f, err)
				}
				next++
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if next != frames {
			t.Fatalf("%d of %d frames came back", next, frames)
		}
	}
}

// TestAggregatorRefusals: a frame too large for an empty aggregate is
// refused with none opened (the caller fragments it); a frame that
// cannot be marshalled is an error and leaves the open aggregate as it
// was; a sealed aggregate with one flipped bit does not open.
func TestAggregatorRefusals(t *testing.T) {
	var agg Aggregator
	var ids atomic.Uint32
	agg.Reset(NewEncapTemplate(nil), nil, 1400)
	if fit, err := agg.Add(aggFrame(1, 1400), &ids); fit || err != nil || agg.Open() {
		t.Fatalf("oversize frame: fit=%v err=%v open=%v", fit, err, agg.Open())
	}
	if fit, err := agg.Add(aggFrame(1, 10), &ids); !fit || err != nil {
		t.Fatal(fit, err)
	}
	bad := aggFrame(2, 10)
	bad.Pad = -1
	if fit, err := agg.Add(bad, &ids); fit || !errors.Is(err, ethernet.ErrTooLarge) {
		t.Fatalf("unmarshallable frame: fit=%v err=%v", fit, err)
	}
	d, n := agg.Close()
	h, payload, err := ParseEncap(d)
	if err != nil || n != 1 || h.FragOff != 1 || len(payload) != aggRecordHdr+ethernet.HeaderLen+10 {
		t.Fatalf("aggregate after a refused frame: n=%d header=%+v payload=%d err=%v", n, h, len(payload), err)
	}
	// The same refusals before anything is packed open nothing.
	agg.Reset(NewEncapTemplate(nil), nil, 1400)
	if fit, err := agg.Add(bad, &ids); fit || err == nil || agg.Open() {
		t.Fatalf("unmarshallable first frame: fit=%v err=%v open=%v", fit, err, agg.Open())
	}

	s, rx := sealedPair(t)
	agg.Reset(NewEncapTemplate(s), s, 1400)
	for i := uint32(0); i < 3; i++ {
		if fit, err := agg.Add(aggFrame(i, 64), &ids); !fit || err != nil {
			t.Fatal(fit, err)
		}
	}
	d, _ = agg.Close()
	for _, flip := range []int{tmplFragOff + 3, len(d) / 2, len(d) - 1} { // frame count, ciphertext, tag
		tampered := append([]byte(nil), d...)
		tampered[flip] ^= 1
		h, payload, err := ParseEncap(tampered)
		if err != nil {
			continue // a count the train cannot hold is rejected before the seal is even tried
		}
		if _, err := rx.Open(h.Seal.Tenant, h.Seal.Nonce, tampered[:len(tampered)-len(payload)], payload); err == nil {
			t.Fatalf("aggregate with byte %d flipped still opens", flip)
		}
	}
	unsealDatagram(t, rx, d) // and the untouched one does
}
