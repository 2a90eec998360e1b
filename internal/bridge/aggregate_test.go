package bridge

import (
	"bytes"
	"errors"
	"testing"

	"vnetp/internal/ethernet"
)

func aggFrame(id uint32, size int) *ethernet.Frame {
	return &ethernet.Frame{Dst: ethernet.LocalMAC(9), Src: ethernet.LocalMAC(id),
		Type: ethernet.TypeTest, Payload: bytes.Repeat([]byte{byte(id)}, size)}
}

// trainOf packs frames into one train and cuts it for a link sealed by sl
// (nil: plaintext) at budget, returning private copies of the datagrams.
func trainOf(t testing.TB, id uint32, sl LinkSealer, budget int, frames ...*ethernet.Frame) [][]byte {
	t.Helper()
	var agg Aggregator
	for i, f := range frames {
		if err := agg.Add(f); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	var pkt EncapPacket
	pkt.CutTrain(&agg, id, budget, NewEncapTemplate(sl))
	if sl != nil {
		pkt.Seal(sl)
	}
	out := make([][]byte, len(pkt.Datagrams))
	for i, d := range pkt.Datagrams {
		out[i] = append([]byte(nil), d...)
	}
	return out
}

// TestTrainCutToBudget: a train is cut into datagrams of exactly the
// budget, only the last one shorter; every datagram states the train id,
// its slice's offset, the train's length and frame count, and whether
// more follow; a sealed train's datagrams each carry a nonce of their
// own; and the slices reassemble into the train, which walks back to the
// frames that went in, in order.
func TestTrainCutToBudget(t *testing.T) {
	s, rx := sealedPair(t)
	for _, sl := range []LinkSealer{nil, s} {
		const budget, frames = 1400, 40
		var in []*ethernet.Frame
		for i := uint32(0); i < frames; i++ {
			in = append(in, aggFrame(i, 100))
		}
		dgs := trainOf(t, 5, sl, budget, in...)
		trainLen := frames * RecordLen(in[0])
		chunk := budget - NewEncapTemplate(sl).WireLen()
		if sl != nil {
			chunk -= SealOverhead
		}
		if want := (trainLen + chunk - 1) / chunk; len(dgs) != want {
			t.Fatalf("sealed=%v: %d datagrams for a %d B train, want %d", sl != nil, len(dgs), trainLen, want)
		}
		r := NewReassembler()
		nonces := map[uint64]bool{}
		var train []byte
		for i, d := range dgs {
			if last := i == len(dgs)-1; len(d) != budget && !(last && len(d) < budget) {
				t.Fatalf("datagram %d of %d is %d B, budget %d", i, len(dgs), len(d), budget)
			}
			h, payload, err := ParseEncap(d)
			if err != nil {
				t.Fatal(err)
			}
			if sl != nil {
				h, payload = unsealDatagram(t, rx, d)
				if nonces[h.Seal.Nonce] {
					t.Fatalf("datagram %d reuses nonce %x", i, h.Seal.Nonce)
				}
				nonces[h.Seal.Nonce] = true
			}
			if !h.Aggregate || h.ID != 5 || h.Frames() != frames || int(h.offset()) != i*chunk ||
				int(h.TotalLen) != trainLen || h.MoreFrags != (i < len(dgs)-1) {
				t.Fatalf("datagram %d header %+v: want train 5 of %d frames, offset %d of %d", i, h, frames, i*chunk, trainLen)
			}
			if b, err := r.AddSlice("peer", h, payload); err != nil {
				t.Fatal(err)
			} else if b != nil {
				train = b
			}
		}
		next := uint32(0)
		err := WalkAggregate(train, frames, func(rec []byte) {
			f, err := ethernet.Unmarshal(rec)
			if err != nil || f.Src != ethernet.LocalMAC(next) || !bytes.Equal(f.Payload, aggFrame(next, 100).Payload) {
				t.Fatalf("record %d: %v %v", next, f, err)
			}
			next++
		})
		if err != nil || next != frames || r.Pending() != 0 {
			t.Fatalf("walk: %v, %d of %d frames came back, %d partials left", err, next, frames, r.Pending())
		}
	}
}

// TestTrainRoom: the longest train TrainRoom allows is cut into one
// UDP_SEGMENT message's worth — at most MaxTrainSegments datagrams and
// MaxTrainBytes bytes — and a byte more would not be, on a UDP link
// (plain and sealed), a TCP link's 32 KiB budget and a small budget.
func TestTrainRoom(t *testing.T) {
	s, _ := sealedPair(t)
	for _, tc := range []struct {
		sl     LinkSealer
		budget int
	}{{nil, 1400}, {s, 1400}, {nil, 32 << 10}, {nil, 512}} {
		tmpl := NewEncapTemplate(tc.sl)
		room := tmpl.TrainRoom(tc.budget)
		cut := func(n int) (segs, bytes int) {
			var pkt EncapPacket
			pkt.CutTrain(&Aggregator{train: make([]byte, n), count: 1}, 1, tc.budget, tmpl)
			if tc.sl != nil {
				pkt.Seal(tc.sl)
			}
			return len(pkt.Datagrams), len(pkt.wire)
		}
		if segs, n := cut(room); segs > MaxTrainSegments || n > MaxTrainBytes {
			t.Fatalf("budget %d sealed=%v: a %d B train is %d datagrams, %d B", tc.budget, tc.sl != nil, room, segs, n)
		}
		if room+1 <= MaxTrainBytes {
			if segs, n := cut(room + 1); segs <= MaxTrainSegments && n <= MaxTrainBytes {
				t.Fatalf("budget %d sealed=%v: a %d B train still fits (%d datagrams, %d B): TrainRoom %d is short", tc.budget, tc.sl != nil, room+1, segs, n, room)
			}
		}
	}
}

// TestAggregatorRefusals: a frame that cannot be marshalled, or whose
// record a length prefix cannot state, is an error and leaves the train
// as it was; a sealed train with one flipped bit in one datagram loses
// that datagram and no other.
func TestAggregatorRefusals(t *testing.T) {
	var agg Aggregator
	if err := agg.Add(aggFrame(1, 10)); err != nil {
		t.Fatal(err)
	}
	bad := aggFrame(2, 10)
	bad.Pad = -1
	huge := aggFrame(3, ethernet.MaxMTU)
	for f, want := range map[*ethernet.Frame]error{bad: ethernet.ErrTooLarge, huge: ErrRecordTooLong} {
		if err := agg.Add(f); !errors.Is(err, want) || agg.Count() != 1 || agg.Len() != RecordLen(aggFrame(1, 10)) {
			t.Fatalf("refused frame: err=%v, train left with %d frames, %d B", err, agg.Count(), agg.Len())
		}
	}

	s, rx := sealedPair(t)
	var in []*ethernet.Frame
	for i := uint32(0); i < 40; i++ {
		in = append(in, aggFrame(i, 64))
	}
	dgs := trainOf(t, 1, s, 1400, in...)
	if len(dgs) < 3 {
		t.Fatalf("%d datagrams, want a train of several", len(dgs))
	}
	tampered := append([]byte(nil), dgs[1]...)
	tampered[len(tampered)/2] ^= 1
	h, payload, err := ParseEncap(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rx.Open(h.Seal.Tenant, h.Seal.Nonce, tampered[:len(tampered)-len(payload)], payload); err == nil {
		t.Fatal("a train datagram with a flipped bit still opens")
	}
	for _, d := range [][]byte{dgs[0], dgs[2]} {
		unsealDatagram(t, rx, d) // its neighbours still do
	}
}

// TestRejectChargesOnce: a train's frames are charged once, however many
// of its slices are refused and whether or not the rest ages out — when
// the refused slice comes before the others arrive as well as after — and
// a train nothing refused is charged its count when it is evicted.
func TestRejectChargesOnce(t *testing.T) {
	var in []*ethernet.Frame
	for i := uint32(0); i < 5; i++ {
		in = append(in, aggFrame(i, 600))
	}
	parse := func(d []byte) (*EncapHeader, []byte) {
		t.Helper()
		h, payload, err := ParseEncap(d)
		if err != nil {
			t.Fatal(err)
		}
		return h, payload
	}
	for _, first := range []bool{false, true} {
		dgs := trainOf(t, 9, nil, 1400, in...)
		if len(dgs) != 3 {
			t.Fatalf("%d datagrams, want 3", len(dgs))
		}
		r := NewReassembler()
		h0, p0 := parse(dgs[0])
		if !first {
			r.AddSlice("s", h0, p0)
		}
		h1, _ := parse(dgs[1])
		h2, _ := parse(dgs[2])
		if !r.Reject("s", h1) || r.Reject("s", h2) {
			t.Fatalf("refused-first=%v: the first refused slice must charge the train, the second not", first)
		}
		if first {
			r.AddSlice("s", h0, p0)
		}
		if got := r.EvictStale() + r.EvictStale(); got != 0 || r.Pending() != 0 {
			t.Fatalf("refused-first=%v: eviction charged %d frames more, %d partials left", first, got, r.Pending())
		}
	}
	r := NewReassembler()
	h, payload := parse(trainOf(t, 10, nil, 1400, in...)[0])
	r.AddSlice("s", h, payload)
	if got := r.EvictStale() + r.EvictStale(); got != len(in) {
		t.Fatalf("evicting an unrefused train charged %d frames, want %d", got, len(in))
	}
	whole := trainOf(t, 11, nil, 1400, in[0])
	if h, _ := parse(whole[0]); !h.Whole() || !r.Reject("s", h) || !r.Reject("s", h) || r.Pending() != 0 {
		t.Fatal("a refused whole datagram is charged every time and opens no partial")
	}
}
