package bridge

import (
	"bytes"
	"testing"
	"testing/quick"

	"vnetp/internal/ethernet"
)

func testFrame(payload int) *ethernet.Frame {
	return &ethernet.Frame{
		Dst:     ethernet.LocalMAC(2),
		Src:     ethernet.LocalMAC(1),
		Type:    ethernet.TypeIPv4,
		Payload: bytes.Repeat([]byte{0xab}, payload),
	}
}

func TestEncapHeaderRoundTrip(t *testing.T) {
	h := EncapHeader{ID: 0xdeadbeef, FragOff: 100, TotalLen: 500, MoreFrags: true}
	b := h.Marshal(nil)
	b = append(b, make([]byte, 400)...)
	g, payload, err := ParseEncap(b)
	if err != nil {
		t.Fatal(err)
	}
	if *g != h || len(payload) != 400 {
		t.Fatalf("round trip %+v payload %d", g, len(payload))
	}
}

func TestParseEncapErrors(t *testing.T) {
	if _, _, err := ParseEncap(make([]byte, 5)); err != ErrTruncated {
		t.Fatalf("short: %v", err)
	}
	h := EncapHeader{TotalLen: 10}
	b := h.Marshal(nil)
	b[0] = 0
	if _, _, err := ParseEncap(b); err != ErrBadMagic {
		t.Fatalf("magic: %v", err)
	}
	b = h.Marshal(nil)
	b[2] = 99
	if _, _, err := ParseEncap(b); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}
	// Fragment exceeding TotalLen.
	bad := EncapHeader{FragOff: 8, TotalLen: 10}
	b = bad.Marshal(nil)
	b = append(b, make([]byte, 5)...)
	if _, _, err := ParseEncap(b); err != ErrFragBounds {
		t.Fatalf("bounds: %v", err)
	}
}

// TestParseEncapBoundsTotalLen: a first fragment sizes the reassembly
// buffer from TotalLen before anything has authenticated it, so one
// 17-byte datagram claiming 1 GiB (or 4 GiB) must not get as far as the
// reassembler; the largest frame the overlay carries still does.
func TestParseEncapBoundsTotalLen(t *testing.T) {
	const largest = ethernet.HeaderLen + ethernet.MaxMTU
	for _, total := range []uint32{largest + 1, 1 << 30, 1<<32 - 1} {
		h := EncapHeader{MoreFrags: true, TotalLen: total}
		if _, _, err := ParseEncap(append(h.Marshal(nil), 0)); err != ErrFragBounds {
			t.Fatalf("TotalLen %d: got %v, want ErrFragBounds", total, err)
		}
	}
	h := EncapHeader{MoreFrags: true, TotalLen: largest}
	hp, payload, err := ParseEncap(append(h.Marshal(nil), 0))
	if err != nil {
		t.Fatalf("TotalLen %d (a MaxMTU frame): %v", largest, err)
	}
	r := NewReassembler()
	if f, err := r.AddParsed("peer", hp, payload); f != nil || err != nil || r.Pending() != 1 {
		t.Fatalf("first fragment of a MaxMTU frame: frame=%v err=%v pending=%d", f, err, r.Pending())
	}
}

// TestReassemblyAllocs pins what reassembling a 7-fragment frame from
// in-order fragments allocates: the partial (its one span inside it),
// its buffer and the frame handed back — no key string, no sort, per
// fragment.
func TestReassemblyAllocs(t *testing.T) {
	ds, err := Encapsulate(testFrame(8900), 9, 1400)
	if err != nil || len(ds) != 7 {
		t.Fatalf("%d fragments, err %v; want 7", len(ds), err)
	}
	heads, parts := make([]*EncapHeader, len(ds)), make([][]byte, len(ds))
	for i, d := range ds {
		if heads[i], parts[i], err = ParseEncap(d); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReassembler()
	allocs := testing.AllocsPerRun(100, func() {
		var f *ethernet.Frame
		for i := range heads {
			f, _ = r.AddParsed("10.0.0.1:7000", heads[i], parts[i])
		}
		if f == nil {
			t.Fatal("frame did not complete")
		}
	})
	if allocs > 3 {
		t.Fatalf("reassembling 7 in-order fragments: %.0f allocations, want <= 3", allocs)
	}
}

func TestEncapsulateSingleDatagram(t *testing.T) {
	f := testFrame(100)
	ds, err := Encapsulate(f, 7, 1472)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 {
		t.Fatalf("%d datagrams, want 1", len(ds))
	}
	r := NewReassembler()
	g, err := r.Add("peer", ds[0])
	if err != nil || g == nil {
		t.Fatalf("reassemble: %v %v", g, err)
	}
	if g.Dst != f.Dst || !bytes.Equal(g.Payload, f.Payload) {
		t.Fatal("frame mismatch")
	}
}

func TestEncapsulateFragmented(t *testing.T) {
	f := testFrame(4000) // inner 4014 bytes
	const maxPayload = 1472
	ds, err := Encapsulate(f, 9, maxPayload)
	if err != nil {
		t.Fatal(err)
	}
	want := FragmentCount(f.Len(), maxPayload)
	if len(ds) != want || want < 3 {
		t.Fatalf("%d datagrams, want %d (>=3)", len(ds), want)
	}
	for _, d := range ds {
		if len(d) > maxPayload {
			t.Fatalf("datagram %d exceeds maxPayload", len(d))
		}
	}
	r := NewReassembler()
	var got *ethernet.Frame
	for i, d := range ds {
		g, err := r.Add("peer", d)
		if err != nil {
			t.Fatal(err)
		}
		if g != nil && i != len(ds)-1 {
			t.Fatal("completed before last fragment")
		}
		if g != nil {
			got = g
		}
	}
	if got == nil || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatal("reassembly mismatch")
	}
	if r.Pending() != 0 || r.Reassembled != 1 {
		t.Fatalf("pending=%d reassembled=%d", r.Pending(), r.Reassembled)
	}
}

func TestReassemblyOutOfOrder(t *testing.T) {
	f := testFrame(3000)
	ds, _ := Encapsulate(f, 1, 1472)
	r := NewReassembler()
	// Deliver in reverse order.
	var got *ethernet.Frame
	for i := len(ds) - 1; i >= 0; i-- {
		g, err := r.Add("peer", ds[i])
		if err != nil {
			t.Fatal(err)
		}
		if g != nil {
			got = g
		}
	}
	if got == nil || !bytes.Equal(got.Payload, f.Payload) {
		t.Fatal("out-of-order reassembly failed")
	}
}

func TestReassemblerSenderIsolation(t *testing.T) {
	// Same packet ID from two senders must not collide.
	fa, fb := testFrame(2000), testFrame(2500)
	da, _ := Encapsulate(fa, 42, 1000)
	db, _ := Encapsulate(fb, 42, 1000)
	r := NewReassembler()
	for i := range da {
		r.Add("a", da[i])
	}
	var got *ethernet.Frame
	for i := range db {
		if g, _ := r.Add("b", db[i]); g != nil {
			got = g
		}
	}
	if got == nil || !bytes.Equal(got.Payload, fb.Payload) {
		t.Fatal("cross-sender collision")
	}
}

func TestEvictStale(t *testing.T) {
	f := testFrame(3000)
	ds, _ := Encapsulate(f, 5, 1000)
	r := NewReassembler()
	r.Add("peer", ds[0]) // partial
	if r.Pending() != 1 {
		t.Fatal("no partial")
	}
	if n := r.EvictStale(); n != 0 {
		t.Fatalf("first sweep evicted %d", n) // same generation: survives one sweep
	}
	if n := r.EvictStale(); n != 1 {
		t.Fatalf("second sweep evicted %d, want 1", n)
	}
	if r.Pending() != 0 || r.Dropped != 1 {
		t.Fatalf("pending=%d dropped=%d", r.Pending(), r.Dropped)
	}
}

func TestFragmentCount(t *testing.T) {
	cases := []struct{ inner, max, want int }{
		{100, 1472, 1},
		{1456, 1472, 1}, // exactly one v2 chunk (1472 - 16 header)
		{1457, 1472, 2},
		{4014, 1472, 3},
		{0, 100, 1},
	}
	for _, c := range cases {
		if got := FragmentCount(c.inner, c.max); got != c.want {
			t.Errorf("FragmentCount(%d,%d) = %d, want %d", c.inner, c.max, got, c.want)
		}
	}
}

// TestJumboFrameBoundary covers the v1 wire-corruption bug: with
// MaxMTU = 65535 a maximum-size frame marshals to 65549 bytes, which
// wrapped the 16-bit totalLen/fragOff fields and corrupted the wire. The
// v2 32-bit fields must round-trip payloads straddling the old uint16
// boundary (inner length 65535) losslessly under fragmentation.
func TestJumboFrameBoundary(t *testing.T) {
	// 65521-byte payload marshals to exactly 65535 inner bytes; ±1
	// brackets the uint16 wrap point.
	for _, payload := range []int{65520, 65521, 65522, ethernet.MaxMTU} {
		f := testFrame(payload)
		ds, err := Encapsulate(f, 77, 1400)
		if err != nil {
			t.Fatalf("payload %d: %v", payload, err)
		}
		if want := FragmentCount(f.Len(), 1400); len(ds) != want {
			t.Fatalf("payload %d: %d datagrams, want %d", payload, len(ds), want)
		}
		r := NewReassembler()
		var got *ethernet.Frame
		for i, d := range ds {
			g, err := r.Add("jumbo-peer", d)
			if err != nil {
				t.Fatalf("payload %d frag %d: %v", payload, i, err)
			}
			if g != nil {
				got = g
			}
		}
		if got == nil {
			t.Fatalf("payload %d: frame did not reassemble", payload)
		}
		if !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("payload %d: corrupted across the wire", payload)
		}
	}
}

// TestV1Rejected ensures the codec refuses version-1 datagrams instead of
// misreading their narrower header.
func TestV1Rejected(t *testing.T) {
	h := EncapHeader{ID: 1, TotalLen: 10}
	b := h.Marshal(nil)
	b = append(b, make([]byte, 10)...)
	b[2] = 1 // rewrite version to v1
	if _, _, err := ParseEncap(b); err != ErrBadVersion {
		t.Fatalf("v1 datagram: got %v, want ErrBadVersion", err)
	}
}

func TestEncapsulateRoundTripProperty(t *testing.T) {
	prop := func(payload []byte, maxP uint16, id uint32) bool {
		if len(payload) > 9000 {
			payload = payload[:9000]
		}
		maxPayload := int(maxP)%2000 + EncapHeaderLen + 1
		f := &ethernet.Frame{Dst: ethernet.LocalMAC(9), Src: ethernet.LocalMAC(8), Type: ethernet.TypeTest, Payload: payload}
		ds, err := Encapsulate(f, id, maxPayload)
		if err != nil {
			return false
		}
		r := NewReassembler()
		var got *ethernet.Frame
		for _, d := range ds {
			g, err := r.Add("x", d)
			if err != nil {
				return false
			}
			if g != nil {
				got = g
			}
		}
		return got != nil && got.Dst == f.Dst && got.Src == f.Src &&
			got.Type == f.Type && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceExtRoundTrip(t *testing.T) {
	h := EncapHeader{
		ID: 42, FragOff: 64, TotalLen: 500, MoreFrags: true,
		Trace:    TraceExt{ID: 0x0102030405060708, Origin: 0xbeef, Flags: TraceTriggered},
		HasTrace: true,
	}
	b := h.Marshal(nil)
	if len(b) != EncapHeaderLen+EncapTraceLen {
		t.Fatalf("marshalled %d bytes, want %d", len(b), EncapHeaderLen+EncapTraceLen)
	}
	b = append(b, make([]byte, 200)...)
	g, payload, err := ParseEncap(b)
	if err != nil {
		t.Fatal(err)
	}
	if *g != h || len(payload) != 200 {
		t.Fatalf("round trip %+v payload %d", g, len(payload))
	}
	if g.WireLen() != EncapHeaderLen+EncapTraceLen {
		t.Fatalf("WireLen = %d", g.WireLen())
	}
}

func TestTraceExtTruncated(t *testing.T) {
	h := EncapHeader{TotalLen: 10, Trace: TraceExt{ID: 1}, HasTrace: true}
	b := h.Marshal(nil)
	// Keep the fixed header but cut the extension short.
	if _, _, err := ParseEncap(b[:EncapHeaderLen+4]); err != ErrTruncated {
		t.Fatalf("truncated ext: %v", err)
	}
}

// TestEncapsulateTraceIdentity checks the traced encapsulation carries
// the extension on every fragment, shrinks the per-fragment budget
// accordingly, and reassembles to the same inner frame as the untraced
// path.
func TestEncapsulateTraceIdentity(t *testing.T) {
	f := testFrame(4000)
	tr := &TraceExt{ID: 0xabcdef, Origin: 0x1234}
	var enc Encapsulator
	pkt, err := enc.EncapsulateSealed(f, 9, 1400, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer pkt.Release()
	r := NewReassembler()
	var got *ethernet.Frame
	for i, d := range pkt.Datagrams {
		if len(d) > 1400 {
			t.Fatalf("datagram %d is %d bytes, budget 1400", i, len(d))
		}
		h, _, err := ParseEncap(d)
		if err != nil {
			t.Fatal(err)
		}
		if !h.HasTrace || h.Trace != *tr {
			t.Fatalf("datagram %d trace ext = %+v, want %+v", i, h.Trace, tr)
		}
		out, err := r.Add("t", d)
		if err != nil {
			t.Fatal(err)
		}
		if out != nil {
			got = out
		}
	}
	if got == nil {
		t.Fatal("traced fragments did not reassemble")
	}
	if !bytes.Equal(got.Payload, f.Payload) || got.Dst != f.Dst || got.Src != f.Src {
		t.Fatal("reassembled frame differs from input")
	}
}
