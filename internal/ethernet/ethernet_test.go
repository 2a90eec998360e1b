package ethernet

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestMACString(t *testing.T) {
	m := MAC{0x02, 0x56, 0x00, 0x00, 0x00, 0x01}
	if got := m.String(); got != "02:56:00:00:00:01" {
		t.Fatalf("String = %q", got)
	}
}

// TestMACStringMatchesFmt: String and AppendTo write the fmt form
// "%02x:…" byte for byte, for any MAC.
func TestMACStringMatchesFmt(t *testing.T) {
	f := func(m MAC, prefix []byte) bool {
		want := fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
		return m.String() == want && len(want) == MACStringLen &&
			string(m.AppendTo(prefix)) == string(prefix)+want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestParseMACRoundTrip(t *testing.T) {
	prop := func(m MAC) bool {
		got, err := ParseMAC(m.String())
		return err == nil && got == m
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseMACInvalid(t *testing.T) {
	for _, s := range []string{"", "zz:zz:zz:zz:zz:zz", "01:02:03", "01-02-03-04-05-06x"} {
		if _, err := ParseMAC(s); err == nil {
			t.Errorf("ParseMAC(%q) succeeded", s)
		}
	}
}

func TestBroadcastMulticast(t *testing.T) {
	if !Broadcast.IsBroadcast() || !Broadcast.IsMulticast() {
		t.Fatal("broadcast flags wrong")
	}
	u := LocalMAC(1)
	if u.IsBroadcast() || u.IsMulticast() || u.IsZero() {
		t.Fatalf("unicast %v misclassified", u)
	}
	if !(MAC{}).IsZero() {
		t.Fatal("zero MAC not zero")
	}
	mc := MAC{0x01, 0, 0x5e, 0, 0, 1}
	if !mc.IsMulticast() || mc.IsBroadcast() {
		t.Fatalf("multicast %v misclassified", mc)
	}
}

func TestLocalMACUnique(t *testing.T) {
	seen := map[MAC]bool{}
	for i := uint32(0); i < 1000; i++ {
		m := LocalMAC(i)
		if seen[m] {
			t.Fatalf("duplicate MAC for id %d", i)
		}
		seen[m] = true
	}
}

func TestFrameMarshalUnmarshal(t *testing.T) {
	f := &Frame{
		Dst:     LocalMAC(2),
		Src:     LocalMAC(1),
		Type:    TypeIPv4,
		Payload: []byte("hello world payload"),
	}
	b, err := f.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != f.Len() {
		t.Fatalf("marshalled %d bytes, Len says %d", len(b), f.Len())
	}
	g, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.Dst != f.Dst || g.Src != f.Src || g.Type != f.Type || !bytes.Equal(g.Payload, f.Payload) {
		t.Fatalf("round trip mismatch: %v vs %v", g, f)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	prop := func(dst, src MAC, typ uint16, payload []byte) bool {
		f := &Frame{Dst: dst, Src: src, Type: typ, Payload: payload}
		b, err := f.Marshal(nil)
		if err != nil {
			return len(payload) > MaxMTU
		}
		g, err := Unmarshal(b)
		if err != nil {
			return false
		}
		return g.Dst == dst && g.Src == src && g.Type == typ && bytes.Equal(g.Payload, payload)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalTruncated(t *testing.T) {
	for i := 0; i < HeaderLen; i++ {
		if _, err := Unmarshal(make([]byte, i)); err != ErrTruncated {
			t.Fatalf("len %d: err = %v, want ErrTruncated", i, err)
		}
	}
	if _, err := Unmarshal(make([]byte, HeaderLen)); err != nil {
		t.Fatalf("header-only frame should parse (empty payload): %v", err)
	}
}

// TestDecodeOverwrites: Decode fills a reused frame from the wire alone —
// no Pad or Tag of its last use survives — and a truncated frame leaves it
// untouched.
func TestDecodeOverwrites(t *testing.T) {
	f := &Frame{Dst: LocalMAC(2), Src: LocalMAC(1), Type: TypeTest, Payload: []byte("decoded")}
	b, err := f.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	g := Frame{Pad: 9, Tag: 7}
	if err := Decode(&g, b); err != nil {
		t.Fatal(err)
	}
	if g.Dst != f.Dst || g.Src != f.Src || g.Type != f.Type || !bytes.Equal(g.Payload, f.Payload) || g.Pad != 0 || g.Tag != 0 {
		t.Fatalf("decoded %+v, want %+v", g, *f)
	}
	before := g
	if err := Decode(&g, b[:HeaderLen-1]); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if g.Dst != before.Dst || g.Type != before.Type || len(g.Payload) != len(before.Payload) {
		t.Fatalf("a truncated decode changed the frame: %+v", g)
	}
}

func TestMarshalTooLarge(t *testing.T) {
	f := &Frame{Payload: make([]byte, MaxMTU+1)}
	if _, err := f.Marshal(nil); err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestMarshalAppends(t *testing.T) {
	prefix := []byte{0xde, 0xad}
	f := &Frame{Type: TypeTest, Payload: []byte{1, 2, 3}}
	b, err := f.Marshal(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b[:2], prefix) {
		t.Fatal("Marshal did not append to existing buffer")
	}
	if len(b) != 2+f.Len() {
		t.Fatalf("len = %d", len(b))
	}
}

func TestWireLenPadding(t *testing.T) {
	small := &Frame{Payload: []byte{1}}
	if small.WireLen() != HeaderLen+MinPayload {
		t.Fatalf("small frame WireLen = %d, want %d", small.WireLen(), HeaderLen+MinPayload)
	}
	big := &Frame{Payload: make([]byte, 100)}
	if big.WireLen() != HeaderLen+100 {
		t.Fatalf("big frame WireLen = %d", big.WireLen())
	}
}

func TestPadAccounting(t *testing.T) {
	f := &Frame{Payload: []byte{1, 2, 3}, Pad: 1000}
	if f.PayloadLen() != 1003 || f.Len() != HeaderLen+1003 || f.WireLen() != HeaderLen+1003 {
		t.Fatalf("pad lengths: payload=%d len=%d wire=%d", f.PayloadLen(), f.Len(), f.WireLen())
	}
	b, err := f.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != f.Len() {
		t.Fatalf("marshalled %d, want %d", len(b), f.Len())
	}
	for _, x := range b[HeaderLen+3:] {
		if x != 0 {
			t.Fatal("pad bytes not zero")
		}
	}
	g, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if g.PayloadLen() != 1003 || g.Pad != 0 {
		t.Fatalf("unmarshal of padded frame: payloadLen=%d pad=%d", g.PayloadLen(), g.Pad)
	}
}

func TestPadTooLarge(t *testing.T) {
	f := &Frame{Pad: MaxMTU + 1}
	if _, err := f.Marshal(nil); err != ErrTooLarge {
		t.Fatalf("err = %v", err)
	}
	neg := &Frame{Pad: -1}
	if _, err := neg.Marshal(nil); err != ErrTooLarge {
		t.Fatalf("negative pad: err = %v", err)
	}
}

func TestClone(t *testing.T) {
	f := &Frame{Dst: LocalMAC(1), Payload: []byte{1, 2, 3}}
	g := f.Clone()
	g.Payload[0] = 99
	if f.Payload[0] != 1 {
		t.Fatal("Clone shares payload storage")
	}
}

func TestFrameString(t *testing.T) {
	f := &Frame{Dst: LocalMAC(2), Src: LocalMAC(1), Type: TypeIPv4, Payload: make([]byte, 5)}
	want := "02:56:00:00:00:01 -> 02:56:00:00:00:02 type=0x0800 len=5"
	if got := f.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
