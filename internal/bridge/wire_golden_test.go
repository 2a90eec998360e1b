package bridge

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vnetp/internal/ethernet"
	"vnetp/internal/seal"
)

var updateWire = flag.Bool("update", false, "rewrite testdata/wire from this run")

// The fixed inputs every wire golden is encoded from.
const (
	wireBudget = 1400
	wireTenant = 7
	wireOrigin = 0x0a0a
	wireLoneID = 0x1001
	wireTrain  = 0x2002
)

var wireKey = bytes.Repeat([]byte{0x42}, seal.KeyLen)

// wireTrace is the trace extension of the traced golden.
var wireTrace = TraceExt{ID: 0x0123456789abcdef, Origin: 0x0b0b, Flags: TraceTriggered}

// goldenSealer seals under the wire key with the keyring's own sealer, but
// draws nonces from a counter of its own that starts at zero, as a fresh
// keyring's would were its start not randomised: the goldens need the
// same nonces on every run.
type goldenSealer struct {
	*seal.Sealer
	seq uint64
}

func (g *goldenSealer) NextNonce() uint64 { g.seq++; return wireOrigin<<48 | g.seq }

func newGoldenSealer(t *testing.T) *goldenSealer {
	t.Helper()
	kr := seal.NewKeyring(wireOrigin)
	if err := kr.AddTenant(wireTenant, wireKey); err != nil {
		t.Fatal(err)
	}
	s, err := kr.Sealer(wireTenant)
	if err != nil {
		t.Fatal(err)
	}
	return &goldenSealer{Sealer: s}
}

// wireLoneFrame is the frame that travels alone: 3 014 B marshalled, three
// datagrams at the budget whether plain, sealed or sealed and traced.
func wireLoneFrame() *ethernet.Frame {
	p := make([]byte, 3000)
	for i := range p {
		p[i] = byte(i*7 + 3)
	}
	return &ethernet.Frame{Dst: ethernet.LocalMAC(1), Src: ethernet.LocalMAC(2), Type: ethernet.TypeTest, Payload: p}
}

// wireTrainFrames are the frames of the record train: 7 896 B, six
// datagrams at the budget, plain or sealed.
func wireTrainFrames() []*ethernet.Frame {
	var fs []*ethernet.Frame
	for i := 0; i < 16; i++ {
		p := make([]byte, 200+37*i)
		for j := range p {
			p[j] = byte(i ^ j)
		}
		fs = append(fs, &ethernet.Frame{Dst: ethernet.LocalMAC(9), Src: ethernet.LocalMAC(uint32(10 + i)), Type: ethernet.TypeTest, Payload: p})
	}
	return fs
}

func wireTrainOf(t *testing.T) *Aggregator {
	t.Helper()
	var a Aggregator
	for _, f := range wireTrainFrames() {
		if err := a.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	return &a
}

// wireClass is one golden: the datagrams its encoder produced, as private
// copies.
type wireClass struct {
	name, about string
	encode      func(t *testing.T) [][]byte
}

func copies(dgs [][]byte) [][]byte {
	out := make([][]byte, len(dgs))
	for i, d := range dgs {
		out[i] = append([]byte(nil), d...)
	}
	return out
}

// encodeLone encodes the lone frame as a link would, sealed when sealed
// and carrying tr when it is non-nil.
func encodeLone(t *testing.T, sealed bool, tr *TraceExt) [][]byte {
	var enc Encapsulator
	var sl LinkSealer
	if sealed {
		sl = newGoldenSealer(t)
	}
	pkt, err := enc.EncapsulateFor(wireLoneFrame(), wireLoneID, wireBudget, NewEncapTemplate(sl), tr)
	if err != nil {
		t.Fatal(err)
	}
	if sl != nil {
		pkt.Seal(sl)
	}
	defer pkt.Release()
	return copies(pkt.Datagrams)
}

// encodeTrainSlices cuts the record train as a link would and keeps its
// first, a middle and its last datagram.
func encodeTrainSlices(t *testing.T, sealed bool) [][]byte {
	var sl LinkSealer
	if sealed {
		sl = newGoldenSealer(t)
	}
	var pkt EncapPacket
	pkt.CutTrain(wireTrainOf(t), wireTrain, wireBudget, NewEncapTemplate(sl))
	if sl != nil {
		pkt.Seal(sl)
	}
	d := pkt.Datagrams
	return copies([][]byte{d[0], d[len(d)/2], d[len(d)-1]})
}

var wireClasses = []wireClass{
	{"lone_plain", "a plaintext lone frame cut into three fragments",
		func(t *testing.T) [][]byte { return encodeLone(t, false, nil) }},
	{"lone_sealed", "the same frame sealed",
		func(t *testing.T) [][]byte { return encodeLone(t, true, nil) }},
	{"lone_sealed_traced", "the same frame sealed and traced",
		func(t *testing.T) [][]byte { return encodeLone(t, true, &wireTrace) }},
	{"train_plain", "the first, a middle and the last slice of a plaintext record train",
		func(t *testing.T) [][]byte { return encodeTrainSlices(t, false) }},
	{"train_sealed", "the same three slices sealed",
		func(t *testing.T) [][]byte { return encodeTrainSlices(t, true) }},
}

// TestWireGoldens pins the bytes of every datagram class the transmit
// path encodes — a lone frame plain, sealed, sealed and traced; slices of
// a record train plain and sealed — against testdata/wire, from fixed
// inputs: key, keyring origin, nonces counted from zero, packet ids and a
// 1 400 B budget. Each golden also parses back, through ParseEncap and
// Keyring.Open, into those inputs. Rerun with -update only when the wire
// format changes on purpose.
func TestWireGoldens(t *testing.T) {
	for _, c := range wireClasses {
		t.Run(c.name, func(t *testing.T) {
			got := c.encode(t)
			path := filepath.Join("testdata", "wire", c.name+".hex")
			if *updateWire {
				if err := writeWire(path, c.about, got); err != nil {
					t.Fatal(err)
				}
			}
			want, err := readWire(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if len(got) != len(want) {
				t.Fatalf("%d datagrams, golden has %d", len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("datagram %d differs from the golden:\n got %x\nwant %x", i, got[i], want[i])
				}
			}
			checkWireInputs(t, c.name, want)
		})
	}
}

// checkWireInputs parses a golden's datagrams back — opening sealed ones
// with a receiving keyring — and checks they state the inputs they were
// encoded from: the lone frame reassembles to the frame, and each train
// slice is its stretch of the train.
func checkWireInputs(t *testing.T, name string, dgs [][]byte) {
	t.Helper()
	rx := seal.NewKeyring(0x0c0c)
	if err := rx.AddTenant(wireTenant, wireKey); err != nil {
		t.Fatal(err)
	}
	sealed := strings.Contains(name, "sealed")
	train := strings.HasPrefix(name, "train")
	var want []byte
	var err error
	if train {
		want = wireTrainOf(t).train
	} else if want, err = wireLoneFrame().Marshal(nil); err != nil {
		t.Fatal(err)
	}
	r := NewReassembler()
	var frame *ethernet.Frame
	for i, d := range dgs {
		if len(d) > wireBudget {
			t.Fatalf("datagram %d is %d B, over the %d B budget", i, len(d), wireBudget)
		}
		h, payload, err := ParseEncap(d)
		if err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		}
		if h.HasSeal != sealed || h.Aggregate != train || h.HasTrace != strings.HasSuffix(name, "traced") {
			t.Fatalf("datagram %d: sealed %v aggregate %v traced %v, wrong for %s", i, h.HasSeal, h.Aggregate, h.HasTrace, name)
		}
		if h.HasTrace && h.Trace != wireTrace {
			t.Fatalf("datagram %d: trace %+v, want %+v", i, h.Trace, wireTrace)
		}
		if sealed {
			if h.Seal.Tenant != wireTenant || h.Seal.Nonce>>48 != wireOrigin {
				t.Fatalf("datagram %d: seal %+v, want tenant %d origin %#x", i, h.Seal, wireTenant, wireOrigin)
			}
			if payload, err = rx.Open(h.Seal.Tenant, h.Seal.Nonce, d[:len(d)-len(payload)], payload); err != nil {
				t.Fatalf("datagram %d: %v", i, err)
			}
		}
		if h.TotalLen != uint32(len(want)) {
			t.Fatalf("datagram %d: totalLen %d, want %d", i, h.TotalLen, len(want))
		}
		if train {
			off := int(h.offset())
			if h.ID != wireTrain || h.Frames() != uint64(len(wireTrainFrames())) || h.MoreFrags != (i < len(dgs)-1) ||
				(i == 0) != (off == 0) || !bytes.Equal(payload, want[off:off+len(payload)]) {
				t.Fatalf("slice %d (id %#x, %d frames, offset %d, more %v) is not its stretch of the train",
					i, h.ID, h.Frames(), off, h.MoreFrags)
			}
			continue
		}
		if h.ID != wireLoneID {
			t.Fatalf("datagram %d: id %#x, want %#x", i, h.ID, wireLoneID)
		}
		h.HasSeal = false // payload is the opened plaintext now
		if f, err := r.AddParsed("golden", h, payload); err != nil {
			t.Fatalf("datagram %d: %v", i, err)
		} else if f != nil {
			frame = f
		}
	}
	if train {
		return
	}
	if frame == nil {
		t.Fatal("the fragments did not reassemble")
	}
	if got, _ := frame.Marshal(nil); !bytes.Equal(got, want) {
		t.Fatal("the fragments reassemble to another frame")
	}
}

// writeWire writes dgs as a golden: a comment naming the class, then each
// datagram as a comment line and its bytes in hex, 32 to a line.
func writeWire(path, about string, dgs [][]byte) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", about)
	for i, d := range dgs {
		fmt.Fprintf(&b, "# datagram %d: %d bytes\n", i, len(d))
		for off := 0; off < len(d); off += 32 {
			b.WriteString(hex.EncodeToString(d[off:min(off+32, len(d))]))
			b.WriteByte('\n')
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// readWire reads a golden writeWire wrote.
func readWire(path string) ([][]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var dgs [][]byte
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# datagram"):
			dgs = append(dgs, nil)
		case strings.HasPrefix(line, "#"), line == "":
		case len(dgs) == 0:
			return nil, fmt.Errorf("%s: bytes before the first datagram", path)
		default:
			b, err := hex.DecodeString(line)
			if err != nil {
				return nil, fmt.Errorf("%s: %v", path, err)
			}
			dgs[len(dgs)-1] = append(dgs[len(dgs)-1], b...)
		}
	}
	return dgs, sc.Err()
}
