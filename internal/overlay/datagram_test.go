package overlay

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"slices"
	"testing"
	"time"

	"vnetp/internal/bridge"
)

// TestProbeAnsweredOnBothTransports pins datagram's contract on both
// transports: a probe handed to receive and one written onto a TCP stream
// are each answered exactly once, on the transport they came by, and a
// malformed probe reply or an unparsable header is charged to bad_packet
// once, at the same stage whichever transport carried it. Nothing else
// handles a probe: the node runs no component beside its receive worker
// and its evictor (dropNode turns the anomaly watchdog off).
func TestProbeAnsweredOnBothTransports(t *testing.T) {
	n := dropNode(t, NodeConfig{dispatchers: 1})
	got := n.Runtime().Components()
	slices.Sort(got)
	if !slices.Equal(got, []string{"dispatcher/0", "evictor"}) {
		t.Fatalf("a fresh node runs %v, want its receive worker and its evictor only", got)
	}
	probe := marshalProbe("lk", 7)
	_, sent, err := bridge.ParseEncap(probe)
	if err != nil {
		t.Fatal(err)
	}

	// UDP: the reply goes back to the probe's source address.
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	udp := func(d []byte) {
		n.receive(n.shards[0], rxPacket{pkt: d, from: peer.LocalAddr().(*net.UDPAddr)}, n.mono(), &rxAttrib{})
	}
	udpReply := func(wait time.Duration) ([]byte, error) {
		buf := make([]byte, 2048)
		peer.SetReadDeadline(time.Now().Add(wait))
		sz, _, err := peer.ReadFromUDP(buf)
		return buf[:sz], err
	}

	// TCP: the reply goes back down the connection. The stream is a pipe,
	// read by readTCP as an accepted connection's would be.
	stream, conn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		n.readTCP(&tcpConn{conn: conn, w: bufio.NewWriter(conn)}, nil)
	}()
	defer func() {
		stream.Close()
		<-done
	}()
	tcp := func(d []byte) {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(d)))
		if _, err := stream.Write(append(hdr[:], d...)); err != nil {
			t.Fatal(err)
		}
	}
	tcpReply := func(wait time.Duration) ([]byte, error) {
		stream.SetReadDeadline(time.Now().Add(wait))
		var hdr [4]byte
		if _, err := io.ReadFull(stream, hdr[:]); err != nil {
			return nil, err
		}
		d := make([]byte, binary.BigEndian.Uint32(hdr[:]))
		_, err := io.ReadFull(stream, d)
		return d, err
	}

	answered := func(t *testing.T, name string, reply func(time.Duration) ([]byte, error)) {
		t.Helper()
		d, err := reply(5 * time.Second)
		if err != nil {
			t.Fatalf("%s probe unanswered: %v", name, err)
		}
		h, payload, err := bridge.ParseEncap(d)
		if err != nil || !h.ProbeReply || string(payload) != string(sent) {
			t.Fatalf("%s reply = %+v %x, %v; want a probe reply echoing %x", name, h, payload, err, sent)
		}
		if _, err := reply(50 * time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s: a second reply, or the wait for one failed: %v", name, err)
		}
	}
	udp(probe)
	answered(t, "udp", udpReply)
	tcp(probe)
	answered(t, "tcp", tcpReply)
	// Neither probe was answered on the other transport.
	if d, err := udpReply(50 * time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the tcp probe drew a udp datagram (%d B, %v)", len(d), err)
	}
	if s := n.shards[0].Datagrams.Load(); s != 0 {
		t.Fatalf("probes reached the data path: %d datagrams", s)
	}

	// charged feeds d to one transport and returns the one bad_packet
	// record it must leave.
	charged := func(t *testing.T, send func([]byte), d []byte) string {
		t.Helper()
		before := n.ledger.Count(dropBadPacket)
		send(d)
		waitCount(t, n, dropBadPacket, before+1)
		time.Sleep(20 * time.Millisecond)
		if got := n.ledger.Count(dropBadPacket) - before; got != 1 {
			t.Fatalf("bad_packet charged %d, want 1", got)
		}
		tail := n.ledger.Tail(dropBadPacket)
		return tail[len(tail)-1].Stage
	}
	for _, c := range []struct {
		name, stage string
		d           []byte
	}{
		{"malformed_probe_reply", "probe_reply", marshalProbeReply([]byte{1, 2, 3})},
		{"unparsable_header", "parse", []byte{0xde, 0xad, 0xbe, 0xef}},
	} {
		t.Run(c.name, func(t *testing.T) {
			overUDP, overTCP := charged(t, udp, c.d), charged(t, tcp, c.d)
			if overUDP != c.stage || overTCP != c.stage {
				t.Fatalf("charged at stage %q over udp and %q over tcp, want %q on both", overUDP, overTCP, c.stage)
			}
		})
	}
}

// TestHealthConfigNormalize: every unset field takes DefaultHealthConfig's
// value — the redial ceiling included, so an unset RedialMax is 5 s, not
// RedialMin — and a node with no monitor running backs off within the
// same bounds.
func TestHealthConfigNormalize(t *testing.T) {
	def := DefaultHealthConfig()
	def.ProbeTimeout = def.Interval
	for _, c := range []struct {
		name     string
		in, want HealthConfig
	}{
		{"zero", HealthConfig{}, def},
		{"interval_sets_timeout", HealthConfig{Interval: time.Second}, func() HealthConfig {
			w := def
			w.Interval, w.ProbeTimeout = time.Second, time.Second
			return w
		}()},
		{"redial_min_only", HealthConfig{RedialMin: time.Second}, func() HealthConfig {
			w := def
			w.RedialMin = time.Second
			return w
		}()},
		{"redial_max_below_min", HealthConfig{RedialMin: time.Second, RedialMax: time.Millisecond}, func() HealthConfig {
			w := def
			w.RedialMin, w.RedialMax = time.Second, time.Second
			return w
		}()},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := c.in
			got.normalize()
			if got != c.want {
				t.Fatalf("normalize(%+v) = %+v, want %+v", c.in, got, c.want)
			}
		})
	}

	n := dropNode(t, NodeConfig{})
	if n.healthCfg != def {
		t.Fatalf("a fresh node's health config is %+v, want %+v", n.healthCfg, def)
	}
	lk := &link{}
	var steps []time.Duration
	n.mu.Lock()
	for i := 0; i < 8; i++ {
		n.bumpBackoffLocked(lk)
		steps = append(steps, lk.redialBackoff)
	}
	n.mu.Unlock()
	if steps[0] != def.RedialMin || steps[1] != 2*def.RedialMin || steps[len(steps)-1] != def.RedialMax {
		t.Fatalf("redial backoff with no monitor went %v, want %v doubling to %v", steps, def.RedialMin, def.RedialMax)
	}
}
