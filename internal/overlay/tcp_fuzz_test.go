package overlay

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"vnetp/internal/bridge"
)

// FuzzTCPStream feeds arbitrary bytes to readTCP's length-prefix framing,
// as a peer would write them down an accepted TCP connection (a net.Pipe
// here). Whatever the bytes, nothing panics and no buffer grows past the
// largest datagram a peer may send. A zero or oversized length prefix is
// charged once, on bad_packet at stage tcp_frame, and closes the
// connection: nothing behind it is read. A whole message that does not
// parse is charged on bad_packet at stage parse, and reading goes on
// to the next. A stream that ends mid-message charges nothing.
func FuzzTCPStream(f *testing.F) {
	// The seeds are in testdata/fuzz/FuzzTCPStream: a frame then a probe,
	// an unparsable message then a frame, an aggregate, a zero, an
	// oversized and the largest length, a cut prefix.
	f.Add([]byte{})
	n := dropNode(f, NodeConfig{dispatchers: 1})
	f.Fuzz(func(t *testing.T, stream []byte) {
		// The model: what readTCP must charge for this stream.
		var frameErr, parseFrames uint64
		parsed := false
		for rest := stream; len(rest) >= 4; {
			size := binary.BigEndian.Uint32(rest)
			rest = rest[4:]
			if size == 0 || size > tcpMaxDatagram+bridge.EncapHeaderLen {
				frameErr = 1
				break
			}
			if uint32(len(rest)) < size {
				break
			}
			pkt := rest[:size]
			rest = rest[size:]
			if _, err := new(bridge.EncapHeader).Unmarshal(pkt); err != nil {
				parseFrames += bridge.EncapFrames(pkt)
			} else {
				parsed = true
			}
		}

		// The peer ends the stream only when it holds no bad length: past
		// one, readTCP must close the connection by itself.
		peer, conn := net.Pipe()
		defer peer.Close()
		go io.Copy(io.Discard, peer) // probe replies
		before := n.ledger.Count(dropBadPacket)
		done := make(chan struct{})
		go func() {
			defer close(done)
			n.readTCP(&tcpConn{conn: conn, w: bufio.NewWriter(conn)}, nil)
		}()
		if _, err := peer.Write(stream); frameErr == 0 && err != nil {
			t.Fatalf("the stream was cut short (%v) with no bad length in it", err)
		}
		if frameErr == 0 {
			peer.Close()
		}
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("readTCP kept reading past a bad length")
		}
		charged := n.ledger.Count(dropBadPacket) - before
		want := frameErr + parseFrames
		if charged < want || (!parsed && charged != want) {
			t.Fatalf("bad_packet charged %d, want %d (tcp_frame %d + parse %d) plus what parsed messages cost (any: %v)",
				charged, want, frameErr, parseFrames, parsed)
		}
		if frameErr == 1 {
			tail := n.ledger.Tail(dropBadPacket)
			if last := tail[len(tail)-1]; last.Stage != "tcp_frame" || last.Count != 1 {
				t.Fatalf("the last bad_packet record is %+v, want one tcp_frame charge", last)
			}
		}

		// The framing alone: every datagram it hands out is what the stream
		// holds, and its buffer stays within the largest datagram.
		in := tcpFrames{r: bufio.NewReader(bytes.NewReader(stream))}
		for rest := stream; ; {
			pkt, err := in.next()
			if cap(in.buf) > tcpMaxDatagram+bridge.EncapHeaderLen {
				t.Fatalf("the framing buffer grew to %d B", cap(in.buf))
			}
			if err != nil {
				break
			}
			if want := rest[4 : 4+len(pkt)]; !bytes.Equal(pkt, want) || binary.BigEndian.Uint32(rest) != uint32(len(pkt)) {
				t.Fatalf("the framing handed out %d B where the stream holds %d", len(pkt), binary.BigEndian.Uint32(rest))
			}
			rest = rest[4+len(pkt):]
		}
	})
}
