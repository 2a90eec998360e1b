// The batched receive front end: the read loop's socket access goes
// through a batchReader so linux/{amd64,arm64} hosts can drain the UDP
// socket with recvmmsg(2) — one syscall per batch, the receive-side twin
// of the sendmmsg transmit path (Sect. 4.3's per-batch, not per-packet,
// exit economics) — while every other platform keeps the portable
// one-ReadFromUDP-per-datagram loop with identical semantics.

package overlay

import "net"

// rxBatch is the read loop's per-wakeup budget of socket reads. 16
// amortizes the syscall well past the knee of the curve without holding
// a burst's worth of 64KiB buffers.
const rxBatch = 16

// rxPacket is one socket read, borrowed: pkt aliases the reader's own
// buffer and is valid until the reader's next readBatch, so whoever keeps
// bytes past that copies them. A read is one datagram, or — seg > 0, from
// a UDP_GRO socket — a train: datagrams of seg bytes each, the last
// possibly shorter, back to back. ovfl, when non-zero, is how many
// datagrams the kernel had shed at the socket's full receive queue, since
// the socket was made, when it queued this one (SO_RXQ_OVFL).
type rxPacket struct {
	pkt  []byte
	seg  int
	from *net.UDPAddr
	ovfl uint32
}

// nextSegment splits the leading datagram off a read (seg as in
// rxPacket). The head's capacity ends with it, so nothing opened or
// appended in place can reach the datagram behind.
func nextSegment(pkt []byte, seg int) (head, rest []byte) {
	if seg <= 0 || seg >= len(pkt) {
		return pkt, nil
	}
	return pkt[:seg:seg], pkt[seg:]
}

// batchReader abstracts "drain up to len(into) reads from the socket".
// readBatch blocks until at least one datagram is available, fills
// into[0:n] with reads out of its own buffers, overwriting what it handed
// out before, and returns n. A socket error (including close during
// shutdown) returns err; the read loop treats any error as retirement.
type batchReader interface {
	readBatch(into []rxPacket) (int, error)
}

// singleReader is the portable batchReader: one blocking ReadFromUDP
// per call, so batches degenerate to size one. Used on platforms
// without recvmmsg.
type singleReader struct {
	c   *net.UDPConn
	buf []byte
}

func (r *singleReader) readBatch(into []rxPacket) (int, error) {
	sz, from, err := r.c.ReadFromUDP(r.buf)
	if err != nil {
		return 0, err
	}
	into[0] = rxPacket{pkt: r.buf[:sz:sz], from: from}
	return 1, nil
}

// newBatchReader picks the reader for this platform: the recvmmsg
// reader where there is one, the portable single-datagram reader
// elsewhere (and when portable is set, see NodeConfig.portableRx).
func newBatchReader(c *net.UDPConn, portable bool) batchReader {
	if !portable {
		if r := newPlatformBatchReader(c, rxBatch); r != nil {
			return r
		}
	}
	return &singleReader{c: c, buf: make([]byte, 65536)}
}
