package overlay

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"vnetp/internal/bridge"
	"vnetp/internal/telemetry"
)

// TCP encapsulation (paper Sect. 4.2: "The overlay carries Ethernet
// packets encapsulated in UDP packets, TCP streams with and without SSL
// encryption, ..."): each encapsulation datagram is carried
// length-prefixed on a persistent TCP connection. TCP links suit lossy or
// middlebox-ridden wide-area paths; UDP remains the fast path.

// tcpMaxDatagram is the per-datagram budget on TCP links: large, since
// TCP handles segmentation itself, but within the encapsulation header's
// 16-bit length fields.
const tcpMaxDatagram = 32 << 10

// tcpDialTimeout bounds how long a lazy dial may block a send path.
const tcpDialTimeout = 2 * time.Second

// tcpConn is one direction-agnostic TCP transport attached to a link
// (outbound) or to the accept loop (inbound). The mutex serializes
// writers: data sends, probe sends, and probe replies all share it.
type tcpConn struct {
	mu   sync.Mutex
	conn net.Conn
	w    *bufio.Writer
}

// sendDatagrams writes a whole batch of length-prefixed datagrams under
// one writer-lock acquisition and a single flush — the TCP analogue of
// the UDP path's sendmmsg. Returns how many datagrams were confirmed,
// mirroring sendBatchUDP: every datagram fully written before a
// mid-batch write error counts (the buffered writer flushed them
// implicitly to make room), and a successful final flush confirms the
// whole batch — but a failed final flush confirms nothing, since any of
// the still-buffered tail may have been lost with it. On error the
// stream is mid-datagram and the caller must drop the transport.
func (c *tcpConn) sendDatagrams(ds [][]byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var hdr [4]byte
	for i, d := range ds {
		binary.BigEndian.PutUint32(hdr[:], uint32(len(d)))
		if _, err := c.w.Write(hdr[:]); err != nil {
			return i, err
		}
		if _, err := c.w.Write(d); err != nil {
			return i, err
		}
	}
	if err := c.w.Flush(); err != nil {
		return 0, err
	}
	return len(ds), nil
}

func (c *tcpConn) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		c.conn.Close()
	}
}

// listenNode binds a node's UDP sockets and, on the same port, its TCP
// listener. The kernel picks a free port (port 0) for UDP alone, and that
// number may be taken for TCP — by another process's connection, say — so
// a node asked for any free port tries up to eight. On a port the caller
// chose, failing to bind TCP is tolerated: TCP links can still dial out,
// only inbound TCP is unavailable (a nil listener).
func listenNode(bind string, workers int) ([]*net.UDPConn, net.Listener, error) {
	_, port, _ := net.SplitHostPort(bind)
	for try := 1; ; try++ {
		conns, err := listenUDP(bind, workers)
		if err != nil {
			return nil, nil, err
		}
		ln, err := net.Listen("tcp", conns[0].LocalAddr().String())
		if err == nil || port != "0" || try == 8 {
			return conns, ln, nil
		}
		for _, c := range conns {
			c.Close()
		}
	}
}

func (n *Node) acceptTCP() {
	defer n.wg.Done()
	for {
		conn, err := n.tcpLn.Accept()
		if err != nil {
			return
		}
		c := &tcpConn{conn: conn, w: bufio.NewWriter(conn)}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.tcpConns[c] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.readTCP(c, nil)
			n.mu.Lock()
			delete(n.tcpConns, c)
			n.mu.Unlock()
		}()
	}
}

// readTCP consumes length-prefixed encapsulation datagrams from one TCP
// connection and hands each to datagram, which answers a probe down this
// connection. lk is the link that dialed the connection, or nil for
// accepted inbound connections; when set, the link's transport slot is
// cleared on exit so the health monitor redials.
func (n *Node) readTCP(c *tcpConn, lk *link) {
	defer c.close()
	if lk != nil {
		defer n.dropTransport(lk, c)
	}
	key := "tcp/" + c.conn.RemoteAddr().String()
	shard := n.shardFor(key)
	in := tcpFrames{r: bufio.NewReader(c.conn)}
	for {
		pkt, err := in.next()
		if errors.Is(err, errTCPFrame) {
			n.drop(dropBadPacket, 1, telemetry.DropDetail{Scope: key, Stage: "tcp_frame"})
			return
		}
		if err != nil {
			return
		}
		at := n.mono()
		if lk != nil { // inbound accepted conns have no link to attribute to
			lk.bytesRecv.Add(uint64(4 + len(pkt))) // the length prefix and the datagram
		}
		n.datagram(shard, key, nil, c, pkt, at)
	}
}

// errTCPFrame is a length prefix no datagram has: zero, or past the
// largest datagram a peer may send.
var errTCPFrame = errors.New("overlay: tcp frame length out of range")

// tcpFrames reads one TCP stream's length-prefixed datagrams into one
// reused buffer, which never grows past the largest datagram a peer may
// send.
type tcpFrames struct {
	r   *bufio.Reader
	buf []byte
}

// next returns the stream's next datagram, borrowed until the next call
// (processData borrows it, as from a UDP reader).
func (in *tcpFrames) next() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(in.r, hdr[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr[:])
	if size == 0 || size > tcpMaxDatagram+bridge.EncapHeaderLen {
		return nil, errTCPFrame
	}
	if int(size) > cap(in.buf) {
		in.buf = make([]byte, size)
	}
	pkt := in.buf[:size:size]
	if _, err := io.ReadFull(in.r, pkt); err != nil {
		return nil, err
	}
	return pkt, nil
}

// dialTCP returns a link's TCP transport: the established one with one
// atomic load, else — under n.mu — a fresh dial, respecting the link's
// redial backoff window. Caller holds no locks.
func (n *Node) dialTCP(lk *link) (*tcpConn, error) {
	if c := lk.tcp.Load(); c != nil {
		return c, nil
	}
	n.mu.Lock()
	if c := lk.tcp.Load(); c != nil {
		n.mu.Unlock()
		return c, nil
	}
	if now := time.Now(); now.Before(lk.redialAt) {
		n.mu.Unlock()
		return nil, fmt.Errorf("overlay: tcp link %q backing off %v", lk.id, time.Until(lk.redialAt).Round(time.Millisecond))
	}
	remote := lk.remote
	n.mu.Unlock()

	conn, err := net.DialTimeout("tcp", remote, tcpDialTimeout)

	n.mu.Lock()
	if err != nil {
		n.bumpBackoffLocked(lk)
		n.mu.Unlock()
		return nil, fmt.Errorf("overlay: tcp link %q: %w", lk.id, err)
	}
	if existing := lk.tcp.Load(); existing != nil { // lost the race; keep the first
		n.mu.Unlock()
		conn.Close()
		return existing, nil
	}
	if n.closed {
		n.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("overlay: node closed")
	}
	c := &tcpConn{conn: conn, w: bufio.NewWriter(conn)}
	lk.tcp.Store(c)
	lk.redialBackoff = 0
	lk.redialAt = time.Time{}
	if lk.dialed { // a transport existed before: this is a redial
		if lk.health != nil {
			lk.health.redials.Inc()
		}
	}
	lk.dialed = true
	// The outbound connection needs its own reader: probe replies (and
	// any data the peer pushes back on the stream) arrive here.
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.readTCP(c, lk)
	}()
	n.mu.Unlock()
	return c, nil
}

// dropTransport detaches a dead TCP transport from its link (if still
// attached) and starts the redial backoff clock.
func (n *Node) dropTransport(lk *link, c *tcpConn) {
	n.mu.Lock()
	if lk.tcp.CompareAndSwap(c, nil) {
		n.bumpBackoffLocked(lk)
	}
	n.mu.Unlock()
	c.close()
}

// bumpBackoffLocked advances a link's capped exponential redial backoff
// within the node's health configuration's bounds (normalized, monitor
// on or off). Caller holds n.mu.
func (n *Node) bumpBackoffLocked(lk *link) {
	if lk.redialBackoff == 0 {
		lk.redialBackoff = n.healthCfg.RedialMin
	} else {
		lk.redialBackoff = min(2*lk.redialBackoff, n.healthCfg.RedialMax)
	}
	lk.redialAt = time.Now().Add(lk.redialBackoff)
}
