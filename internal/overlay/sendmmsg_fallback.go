//go:build !linux || !(amd64 || arm64)

package overlay

import "net"

// udpTx on platforms without sendmmsg holds nothing: every send is the
// portable per-datagram loop. Batching still amortizes wakeups and
// encapsulation buffers; only the syscall count stays per-datagram.
type udpTx struct{}

func (*udpTx) init(*net.UDPConn) {}

func sockaddrFor(*net.UDPConn, *net.UDPAddr) []byte { return nil }

func (n *Node) sendBatchUDP(_ *link, tr *linkTransport, dgs [][]byte) (int, error) {
	return sendBatchUDPFallback(n.conn, dgs, tr.addr)
}
