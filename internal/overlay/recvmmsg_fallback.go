//go:build !linux || !(amd64 || arm64)

package overlay

import "net"

// newPlatformBatchReader on platforms without recvmmsg: no batch
// reader; the caller falls back to the portable per-datagram loop.
func newPlatformBatchReader(c *net.UDPConn, batch int) batchReader {
	return nil
}

// listenUDP on platforms where this package sets no socket options: one
// plain socket, so one receive worker whatever was asked for.
func listenUDP(bind string, workers int) ([]*net.UDPConn, error) {
	pc, err := net.ListenPacket("udp", bind)
	if err != nil {
		return nil, err
	}
	return []*net.UDPConn{pc.(*net.UDPConn)}, nil
}
