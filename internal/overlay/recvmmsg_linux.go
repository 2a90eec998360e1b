//go:build linux && (amd64 || arm64)

// recvmmsg(2) batch receive with UDP_GRO: one syscall drains a burst of
// reads from the UDP socket, mirroring the sendmmsg transmit path, and a
// read is a whole train — the datagrams of one UDP_SEGMENT send, or a
// run the NIC's GRO coalesced — with the segment size in a cmsg. The
// reader owns a fixed set of 64KiB buffers and mmsghdr/iovec/sockaddr/
// cmsg arrays, rebuilt never — readBatch's only per-read allocation is
// the owned copy handed up the stack, plus a decoded sender address when
// the sender differs from the previous read's.

package overlay

import (
	"encoding/binary"
	"net"
	"syscall"
	"unsafe"
)

// mmsgReader is the linux batchReader: a non-blocking recvmmsg loop
// integrated with the runtime poller via RawConn.Read (EAGAIN parks the
// goroutine until readable; EINTR retries the syscall).
type mmsgReader struct {
	rc    syscall.RawConn
	bufs  [][]byte
	iovs  []syscall.Iovec
	msgs  []mmsghdr
	names []syscall.RawSockaddrInet6 // big enough for both families
	ctl   []segCmsg                  // the kernel's UDP_GRO segment size, when a read is a train

	// The previous datagram's raw sockaddr and its decoded form: traffic
	// arrives in runs from one peer, and a *net.UDPAddr handed up the
	// stack is never written to, so a repeat sender reuses it.
	lastName syscall.RawSockaddrInet6
	lastFrom *net.UDPAddr

	// recv is the RawConn.Read callback, built once: it reads want and
	// reports through got/opErr, so a readBatch allocates no closure.
	recv      func(fd uintptr) bool
	want, got int
	opErr     error
}

func newPlatformBatchReader(c *net.UDPConn, batch int) batchReader {
	rc, err := c.SyscallConn()
	if err != nil {
		return nil
	}
	// Ask for trains whole. Only this reader can split one, so only it
	// asks; a kernel without the option keeps handing over datagrams.
	rc.Control(func(fd uintptr) { syscall.SetsockoptInt(int(fd), syscall.IPPROTO_UDP, udpGRO, 1) })
	r := &mmsgReader{
		rc:    rc,
		bufs:  make([][]byte, batch),
		iovs:  make([]syscall.Iovec, batch),
		msgs:  make([]mmsghdr, batch),
		names: make([]syscall.RawSockaddrInet6, batch),
		ctl:   make([]segCmsg, batch),
	}
	for i := range r.msgs {
		r.bufs[i] = make([]byte, 65536)
		r.iovs[i].Base = &r.bufs[i][0]
		r.iovs[i].SetLen(len(r.bufs[i]))
		r.msgs[i].hdr.Iov = &r.iovs[i]
		r.msgs[i].hdr.Iovlen = 1 // uint64 on both supported 64-bit arches
		r.msgs[i].hdr.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		r.msgs[i].hdr.Control = (*byte)(unsafe.Pointer(&r.ctl[i]))
	}
	r.recv = func(fd uintptr) bool {
		for {
			n1, _, errno := syscall.Syscall6(sysRecvmmsg, fd,
				uintptr(unsafe.Pointer(&r.msgs[0])), uintptr(r.want), 0, 0, 0)
			switch {
			case errno == syscall.EINTR:
				continue // interrupted before any datagram: retry
			case errno == syscall.EAGAIN:
				return false // park on the poller until readable
			case errno != 0:
				r.opErr = errno
				return true
			}
			r.got = int(n1)
			return true
		}
	}
	return r
}

func (r *mmsgReader) readBatch(into []rxPacket) (int, error) {
	r.want = len(into)
	if r.want > len(r.msgs) {
		r.want = len(r.msgs)
	}
	// Namelen and Controllen are value-result: the kernel shrinks them to
	// what it wrote, so both must be restored before every call.
	for i := 0; i < r.want; i++ {
		r.msgs[i].hdr.Namelen = uint32(unsafe.Sizeof(r.names[i]))
		r.msgs[i].hdr.SetControllen(int(unsafe.Sizeof(r.ctl[i])))
	}
	r.got, r.opErr = 0, nil
	if err := r.rc.Read(r.recv); err != nil {
		return 0, err // socket closed (shutdown) or poller error
	}
	if r.opErr != nil {
		return 0, r.opErr
	}
	got := r.got
	for i := 0; i < got; i++ {
		sz := int(r.msgs[i].cnt)
		pkt := make([]byte, sz)
		copy(pkt, r.bufs[i][:sz])
		if r.lastFrom == nil || r.names[i] != r.lastName {
			r.lastName, r.lastFrom = r.names[i], udpAddrOf(&r.names[i])
		}
		into[i] = rxPacket{pkt: pkt, from: r.lastFrom}
		if c := &r.ctl[i]; r.msgs[i].hdr.Controllen >= uint64(syscall.CmsgLen(4)) &&
			c.hdr.Level == syscall.IPPROTO_UDP && c.hdr.Type == udpGRO {
			into[i].seg = int(int32(binary.NativeEndian.Uint32(c.val[:])))
		}
	}
	return got, nil
}

// udpAddrOf decodes a kernel-written sockaddr into a *net.UDPAddr. The
// storage is RawSockaddrInet6-sized; AF_INET reinterprets the prefix as
// RawSockaddrInet4 (the layouts agree through the family field). Ports
// are network byte order in both.
func udpAddrOf(sa *syscall.RawSockaddrInet6) *net.UDPAddr {
	switch sa.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		ip := make(net.IP, 4)
		copy(ip, sa4.Addr[:])
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		return &net.UDPAddr{IP: ip, Port: int(p[0])<<8 | int(p[1])}
	case syscall.AF_INET6:
		ip := make(net.IP, 16)
		copy(ip, sa.Addr[:])
		p := (*[2]byte)(unsafe.Pointer(&sa.Port))
		addr := &net.UDPAddr{IP: ip, Port: int(p[0])<<8 | int(p[1])}
		if sa.Scope_id != 0 {
			// Numeric zone: enough for equality and attribution; the
			// overlay never dials zoned addresses itself.
			if ifi, err := net.InterfaceByIndex(int(sa.Scope_id)); err == nil {
				addr.Zone = ifi.Name
			}
		}
		return addr
	}
	return &net.UDPAddr{}
}
