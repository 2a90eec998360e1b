//go:build linux && (amd64 || arm64)

// recvmmsg(2) batch receive with UDP_GRO: one syscall drains a burst of
// reads from the UDP socket, mirroring the sendmmsg transmit path, and a
// read is a whole train — the datagrams of one UDP_SEGMENT send, or a
// run the NIC's GRO coalesced — with the segment size in a cmsg. The
// reader owns its 64KiB buffers and mmsghdr/iovec/sockaddr/cmsg arrays,
// rebuilt never, and hands the buffers themselves up the stack
// (rxPacket): readBatch allocates only a decoded sender address when the
// sender differs from the previous read's, and buffers as it grows.
// listenUDP makes the sockets: one per receive worker, sharing one port.

package overlay

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"syscall"
	"unsafe"
)

// soReusePort is SO_REUSEPORT (asm-generic/socket.h): the frozen stdlib
// syscall table carries it for arm64 only.
const soReusePort = 15

// listenUDP binds the node's UDP address once per receive worker. The
// sockets share the port (SO_REUSEPORT) and the kernel spreads senders
// over them by 4-tuple hash, so one sender's datagrams always reach the
// same socket, in order. bind may leave the port to the kernel: the
// sockets after the first take the one the first was given.
func listenUDP(bind string, workers int) ([]*net.UDPConn, error) {
	lc := net.ListenConfig{Control: func(_, _ string, rc syscall.RawConn) (err error) {
		cerr := rc.Control(func(fd uintptr) {
			err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
			// Best effort: without it overload at this socket goes unreported.
			syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RXQ_OVFL, 1)
		})
		return errors.Join(cerr, err)
	}}
	conns := make([]*net.UDPConn, 0, workers)
	for len(conns) < workers {
		pc, err := lc.ListenPacket(context.Background(), "udp", bind)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		conns = append(conns, pc.(*net.UDPConn))
		bind = conns[0].LocalAddr().String()
	}
	return conns, nil
}

// rxCmsgs is one read's control space: room for the two messages a
// socket of ours can attach, each a 4-byte value.
type rxCmsgs [2]segCmsg

// mmsgReader is the linux batchReader: a non-blocking recvmmsg loop
// integrated with the runtime poller via RawConn.Read (EAGAIN parks the
// goroutine until readable; EINTR retries the syscall).
type mmsgReader struct {
	rc    syscall.RawConn
	bufs  [][]byte // 64KiB each
	ready int      // slots that have theirs so far (grow)
	iovs  []syscall.Iovec
	msgs  []mmsghdr
	names []syscall.RawSockaddrInet6 // big enough for both families
	ctl   []rxCmsgs                  // per read: the UDP_GRO segment size of a train, the SO_RXQ_OVFL count

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
		ctl:   make([]rxCmsgs, batch),
	}
	for i := range r.msgs {
		r.msgs[i].hdr.Iov = &r.iovs[i]
		r.msgs[i].hdr.Iovlen = 1 // uint64 on both supported 64-bit arches
		r.msgs[i].hdr.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		r.msgs[i].hdr.Control = (*byte)(unsafe.Pointer(&r.ctl[i]))
	}
	r.grow(2)
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

// grow gives slots their buffers until n have one: a reader starts with
// two and doubles them when a read fills every slot offered, so a worker
// whose socket the kernel's hash leaves idle never allocates its 1MiB.
func (r *mmsgReader) grow(n int) {
	for ; r.ready < min(n, len(r.msgs)); r.ready++ {
		buf := make([]byte, 65536)
		r.bufs[r.ready] = buf
		r.iovs[r.ready].Base = &buf[0]
		r.iovs[r.ready].SetLen(len(buf))
	}
}

func (r *mmsgReader) readBatch(into []rxPacket) (int, error) {
	r.want = min(len(into), r.ready)
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
		if r.lastFrom == nil || r.names[i] != r.lastName {
			r.lastName, r.lastFrom = r.names[i], udpAddrOf(&r.names[i])
		}
		into[i] = rxPacket{pkt: r.bufs[i][:sz:sz], from: r.lastFrom}
		// The kernel packs the messages it attached from the front of the
		// control space, each CMSG_SPACE(4) long like the slots.
		used := int(r.msgs[i].hdr.Controllen / uint64(unsafe.Sizeof(segCmsg{})))
		for _, c := range r.ctl[i][:min(used, len(r.ctl[i]))] {
			v := binary.NativeEndian.Uint32(c.val[:])
			switch {
			case c.hdr.Level == syscall.IPPROTO_UDP && c.hdr.Type == udpGRO:
				into[i].seg = int(int32(v))
			case c.hdr.Level == syscall.SOL_SOCKET && c.hdr.Type == syscall.SO_RXQ_OVFL:
				into[i].ovfl = v
			}
		}
	}
	if got == r.ready { // every slot came back full: more was waiting
		r.grow(2 * r.ready)
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
