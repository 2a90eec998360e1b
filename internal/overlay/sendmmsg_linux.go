//go:build linux && (amd64 || arm64)

// sendmmsg(2) batch transmit with UDP segmentation offload: one syscall
// moves a whole TX batch, the userspace analogue of the per-batch (not
// per-packet) VMM exits the paper credits for VNET/P's throughput
// (Sect. 4.3) — and within it a train of datagrams (what cutting a
// batch's record train, or one long frame, produces) is one message with a
// UDP_SEGMENT cmsg, so it makes one trip through the UDP/IP stack instead
// of one per datagram. The
// netmap/mTCP line of work (PAPERS.md) names both levers: the syscall and
// the per-packet stack walk.

package overlay

import (
	"encoding/binary"
	"net"
	"runtime"
	"sync"
	"syscall"
	"unsafe"

	"vnetp/internal/bridge"
)

// UDP segmentation offload (linux/udp.h; the frozen stdlib syscall table
// predates both options) and the limits the kernel holds one UDP_SEGMENT
// message to, which the bridge cuts record trains to fit.
const (
	udpSegment = 103 // cmsg on a send: uint16 segment size
	udpGRO     = 104 // sockopt; cmsg on a receive: int segment size

	maxTrainSegs  = bridge.MaxTrainSegments
	maxTrainBytes = bridge.MaxTrainBytes
)

// mmsghdr mirrors struct mmsghdr on 64-bit Linux: a msghdr plus the
// kernel-filled per-message byte count, padded so array elements stay
// 8-byte aligned.
type mmsghdr struct {
	hdr syscall.Msghdr
	cnt uint32
	_   [4]byte
}

// segCmsg is one control message carrying a segment size — UDP_SEGMENT's
// uint16 going out, UDP_GRO's int coming in — in CMSG_SPACE(4) bytes.
type segCmsg struct {
	hdr syscall.Cmsghdr
	val [8]byte
}

// udpTx is a node's raw UDP transmit state: the socket's RawConn, taken
// once, and the pooled per-call syscall scratch.
type udpTx struct {
	rc   syscall.RawConn // nil when the socket gives none: the portable loop sends
	pool sync.Pool       // *txMsgs

	// Test seams: sys is sendmmsg(2), where a test injects a refusal;
	// plain holds every train to one datagram, as a refused link's are.
	sys   func(fd uintptr, msgs []mmsghdr) (int, syscall.Errno)
	plain bool
}

func (tx *udpTx) init(c *net.UDPConn) {
	tx.rc, _ = c.SyscallConn()
	tx.sys = sendmmsg
}

func sendmmsg(fd uintptr, msgs []mmsghdr) (int, syscall.Errno) {
	r1, _, errno := syscall.Syscall6(sysSendmmsg, fd,
		uintptr(unsafe.Pointer(&msgs[0])), uintptr(len(msgs)), 0, 0, 0)
	return int(r1), errno
}

// txMsgs is one sendBatchUDP call's scratch: an iovec per datagram, a
// msghdr and a segment-size cmsg per train, and the RawConn.Write
// callback, built once so a send allocates no closure. The callback
// sends msgs[sent:n], advancing sent, and reports through errno.
type txMsgs struct {
	iovs    []syscall.Iovec
	msgs    []mmsghdr
	ctl     []segCmsg
	write   func(fd uintptr) bool
	n, sent int
	errno   syscall.Errno
}

func newTxMsgs(tx *udpTx) *txMsgs {
	m := &txMsgs{}
	m.write = func(fd uintptr) bool {
		for m.sent < m.n {
			took, errno := tx.sys(fd, m.msgs[m.sent:m.n])
			switch {
			case errno == syscall.EINTR:
				continue
			case errno == syscall.EAGAIN:
				return false // reschedule on the poller until writable
			case errno != 0:
				m.errno = errno
				return true
			}
			m.sent += took
		}
		return true
	}
	return m
}

// trainLen reports how many leading datagrams of dgs leave as one
// UDP_SEGMENT message: a run of equal-sized datagrams and at most one
// shorter one behind it — what the fragment loop emits for a record
// train or a frame — held to the kernel's limits. A longer datagram, or any after a shorter
// one, starts the next train.
func trainLen(dgs [][]byte) int {
	seg, size, n := len(dgs[0]), len(dgs[0]), 1
	for n < len(dgs) && n < maxTrainSegs && len(dgs[n-1]) == seg &&
		len(dgs[n]) <= seg && size+len(dgs[n]) <= maxTrainBytes {
		size += len(dgs[n])
		n++
	}
	return n
}

// build lays dgs out as messages to sa: one msghdr per train with an
// iovec per datagram and, when the train is longer than one, a
// UDP_SEGMENT cmsg naming its segment size. Without offload every train
// is one datagram: the same messages, no cmsg.
func (m *txMsgs) build(dgs [][]byte, sa []byte, offload bool) {
	if cap(m.iovs) < len(dgs) {
		m.iovs = make([]syscall.Iovec, len(dgs))
		m.msgs = make([]mmsghdr, len(dgs))
		m.ctl = make([]segCmsg, len(dgs))
	}
	m.n, m.sent, m.errno = 0, 0, 0
	for i := 0; i < len(dgs); m.n++ {
		cnt := 1
		if offload {
			cnt = trainLen(dgs[i:])
		}
		for j, d := range dgs[i : i+cnt] {
			m.iovs[i+j].Base = &d[0]
			m.iovs[i+j].SetLen(len(d))
		}
		h := &m.msgs[m.n].hdr
		*h = syscall.Msghdr{Name: &sa[0], Namelen: uint32(len(sa)), Iov: &m.iovs[i], Iovlen: uint64(cnt)} // Iovlen is uint64 on both supported arches
		if cnt > 1 {
			c := &m.ctl[m.n]
			c.hdr = syscall.Cmsghdr{Level: syscall.IPPROTO_UDP, Type: udpSegment}
			c.hdr.SetLen(syscall.CmsgLen(2))
			binary.NativeEndian.PutUint16(c.val[:], uint16(len(dgs[i])))
			h.Control = (*byte)(unsafe.Pointer(c))
			h.SetControllen(int(unsafe.Sizeof(*c)))
		}
		i += cnt
	}
}

// sendBatchUDP transmits a batch of datagrams over the link's UDP
// transport in as few syscalls, and as few trips through the kernel's
// UDP/IP stack, as possible. It returns how many datagrams were sent; on
// error the remainder were not (a train is sent whole or not at all).
//
// Whether the path takes UDP_SEGMENT is learned from traffic: the first
// train the kernel refuses (no checksum offload on the device, a segment
// over the path MTU, a kernel without the option) is remembered against
// the link's transport snapshot, and it and everything behind it are
// rebuilt as plain messages and sent within this call. A lone datagram,
// and a destination whose sockaddr the stdlib must translate, take the
// portable per-datagram loop.
func (n *Node) sendBatchUDP(lk *link, tr *linkTransport, dgs [][]byte) (confirmed int, err error) {
	tx := &n.tx
	if len(dgs) <= 1 || tr.sa == nil || tx.rc == nil {
		return sendBatchUDPFallback(n.conn, dgs, tr.addr)
	}
	m, _ := tx.pool.Get().(*txMsgs)
	if m == nil {
		m = newTxMsgs(tx)
	}
	offload := !tx.plain && lk.refused.Load() != tr
	for {
		m.build(dgs[confirmed:], tr.sa, offload)
		err = tx.rc.Write(m.write)
		for _, msg := range m.msgs[:m.sent] {
			confirmed += int(msg.hdr.Iovlen)
		}
		if err != nil || m.errno == 0 {
			break // the socket is closed, or everything was sent
		}
		if e := m.errno; !offload || m.msgs[m.sent].hdr.Iovlen == 1 ||
			(e != syscall.EIO && e != syscall.EINVAL && e != syscall.ENOPROTOOPT) {
			err = e
			break
		}
		offload = false
		lk.refused.Store(tr)
	}
	runtime.KeepAlive(dgs)
	tx.pool.Put(m)
	return confirmed, err
}

// sockaddrFor builds the raw destination sockaddr matching the socket's
// address family, or nil when the combination needs the stdlib's
// translation (dual-stack wildcard, v4/v6 mismatch, zoned address).
func sockaddrFor(c *net.UDPConn, addr *net.UDPAddr) []byte {
	local, _ := c.LocalAddr().(*net.UDPAddr)
	if local == nil || len(local.IP) == 0 {
		// Wildcard bind: the socket may be dual-stack AF_INET6 expecting
		// v4-mapped destinations — let WriteToUDP translate.
		return nil
	}
	var raw []byte
	if dst4, dst16 := addr.IP.To4(), addr.IP.To16(); local.IP.To4() != nil && dst4 != nil {
		sa := &syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		copy(sa.Addr[:], dst4)
		raw = (*[syscall.SizeofSockaddrInet4]byte)(unsafe.Pointer(sa))[:]
	} else if local.IP.To4() == nil && dst16 != nil && addr.Zone == "" {
		sa := &syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
		copy(sa.Addr[:], dst16)
		raw = (*[syscall.SizeofSockaddrInet6]byte)(unsafe.Pointer(sa))[:]
	} else {
		return nil
	}
	binary.BigEndian.PutUint16(raw[2:], uint16(addr.Port)) // sin_port and sin6_port both follow the family
	return raw
}
