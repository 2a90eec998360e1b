//go:build linux && (amd64 || arm64)

// The combiner's failure paths, driven through the sendmmsg seam
// (udpTx.sys): a test holds a link's sender inside the kernel, lets Sends
// pile frames up behind it, then releases it: with a panic, or after the
// watchdog has superseded it.
package overlay

import (
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/supervise"
)

// gatedLink builds a sender of config cfg whose link "wire" leads to a
// peer nobody reads (the kernel sheds what its buffer cannot hold; sends
// succeed), with every sendmmsg going through sys. It returns the node, the link
// and a maker of frames that each fill three datagrams: a batch of them
// always reaches sendmmsg.
func gatedLink(t *testing.T, cfg NodeConfig, sys func(fd uintptr, msgs []mmsghdr) (int, syscall.Errno)) (*Node, *link, func() *ethernet.Frame, *Endpoint) {
	t.Helper()
	n := dropNode(t, cfg)
	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	if err := n.AddLink("wire", peer.LocalAddr().String(), "udp"); err != nil {
		t.Fatal(err)
	}
	dst := ethernet.LocalMAC(9)
	if err := n.AddRoute(core.Route{DstMAC: dst, DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "wire"}}); err != nil {
		t.Fatal(err)
	}
	src, err := n.AttachEndpoint("src", ethernet.LocalMAC(1), ethernet.MaxMTU)
	if err != nil {
		t.Fatal(err)
	}
	n.tx.sys = sys
	big := func() *ethernet.Frame {
		f := testFrame(src.MAC(), dst)
		f.Payload = make([]byte, 3000)
		return f
	}
	return n, n.topo.Load().links["wire"], big, src
}

// holdFirst returns a seam that parks its first call until release is
// closed (entered is closed once it has), then answers every call with
// then.
func holdFirst(entered, release chan struct{}, then func(fd uintptr, msgs []mmsghdr) (int, syscall.Errno)) func(uintptr, []mmsghdr) (int, syscall.Errno) {
	var first atomic.Bool
	return func(fd uintptr, msgs []mmsghdr) (int, syscall.Errno) {
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		return then(fd, msgs)
	}
}

// TestRingSenderPanicInFlush: a panic inside a link's flush charges
// the batch in flight to tx_teardown, once. The supervisor restarts the
// sender, which resumes from what is pending — the frames Sends encoded
// while it was in the kernel — and sends it; nothing else is lost.
func TestRingSenderPanicInFlush(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	n, lk, big, src := gatedLink(t, NodeConfig{}, holdFirst(entered, release, func(fd uintptr, msgs []mmsghdr) (int, syscall.Errno) {
		if armed.CompareAndSwap(true, false) {
			panic("injected transmit panic")
		}
		return sendmmsg(fd, msgs)
	}))
	if err := src.Send(big()); err != nil {
		t.Fatal(err)
	}
	<-entered // the sender is flushing the first frame
	const pending = 5
	for i := 0; i < pending; i++ {
		if err := src.Send(big()); err != nil {
			t.Fatal(err)
		}
	}
	if d := lk.comb.depth(); d != pending {
		t.Fatalf("%d frames pending behind the flush, want %d", d, pending)
	}
	close(release)
	waitCount(t, n, dropTxTeardown, 1)
	settle(func() bool { return n.EncapSent.Load() == pending })
	if sent, d := n.EncapSent.Load(), lk.comb.depth(); sent != pending || d != 0 {
		t.Fatalf("after the panic: encap_sent = %d with %d pending, want %d and 0", sent, d, pending)
	}
	if got, total := n.ledger.Count(dropTxTeardown), n.ledger.Total(); got != 1 || total != 1 {
		t.Fatalf("tx_teardown = %d, ledger total = %d, want 1 each (the frame in flight)", got, total)
	}
	if r := lk.txw.Restarts(); r != 1 {
		t.Fatalf("sender restarted %d times, want 1", r)
	}
	if err := src.Send(big()); err != nil {
		t.Fatal(err)
	}
	settle(func() bool { return n.EncapSent.Load() == pending+1 })
	if sent := n.EncapSent.Load(); sent != pending+1 {
		t.Fatalf("encap_sent = %d, want %d: the restarted sender did not take the next Send", sent, pending+1)
	}
}

// TestRingSenderSupersededInFlush: a link's sender stuck in the kernel past
// the watchdog timeout is superseded, and Sends keep returning at once
// meanwhile. The fresh instance waits the stuck flush out — one flush on
// a link at a time, so nothing pending leaves while it is in the kernel —
// and the stuck one, once released, sends nothing more: the fresh one
// sends what was pending, and nothing is lost.
func TestRingSenderSupersededInFlush(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var inKernel, overlapped atomic.Int32
	cfg := NodeConfig{}.WithSupervise(supervise.Config{StallTimeout: 30 * time.Millisecond, WatchdogInterval: 10 * time.Millisecond})
	n, lk, big, src := gatedLink(t, cfg, holdFirst(entered, release, func(fd uintptr, msgs []mmsghdr) (int, syscall.Errno) {
		if inKernel.Add(1) > 1 {
			overlapped.Add(1)
		}
		defer inKernel.Add(-1)
		return sendmmsg(fd, msgs)
	}))
	if err := src.Send(big()); err != nil {
		t.Fatal(err)
	}
	<-entered
	if settle(func() bool { return lk.txw.Restarts() >= 1 }); lk.txw.Restarts() == 0 {
		t.Fatal("the watchdog never superseded the stuck sender")
	}
	const pending = 5
	for i := 0; i < pending; i++ {
		if err := src.Send(big()); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(20 * time.Millisecond) // the fresh instance would have flushed by now
	if sent, d := n.EncapSent.Load(), lk.comb.depth(); sent != 0 || d != pending {
		t.Fatalf("while the stuck flush is in the kernel: encap_sent = %d with %d pending, want 0 and %d", sent, d, pending)
	}
	close(release)
	settle(func() bool { return n.EncapSent.Load() == pending+1 })
	if sent, d := n.EncapSent.Load(), lk.comb.depth(); sent != pending+1 || d != 0 {
		t.Fatalf("encap_sent = %d with %d pending, want %d and 0", sent, d, pending+1)
	}
	if o, total := overlapped.Load(), n.ledger.Total(); o != 0 || total != 0 {
		t.Fatalf("%d flushes overlapped another, ledger total = %d; want 0 and 0", o, total)
	}
}
