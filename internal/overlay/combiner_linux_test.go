//go:build linux && (amd64 || arm64)

// The combiner's bounds and failure paths, driven through the sendmmsg
// seam (udpTx.sys): a test holds the holder — a Send, or a ring link's
// sender — inside the kernel, lets other senders pile frames up behind
// it, then releases it: slowly, with an error, or with a panic.
package overlay

import (
	"errors"
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"vnetp/internal/bridge"
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

// TestCombinerHolderBound: one goroutine sends in an open loop while
// another Send holds the link. Without a bound the holder would carry the
// loop's frames for as long as the loop runs; instead it hands the role
// to the loop's next Send after holderSwaps flushes and returns.
func TestCombinerHolderBound(t *testing.T) {
	const flushTime = 2 * time.Millisecond
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	_, _, big, src := gatedLink(t, NodeConfig{}, holdFirst(entered, release, func(fd uintptr, msgs []mmsghdr) (int, syscall.Errno) {
		calls.Add(1)
		time.Sleep(flushTime)
		return sendmmsg(fd, msgs)
	}))
	type result struct {
		err   error
		calls int64
	}
	once := make(chan result, 1)
	go func() {
		err := src.Send(big())
		once <- result{err, calls.Load()}
	}()
	<-entered // the lone Send holds the link and is in the kernel

	stop, loopDone := make(chan struct{}), make(chan struct{})
	var looped atomic.Int64
	go func() {
		defer close(loopDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := src.Send(big()); err != nil {
				t.Error(err)
				return
			}
			looped.Add(1)
		}
	}()
	for looped.Load() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	close(release) // the holder finds the loop's frames pending, and more keep coming

	var r result
	select {
	case r = <-once:
	case <-time.After(5 * time.Second):
		close(stop)
		<-loopDone
		t.Fatal("a Send held the link for 5 s while another goroutine kept it busy")
	}
	close(stop)
	<-loopDone
	if r.err != nil {
		t.Fatal(r.err)
	}
	// Its own flush and holderSwaps-1 more; the heir may have begun one.
	if r.calls > holderSwaps+1 {
		t.Fatalf("the holder's Send returned after %d flushes, want at most %d", r.calls, holderSwaps+1)
	}
	if r.calls < holderSwaps {
		t.Fatalf("the holder returned after %d flushes with the loop's frames still coming: the test did not keep it busy", r.calls)
	}
}

// TestCombinerFullPendingBlocks: while the holder is in the kernel, a
// sender's Send returns as soon as its frame is encoded — until pending
// holds txPendingBytes. The next Send blocks, as at a full socket, and is
// released by the holder's next swap. Nothing is dropped.
func TestCombinerFullPendingBlocks(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	n, lk, big, src := gatedLink(t, NodeConfig{}, holdFirst(entered, release, sendmmsg))
	holder := make(chan error, 1)
	go func() { holder <- src.Send(big()) }()
	<-entered

	// Every frame adds at least its record to pending: this many always
	// find it full before the last one.
	fill := txPendingBytes/bridge.RecordLen(big()) + 2
	var returned atomic.Int64
	filler := make(chan error, 1)
	go func() {
		for i := 0; i < fill; i++ {
			if err := src.Send(big()); err != nil {
				filler <- err
				return
			}
			returned.Add(1)
		}
		filler <- nil
	}()
	pending := func() (frames, size int) {
		lk.comb.mu.Lock()
		defer lk.comb.mu.Unlock()
		return len(lk.comb.pending().frames), lk.comb.pending().size()
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, size := pending(); size >= txPendingBytes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pending never filled")
		}
	}
	time.Sleep(20 * time.Millisecond) // room for a Send that should block to return
	if frames, size := pending(); returned.Load() != int64(frames) || frames >= fill {
		t.Fatalf("with pending full (%d frames, %d B) %d of %d Sends returned, want one per pending frame and the next blocked", frames, size, returned.Load(), fill)
	}
	close(release)
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	if err := <-filler; err != nil {
		t.Fatal(err)
	}
	if sent, drops, errs := n.EncapSent.Load(), n.ledger.Total(), lk.sendErrors.Load(); sent != uint64(fill)+1 || drops != 0 || errs != 0 {
		t.Fatalf("encap_sent=%d drops=%d send_errors=%d, want %d, 0, 0", sent, drops, errs, fill+1)
	}
}

// TestCombinerErrors: the transport refuses everything. The holder's own
// frame is the error its Send returns; the frames other Sends left with it
// — those Sends returned nil — land on tx_error, one each. Every datagram
// — the holder's frame's, and the train the others shared — is a send
// error and none is sent.
func TestCombinerErrors(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	n, lk, big, src := gatedLink(t, NodeConfig{}, holdFirst(entered, release, func(uintptr, []mmsghdr) (int, syscall.Errno) {
		return 0, syscall.EPERM
	}))
	holder := make(chan error, 1)
	go func() { holder <- src.Send(big()) }()
	<-entered
	const combined = 5
	for i := 0; i < combined; i++ {
		if err := src.Send(big()); err != nil {
			t.Fatalf("combined Send %d returned %v: its frame is the holder's to send", i, err)
		}
	}
	close(release)
	if err := <-holder; !errors.Is(err, syscall.EPERM) {
		t.Fatalf("the holder's Send returned %v, want its own frame's EPERM", err)
	}
	if txErr, total := n.ledger.Count(dropTxError), n.ledger.Total(); txErr != combined || total != combined {
		t.Fatalf("tx_error = %d, ledger total = %d, want %d each (the holder's frame is its error, not a drop)", txErr, total, combined)
	}
	// The holder's frame left alone, the ones it carried as one train.
	chunk := maxDatagram - bridge.EncapHeaderLen
	cut := func(frames int) uint64 { return uint64((frames*bridge.RecordLen(big()) + chunk - 1) / chunk) }
	if sent, errs := n.EncapSent.Load(), lk.sendErrors.Load(); sent != 0 || errs != cut(1)+cut(combined) {
		t.Fatalf("encap_sent=%d send_errors=%d, want 0 and %d", sent, errs, cut(1)+cut(combined))
	}
}

// TestCombinerHolderPanic: a panic inside the holder's transmit reaches
// the holder's caller, but not before the role is released: the frames it
// had in flight and the ones pending behind it land on tx_teardown, and
// the link takes the next Send as if nothing happened.
func TestCombinerHolderPanic(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	n, lk, big, src := gatedLink(t, NodeConfig{}, holdFirst(entered, release, func(fd uintptr, msgs []mmsghdr) (int, syscall.Errno) {
		if armed.CompareAndSwap(true, false) {
			panic("injected transmit panic")
		}
		return sendmmsg(fd, msgs)
	}))
	holder := make(chan any, 1)
	go func() {
		defer func() { holder <- recover() }()
		src.Send(big())
	}()
	<-entered
	const combined = 5
	for i := 0; i < combined; i++ {
		if err := src.Send(big()); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	if p := <-holder; p == nil {
		t.Fatal("the transmit panic did not reach the holder's caller")
	}
	if got, total := n.ledger.Count(dropTxTeardown), n.ledger.Total(); got != combined+1 || total != got {
		t.Fatalf("tx_teardown = %d, ledger total = %d, want %d each", got, total, combined+1)
	}
	lk.comb.mu.Lock()
	busy, pending := lk.comb.busy, len(lk.comb.pending().frames)
	lk.comb.mu.Unlock()
	if busy || pending != 0 {
		t.Fatalf("after the panic: link busy=%v with %d frames pending", busy, pending)
	}
	if err := src.Send(big()); err != nil {
		t.Fatalf("the link refused a Send after the panic: %v", err)
	}
	if sent := n.EncapSent.Load(); sent != 1 {
		t.Fatalf("encap_sent = %d after the panic, want the one frame sent since", sent)
	}
}

// TestRingSenderPanicInFlush: a panic inside a ring link's flush charges
// the batch in flight to tx_teardown, once. The supervisor restarts the
// sender, which resumes from what is pending — the frames Sends encoded
// while it was in the kernel — and sends it; nothing else is lost.
func TestRingSenderPanicInFlush(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var armed atomic.Bool
	armed.Store(true)
	n, lk, big, src := gatedLink(t, RingConfig(), holdFirst(entered, release, func(fd uintptr, msgs []mmsghdr) (int, syscall.Errno) {
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

// TestRingSenderSupersededInFlush: a ring sender stuck in the kernel past
// the watchdog timeout is superseded, and Sends keep returning at once
// meanwhile. The fresh instance waits the stuck flush out — one flush on
// a link at a time, so nothing pending leaves while it is in the kernel —
// and the stuck one, once released, sends nothing more: the fresh one
// sends what was pending, and nothing is lost.
func TestRingSenderSupersededInFlush(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var inKernel, overlapped atomic.Int32
	cfg := RingConfig().WithSupervise(supervise.Config{StallTimeout: 30 * time.Millisecond, WatchdogInterval: 10 * time.Millisecond})
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
