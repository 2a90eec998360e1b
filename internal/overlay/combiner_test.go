// One batch per link: every Send encodes its frame into the link's pending
// batch, and the link's sender flushes it (combiner). These tests pin what
// that may and may not change: every frame still arrives once and in its
// sender's order, a sealed link's nonces leave in the order they were
// drawn, and no frame waits for a Send that never comes.
package overlay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vnetp/internal/core"
	"vnetp/internal/ethernet"
	"vnetp/internal/supervise"
)

// TestSealedSendersKeepNonceOrder: four senders share one sealed link,
// each pushing alternating 8 900 B (seven sealed fragments) and 64 B
// frames as fast as its window allows — back to back ("batched"), or
// each Send waiting out the link's flush before the next ("sync"). The
// link's one sender puts datagrams on the wire in the order their nonces
// were drawn, so the receiver's 64-entry replay window rejects nothing:
// every frame arrives once, each sender's in order, over UDP and TCP, and
// admitted = delivered + Σ ledger with an empty ledger.
func TestSealedSendersKeepNonceOrder(t *testing.T) {
	const tenant, senders, perSender, window = 7, 4, 150, 8
	key := bytes.Repeat([]byte{0x3c}, 32)
	for _, proto := range []string{"udp", "tcp"} {
		for _, pace := range []string{"sync", "batched"} {
			t.Run(proto+"_"+pace, func(t *testing.T) {
				tx, rx := dropNode(t, NodeConfig{}), dropNode(t, NodeConfig{})
				for _, n := range []*Node{tx, rx} {
					if err := n.AddTenant(tenant, key); err != nil {
						t.Fatal(err)
					}
				}
				sink, err := rx.AttachEndpointTenant("sink", ethernet.LocalMAC(0x99), ethernet.MaxMTU, tenant)
				if err != nil {
					t.Fatal(err)
				}
				if err := tx.AddLinkTenant("wire", rx.Addr(), proto, tenant); err != nil {
					t.Fatal(err)
				}
				if err := tx.AddRoute(core.Route{Tenant: tenant, DstMAC: sink.MAC(), DstQual: core.QualExact,
					SrcQual: core.QualAny, Dest: core.Destination{Type: core.DestLink, ID: "wire"}}); err != nil {
					t.Fatal(err)
				}

				var delivered [senders]atomic.Uint64
				failed := make(chan struct{})
				recvErr := make(chan error, 1)
				go func() {
					var next [senders]uint32
					for total := 0; total < senders*perSender; total++ {
						f, ok := sink.Recv(5 * time.Second)
						if !ok {
							recvErr <- fmt.Errorf("%d of %d frames delivered; drops: sender %v receiver %v",
								total, senders*perSender, tx.ledger.Snapshot(), rx.ledger.Snapshot())
							close(failed)
							return
						}
						s, seq := int(f.Payload[0]), binary.BigEndian.Uint32(f.Payload[1:])
						if seq != next[s] {
							recvErr <- fmt.Errorf("sender %d: frame %d arrived where %d was due", s, seq, next[s])
							close(failed)
							return
						}
						next[s]++
						delivered[s].Add(1)
					}
					recvErr <- nil
				}()
				lk := tx.topo.Load().links["wire"]
				var wg sync.WaitGroup
				for s := 0; s < senders; s++ {
					src, err := tx.AttachEndpointTenant(fmt.Sprintf("s%d", s), ethernet.LocalMAC(uint32(1+s)), ethernet.MaxMTU, tenant)
					if err != nil {
						t.Fatal(err)
					}
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						for i := 0; i < perSender; i++ {
							for uint64(i)-delivered[s].Load() >= window {
								select {
								case <-failed:
									return
								case <-time.After(50 * time.Microsecond):
								}
							}
							size := 64
							if i%2 == 0 {
								size = 8900
							}
							p := make([]byte, size)
							p[0] = byte(s)
							binary.BigEndian.PutUint32(p[1:], uint32(i))
							if err := src.Send(&ethernet.Frame{Dst: sink.MAC(), Src: src.MAC(), Type: ethernet.TypeTest, Payload: p}); err != nil {
								t.Errorf("sender %d frame %d: %v", s, i, err)
								return
							}
							for pace == "sync" && !lk.idle() {
								time.Sleep(20 * time.Microsecond)
							}
						}
					}(s)
				}
				wg.Wait()
				if err := <-recvErr; err != nil {
					t.Fatal(err)
				}
				if r := rx.ledger.Count(dropSealReject); r != 0 {
					t.Fatalf("seal_reject = %d, want 0: nonces left out of order", r)
				}
				// Delivered moves just after the frame enters the sink's ring.
				for deadline := time.Now().Add(time.Second); rx.Delivered.Load() < senders*perSender && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				if d, lt, lr := rx.Delivered.Load(), tx.ledger.Total(), rx.ledger.Total(); d != senders*perSender || lt+lr != 0 {
					t.Fatalf("admitted %d = delivered %d + ledger %d+%d does not hold with an empty ledger", senders*perSender, d, lt, lr)
				}
			})
		}
	}
}

// TestSealedSendDrawsNoNonce pins where a sealed link seals: in its
// sender, not in Send. With the sender held short of its flush by an
// injected stall (well inside the watchdog's patience), thirty 8 900 B
// frames wait pending — four record trains cut inside add, and a fifth
// open — and not one nonce has been drawn for them: the next nonce the
// node's keyring hands out follows the one drawn just before the Sends.
// Once the stall ends, every frame arrives, in order, with nothing
// rejected and nothing on either ledger.
func TestSealedSendDrawsNoNonce(t *testing.T) {
	const tenant, frames, stall = 7, 30, time.Second
	key := bytes.Repeat([]byte{0x5e}, 32)
	tx := dropNode(t, NodeConfig{supervise: supervise.Config{StallTimeout: time.Minute}})
	rx := dropNode(t, NodeConfig{})
	for _, n := range []*Node{tx, rx} {
		if err := n.AddTenant(tenant, key); err != nil {
			t.Fatal(err)
		}
	}
	sink, err := rx.AttachEndpointTenant("sink", ethernet.LocalMAC(0x99), ethernet.MaxMTU, tenant)
	if err != nil {
		t.Fatal(err)
	}
	src, err := tx.AttachEndpointTenant("src", ethernet.LocalMAC(1), ethernet.MaxMTU, tenant)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddLinkTenant("wire", rx.Addr(), "udp", tenant); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddRoute(core.Route{Tenant: tenant, DstMAC: sink.MAC(), DstQual: core.QualExact,
		SrcQual: core.QualAny, Dest: core.Destination{Type: core.DestLink, ID: "wire"}}); err != nil {
		t.Fatal(err)
	}
	probe, err := tx.keyring.Sealer(tenant)
	if err != nil {
		t.Fatal(err)
	}
	lk := tx.topo.Load().links["wire"]
	before := probe.NextNonce()
	held := time.Now()
	tx.Runtime().Worker("tx/wire").InjectStall(stall)
	for i := 0; i < frames; i++ {
		p := make([]byte, 8900)
		binary.BigEndian.PutUint32(p, uint32(i))
		if err := src.Send(&ethernet.Frame{Dst: sink.MAC(), Src: src.MAC(), Type: ethernet.TypeTest, Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	if d := lk.comb.depth(); d != frames {
		t.Fatalf("%d frames pending behind the held sender, want %d", d, frames)
	}
	drawn := probe.NextNonce() - before - 1
	if time.Since(held) >= stall {
		t.Fatal("the stall ended before the nonce count was read; nothing was pinned")
	}
	if drawn != 0 {
		t.Fatalf("the Sends drew %d nonces with the sender held, want 0: sealing runs in Send", drawn)
	}
	for i := 0; i < frames; i++ {
		f, ok := sink.Recv(5 * time.Second)
		if !ok {
			t.Fatalf("%d of %d frames delivered; drops: sender %v receiver %v", i, frames, tx.ledger.Snapshot(), rx.ledger.Snapshot())
		}
		if seq := binary.BigEndian.Uint32(f.Payload); seq != uint32(i) {
			t.Fatalf("frame %d arrived where %d was due", seq, i)
		}
	}
	if r, lt, lr := rx.ledger.Count(dropSealReject), tx.ledger.Total(), rx.ledger.Total(); r != 0 || lt+lr != 0 {
		t.Fatalf("seal_reject %d, ledgers %d+%d: want all zero", r, lt, lr)
	}
}

// TestCombinerStrandsNothing: no wakeup is lost. A Send that finds the
// sender awake leaves its frame for it without waking it, so the sender
// must look at what is pending before it parks. After each of twenty
// bursts from four senders — most of whose Sends found it awake, and whose
// last Sends may land while it is inside a flush — the link goes idle with
// nothing pending; encap_sent and the batch-size histogram count every
// frame, and the peer accounts for exactly those.
func TestCombinerStrandsNothing(t *testing.T) {
	const senders, perSender, bursts = 4, 10, 20
	tx, rx := dropNode(t, NodeConfig{}), dropNode(t, NodeConfig{})
	sink, err := rx.AttachEndpoint("sink", ethernet.LocalMAC(0x99), 1500)
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.AddLink("wire", rx.Addr(), "udp"); err != nil {
		t.Fatal(err)
	}
	if err := tx.AddRoute(core.Route{DstMAC: sink.MAC(), DstQual: core.QualExact, SrcQual: core.QualAny,
		Dest: core.Destination{Type: core.DestLink, ID: "wire"}}); err != nil {
		t.Fatal(err)
	}
	var received atomic.Uint64
	go func() {
		for {
			if _, ok := sink.Recv(time.Second); !ok {
				return
			}
			received.Add(1)
		}
	}()
	srcs := make([]*Endpoint, senders)
	for s := range srcs {
		if srcs[s], err = tx.AttachEndpoint(fmt.Sprintf("s%d", s), ethernet.LocalMAC(uint32(1+s)), 1500); err != nil {
			t.Fatal(err)
		}
	}
	lk := tx.topo.Load().links["wire"]
	const total = senders * perSender * bursts
	for b := 0; b < bursts; b++ {
		var wg sync.WaitGroup
		for _, src := range srcs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					if err := src.Send(testFrame(src.MAC(), sink.MAC())); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		waitIdle(t, lk)
	}
	if sent := tx.EncapSent.Load(); sent != total {
		t.Fatalf("encap_sent = %d once the link went idle, want %d", sent, total)
	}
	if h := tx.metrics.txBatchSize; h.Sum() != total {
		t.Fatalf("vnetp_tx_batch_size carried %v frames in %d transmits, want %d", h.Sum(), h.Count(), total)
	}
	// The peer may shed some at its endpoint ring (the receiving goroutine
	// is not paced), but every frame is delivered or on its ledger, and
	// none beyond those sent.
	accounted := func() uint64 { return received.Load() + rx.ledger.Total() }
	for deadline := time.Now().Add(5 * time.Second); accounted() < total && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // anything beyond what was sent would arrive now
	if got, lost := accounted(), tx.ledger.Total(); got != total || lost != 0 {
		t.Fatalf("peer delivered or shed %d frames and the sender dropped %d, want %d and 0", got, lost, total)
	}
}
