// One sender on the wire per link: a synchronous Send that finds its
// link busy leaves its frame, encoded, for the Send already transmitting
// (syncTx). These tests pin what that may and may not change: every frame
// still arrives once and in its sender's order, a sealed link's nonces
// leave in the order they were drawn, and nothing is left behind once
// every Send has returned.
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
)

// TestSealedSendersKeepNonceOrder: four senders share one sealed link,
// each pushing alternating 8 900 B (seven sealed fragments) and 64 B
// frames as fast as its window allows. On either leg — the combiner, or
// the TX ring's one sender goroutine — datagrams leave in the order their
// nonces were drawn, so the receiver's 64-entry replay window rejects
// nothing: every frame arrives once, each sender's in order, over UDP and
// TCP, and admitted = delivered + Σ ledger with an empty ledger.
func TestSealedSendersKeepNonceOrder(t *testing.T) {
	const tenant, senders, perSender, window = 7, 4, 150, 8
	key := bytes.Repeat([]byte{0x3c}, 32)
	legs := []struct {
		name string
		cfg  NodeConfig
	}{{"sync", NodeConfig{}}, {"batched", RingConfig()}}
	for _, proto := range []string{"udp", "tcp"} {
		for _, leg := range legs {
			t.Run(proto+"_"+leg.name, func(t *testing.T) {
				tx, rx := dropNode(t, leg.cfg), dropNode(t, NodeConfig{})
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

// TestCombinerStrandsNothing: no frame waits for a future Send. Once
// every Send of a concurrent burst has returned — most of them handing
// their frame to whichever Send held the link — every frame is already
// on the wire: the link is free, its pending batch is empty, encap_sent
// counts all of them, and the peer accounts for exactly those.
func TestCombinerStrandsNothing(t *testing.T) {
	const senders, perSender = 4, 200
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
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		src, err := tx.AttachEndpoint(fmt.Sprintf("s%d", s), ethernet.LocalMAC(uint32(1+s)), 1500)
		if err != nil {
			t.Fatal(err)
		}
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
	lk := tx.topo.Load().links["wire"]
	lk.sync.mu.Lock()
	busy, pending := lk.sync.busy, len(lk.sync.pending().frames)
	lk.sync.mu.Unlock()
	if busy || pending != 0 {
		t.Fatalf("after every Send returned: link busy=%v with %d frames pending", busy, pending)
	}
	if sent := tx.EncapSent.Load(); sent != senders*perSender {
		t.Fatalf("encap_sent = %d once every Send returned, want %d", sent, senders*perSender)
	}
	if h := tx.metrics.txBatchSize; h.Sum() != senders*perSender {
		t.Fatalf("vnetp_tx_batch_size carried %v frames in %d transmits, want %d", h.Sum(), h.Count(), senders*perSender)
	}
	// The peer may shed some at its endpoint ring (the receiving goroutine
	// is not paced), but every frame is delivered or on its ledger, and
	// none beyond those sent.
	accounted := func() uint64 { return received.Load() + rx.ledger.Total() }
	for deadline := time.Now().Add(5 * time.Second); accounted() < senders*perSender && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // anything beyond what was sent would arrive now
	if got, lost := accounted(), tx.ledger.Total(); got != senders*perSender || lost != 0 {
		t.Fatalf("peer delivered or shed %d frames and the sender dropped %d, want %d and 0", got, lost, senders*perSender)
	}
}
