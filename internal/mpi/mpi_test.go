package mpi_test

import (
	"testing"
	"time"

	"vnetp/internal/lab"
	"vnetp/internal/mpi"
	"vnetp/internal/netstack"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
)

// worldOn builds an MPI world with ranksPerVM ranks on each of vms VMs
// over a VNET/P testbed.
func worldOn(eng *sim.Engine, vms, ranksPerVM int) *mpi.World {
	tb := lab.NewVNETPTestbed(eng, lab.Config{Dev: phys.Eth10G, N: vms, Params: vnetpsim.DefaultParams()})
	var stacks []*netstack.Stack
	for i := 0; i < vms; i++ {
		for k := 0; k < ranksPerVM; k++ {
			stacks = append(stacks, tb.Stacks[i])
		}
	}
	return mpi.NewWorld(eng, stacks)
}

func runWorld(t *testing.T, eng *sim.Engine, w *mpi.World, fn func(p *sim.Proc, r *mpi.Rank)) {
	t.Helper()
	completed := false
	w.Launch(fn)
	eng.Go("await", func(p *sim.Proc) {
		w.AwaitAll(p)
		completed = true
	})
	eng.Run()
	eng.Close()
	if !completed {
		t.Fatal("world did not complete (deadlock?)")
	}
}

func TestPingPongTwoRanks(t *testing.T) {
	eng := sim.New()
	w := worldOn(eng, 2, 1)
	var rtts []time.Duration
	runWorld(t, eng, w, func(p *sim.Proc, r *mpi.Rank) {
		const reps = 5
		if r.ID() == 0 {
			for i := 0; i < reps; i++ {
				start := p.Now()
				r.Send(p, 1, 1, 1024)
				r.Recv(p, 1, 2)
				rtts = append(rtts, start.Sub(0)*0+p.Now().Sub(start))
			}
		} else {
			for i := 0; i < reps; i++ {
				r.Recv(p, 0, 1)
				r.Send(p, 0, 2, 1024)
			}
		}
	})
	if len(rtts) != 5 {
		t.Fatalf("rtts = %v", rtts)
	}
	for _, rtt := range rtts {
		if rtt < 20*time.Microsecond || rtt > 2*time.Millisecond {
			t.Fatalf("implausible MPI rtt %v", rtt)
		}
	}
}

func TestTagMatching(t *testing.T) {
	eng := sim.New()
	w := worldOn(eng, 2, 1)
	var order []int
	runWorld(t, eng, w, func(p *sim.Proc, r *mpi.Rank) {
		if r.ID() == 0 {
			r.Send(p, 1, 10, 100)
			r.Send(p, 1, 20, 200)
		} else {
			// Receive in reverse tag order: matching must be by tag, not
			// arrival.
			_, _, s20 := r.Recv(p, 0, 20)
			_, _, s10 := r.Recv(p, 0, 10)
			order = append(order, s20, s10)
		}
	})
	if len(order) != 2 || order[0] != 200 || order[1] != 100 {
		t.Fatalf("tag matching broken: %v", order)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	eng := sim.New()
	w := worldOn(eng, 3, 1)
	received := 0
	runWorld(t, eng, w, func(p *sim.Proc, r *mpi.Rank) {
		if r.ID() == 0 {
			for i := 0; i < 2; i++ {
				src, tag, size := r.Recv(p, mpi.AnySource, mpi.AnyTag)
				if size != 64*(src) || tag != src {
					t.Errorf("bad message src=%d tag=%d size=%d", src, tag, size)
				}
				received++
			}
		} else {
			r.Send(p, 0, r.ID(), 64*r.ID())
		}
	})
	if received != 2 {
		t.Fatalf("received %d", received)
	}
}

func TestSendRecvNoDeadlock(t *testing.T) {
	// All ranks SendRecv in a ring simultaneously: blocking sends would
	// deadlock without real full-duplex progress.
	eng := sim.New()
	w := worldOn(eng, 4, 1)
	runWorld(t, eng, w, func(p *sim.Proc, r *mpi.Rank) {
		n := r.Size()
		for i := 0; i < 3; i++ {
			got := r.SendRecv(p, (r.ID()+1)%n, 7, 4096, (r.ID()-1+n)%n, 7)
			if got != 4096 {
				t.Errorf("SendRecv size = %d", got)
			}
		}
	})
}

func TestSharedMemoryRanks(t *testing.T) {
	// Two ranks in the same VM communicate without touching the overlay.
	eng := sim.New()
	tb := lab.NewVNETPTestbed(eng, lab.Config{Dev: phys.Eth10G, N: 2, Params: vnetpsim.DefaultParams()})
	w := mpi.NewWorld(eng, []*netstack.Stack{tb.Stacks[0], tb.Stacks[0]})
	var rtt time.Duration
	runWorld(t, eng, w, func(p *sim.Proc, r *mpi.Rank) {
		if r.ID() == 0 {
			start := p.Now()
			r.Send(p, 1, 1, 1024)
			r.Recv(p, 1, 2)
			rtt = p.Now().Sub(start)
		} else {
			r.Recv(p, 0, 1)
			r.Send(p, 0, 2, 1024)
		}
	})
	if tb.VNETP.Nodes[0].Bridge.EncapSent != 0 {
		t.Fatal("same-VM traffic leaked onto the overlay")
	}
	if rtt <= 0 || rtt > 50*time.Microsecond {
		t.Fatalf("shared-memory rtt %v, want < 50µs", rtt)
	}
}

func TestBarrier(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		eng := sim.New()
		w := worldOn(eng, n, 1)
		var releases []sim.Time
		runWorld(t, eng, w, func(p *sim.Proc, r *mpi.Rank) {
			// Stagger arrivals; all must leave after the last arrival.
			p.Sleep(time.Duration(r.ID()) * time.Millisecond)
			r.Barrier(p)
			releases = append(releases, p.Now())
		})
		last := sim.Time(0).Add(time.Duration(n-1) * time.Millisecond)
		for _, rel := range releases {
			if rel < last {
				t.Fatalf("n=%d: rank released at %v before last arrival %v", n, rel, last)
			}
		}
	}
}

func TestBcastReachesAll(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6, 8} {
		for root := 0; root < n; root += max(1, n-1) {
			eng := sim.New()
			w := worldOn(eng, n, 1)
			count := 0
			runWorld(t, eng, w, func(p *sim.Proc, r *mpi.Rank) {
				r.Bcast(p, root, 4096)
				count++
			})
			if count != n {
				t.Fatalf("n=%d root=%d: %d ranks completed bcast", n, root, count)
			}
		}
	}
}

func TestReduceCompletes(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		eng := sim.New()
		w := worldOn(eng, n, 1)
		count := 0
		runWorld(t, eng, w, func(p *sim.Proc, r *mpi.Rank) {
			r.Reduce(p, 0, 2048)
			count++
		})
		if count != n {
			t.Fatalf("n=%d: %d ranks completed reduce", n, count)
		}
	}
}

func TestAllreduceCompletes(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8} { // both power-of-2 and not
		eng := sim.New()
		w := worldOn(eng, n, 1)
		count := 0
		runWorld(t, eng, w, func(p *sim.Proc, r *mpi.Rank) {
			for i := 0; i < 2; i++ {
				r.Allreduce(p, 1024)
			}
			count++
		})
		if count != n {
			t.Fatalf("n=%d: %d ranks completed allreduce", n, count)
		}
	}
}

func TestAlltoallVolume(t *testing.T) {
	eng := sim.New()
	w := worldOn(eng, 4, 1)
	var sent []uint64
	runWorld(t, eng, w, func(p *sim.Proc, r *mpi.Rank) {
		r.Alltoall(p, 8192)
		sent = append(sent, r.BytesSent)
	})
	for _, b := range sent {
		if b != 3*8192 {
			t.Fatalf("alltoall sent %d bytes/rank, want %d", b, 3*8192)
		}
	}
}

func TestAllgatherCompletes(t *testing.T) {
	eng := sim.New()
	w := worldOn(eng, 5, 1)
	count := 0
	runWorld(t, eng, w, func(p *sim.Proc, r *mpi.Rank) {
		r.Allgather(p, 4096)
		count++
	})
	if count != 5 {
		t.Fatalf("%d ranks completed allgather", count)
	}
}

func TestIsendIrecvOverlap(t *testing.T) {
	eng := sim.New()
	w := worldOn(eng, 2, 1)
	runWorld(t, eng, w, func(p *sim.Proc, r *mpi.Rank) {
		peer := 1 - r.ID()
		reqs := []*mpi.Request{
			r.Irecv(p, peer, 5),
			r.Irecv(p, peer, 6),
		}
		r.Send(p, peer, 6, 100)
		r.Send(p, peer, 5, 200)
		if got := reqs[0].Wait(p); got != 200 {
			t.Errorf("irecv tag 5 = %d", got)
		}
		if got := reqs[1].Wait(p); got != 100 {
			t.Errorf("irecv tag 6 = %d", got)
		}
	})
}

func TestMultiRankPerVM(t *testing.T) {
	// 2 VMs x 4 ranks: the HPCC/NAS process layout.
	eng := sim.New()
	w := worldOn(eng, 2, 4)
	count := 0
	runWorld(t, eng, w, func(p *sim.Proc, r *mpi.Rank) {
		if r.Size() != 8 {
			t.Errorf("size = %d", r.Size())
		}
		r.Barrier(p)
		r.Allreduce(p, 512)
		count++
	})
	if count != 8 {
		t.Fatalf("%d ranks completed", count)
	}
}
