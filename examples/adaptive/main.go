// Adaptive mode: watch VNET/P's dispatch-mode state machine (paper
// Fig. 6) react to a bursty guest. The interface starts in guest-driven
// mode (lowest latency), switches to VMM-driven when the packet rate
// crosses alpha_u, and falls back once the burst ends and the rate drops
// below alpha_l — with hysteresis, so mid-band rates do not flap.
//
//	go run ./examples/adaptive
package main

import (
	"fmt"
	"time"

	"vnetp"
	"vnetp/internal/ethernet"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
)

func main() {
	eng := vnetp.NewSimEngine()
	params := vnetp.DefaultParams() // adaptive, alpha_l=1e3, alpha_u=1e4, omega=5ms
	tb := vnetp.NewVNETPTestbed(eng, vnetp.ClusterConfig{
		Dev: vnetp.Eth10G, N: 2, Params: params,
	})
	nodes := tb.VNETP.Nodes
	sender, receiver := nodes[0], nodes[1]

	// Receiver guest: drain frames as they arrive.
	received := 0
	receiver.Iface.SetRecv(func() {
		for {
			if _, ok := receiver.Iface.GuestRecv(); !ok {
				break
			}
			received++
		}
		receiver.Iface.RxDone()
	})

	// Log mode transitions as the simulation progresses.
	lastMode := sender.Iface.Mode()
	fmt.Printf("%10s  %-14s (packet rate)\n", "time", "mode")
	fmt.Printf("%10v  %-14v\n", time.Duration(0), lastMode)
	var watch func()
	watch = func() {
		if m := sender.Iface.Mode(); m != lastMode {
			fmt.Printf("%10v  %-14v\n", eng.Now().Duration().Round(time.Millisecond), m)
			lastMode = m
		}
		eng.Schedule(time.Millisecond, watch)
	}
	eng.Schedule(time.Millisecond, watch)

	// The guest workload: quiet trickle, heavy burst, quiet trickle.
	eng.Go("guest", func(p *sim.Proc) {
		send := func(rate float64, dur time.Duration, label string) {
			fmt.Printf("%10v  -- guest sends at %.0f pkt/s for %v (%s)\n",
				p.Now().Duration().Round(time.Millisecond), rate, dur, label)
			gap := time.Duration(float64(time.Second) / rate)
			deadline := p.Now().Add(dur)
			for p.Now() < deadline {
				f := &ethernet.Frame{
					Dst: receiver.MAC(), Src: sender.MAC(),
					Type: ethernet.TypeTest, Pad: 1024,
				}
				for !sender.Iface.TrySend(f) {
					sender.Iface.WaitSendSpace(p)
				}
				p.Sleep(gap)
			}
		}
		send(500, 30*time.Millisecond, "below alpha_l: stays guest-driven")
		send(100000, 30*time.Millisecond, "above alpha_u: switches to VMM-driven")
		send(500, 40*time.Millisecond, "quiet again: falls back")
	})

	eng.RunFor(110 * time.Millisecond)
	ifc := sender.Iface
	fmt.Printf("\nfinal mode: %v after %d switches\n", ifc.Mode(), ifc.ModeSwitches)
	fmt.Printf("kick exits taken: %d, kicks avoided by polling: %d, frames delivered: %d\n",
		ifc.Kicks, ifc.KicksAvoided, received)
	if ifc.Mode() != vnetpsim.GuestDriven || ifc.ModeSwitches < 2 {
		fmt.Println("unexpected: adaptive operation did not behave per Fig. 6")
	}
	eng.Close()
}
