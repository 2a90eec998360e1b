package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"vnetp/internal/lab"
	"vnetp/internal/phys"
	"vnetp/internal/sim"
	"vnetp/internal/vnetpsim"
)

func init() {
	register("jitter", "latency jitter: Linux host noise vs Kitten LWK (Sect. 6.3)", runJitter)
}

// pingSamples gathers n individual RTT samples over a testbed.
func pingSamplesOver(tb *lab.Testbed, n int) []time.Duration {
	eng := tb.Eng
	out := make([]time.Duration, 0, n)
	eng.Go("ping", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		tb.Stacks[0].Ping(p, tb.IP(1), 56, time.Second) // warm up
		for i := 0; i < n; i++ {
			// Irregular spacing so samples land at different phases of
			// the noise process.
			p.Sleep(time.Duration(50+i*7%100) * time.Microsecond)
			if rtt, ok := tb.Stacks[0].Ping(p, tb.IP(1), 56, time.Second); ok {
				out = append(out, rtt)
			}
		}
	})
	eng.Run()
	eng.Close()
	return out
}

type jitterStats struct {
	p50, p99, max time.Duration
	stddev        time.Duration
}

func summarize(samples []time.Duration) jitterStats {
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var sum, sum2 float64
	for _, v := range s {
		f := float64(v)
		sum += f
		sum2 += f * f
	}
	n := float64(len(s))
	mean := sum / n
	return jitterStats{
		p50:    s[len(s)/2],
		p99:    s[len(s)*99/100],
		max:    s[len(s)-1],
		stddev: time.Duration(math.Sqrt(sum2/n - mean*mean)),
	}
}

// runJitter reproduces the Sect. 6.3 observation: on a Linux host, OS
// scheduling noise perturbs the bridge path and spreads the latency
// distribution; under the Kitten lightweight kernel the same datapath is
// nearly jitter-free.
func runJitter(w io.Writer) error {
	const n = 400
	linuxTB := lab.NewVNETPTestbed(sim.New(), lab.Config{
		Dev: phys.Eth10G, N: 2, Params: vnetpsim.DefaultParams(), Model: phys.ModelLinuxNoisy(),
	})
	linux := summarize(pingSamplesOver(linuxTB, n))
	kittenTB := lab.NewVNETPTestbed(sim.New(), lab.Config{
		Dev: phys.Eth10G, N: 2, Params: vnetpsim.DefaultParams(), Model: phys.ModelKitten(),
	})
	kitt := summarize(pingSamplesOver(kittenTB, n))

	fmt.Fprintf(w, "%-22s %10s %10s %10s %10s\n", "host environment", "p50", "p99", "max", "stddev")
	fmt.Fprintf(w, "%-22s %9.1fus %9.1fus %9.1fus %9.1fus\n",
		"Linux (noisy host)", us(linux.p50), us(linux.p99), us(linux.max), us(linux.stddev))
	fmt.Fprintf(w, "%-22s %9.1fus %9.1fus %9.1fus %9.1fus\n",
		"Kitten (LWK)", us(kitt.p50), us(kitt.p99), us(kitt.max), us(kitt.stddev))
	fmt.Fprintf(w, "stddev ratio Linux/Kitten: %.1fx\n",
		float64(linux.stddev)/math.Max(1, float64(kitt.stddev)))
	return nil
}
