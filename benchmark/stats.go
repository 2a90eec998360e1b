package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending-sorted sample; 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value (mean of the middle two for an even
// count); 0 for an empty sample. The input is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// best returns the largest value. Throughput-type metrics report the
// best round: on a shared box interference only ever slows a round, so
// the fastest one is the cleanest view of what the code can do.
func best(vs []float64) float64 {
	b := 0.0
	for _, v := range vs {
		if v > b {
			b = v
		}
	}
	return b
}

// lowest returns the smallest value; 0 for an empty sample.
func lowest(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	l := vs[0]
	for _, v := range vs {
		if v < l {
			l = v
		}
	}
	return l
}

// roundSpread is (best − median) ÷ best in percent: how far the typical
// round sits below the best one, so a change that makes half the rounds
// slow is not hidden by best-of.
func roundSpread(vs []float64) float64 {
	b := best(vs)
	if b == 0 {
		return 0
	}
	return (b - median(vs)) / b * 100
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// window is one flow's closed-loop send window: at most limit frames in
// flight, reopened by credits from the sink, and by a stall when no
// credit arrives in time.
type window struct {
	limit    int
	inflight int
	stalls   int // times the stall timer declared the window's frames lost
}

func (w *window) full() bool { return w.inflight >= w.limit }

func (w *window) sent() { w.inflight++ }

// credit returns n frames' worth of window. Credits for frames a stall
// already wrote off arrive late and are clamped, so a recovered flow
// never runs with more than limit frames outstanding by its own count.
func (w *window) credit(n int) {
	w.inflight -= n
	if w.inflight < 0 {
		w.inflight = 0
	}
}

// stall declares every outstanding frame lost and reopens the window.
// The true loss is reconciled after the drain from delivered counts;
// this only keeps the flow moving.
func (w *window) stall() {
	w.stalls++
	w.inflight = 0
}
