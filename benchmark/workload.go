package main

import (
	"encoding/binary"
	"fmt"

	"vnetp/internal/ethernet"
)

// workload is one traffic mix plus the node configuration it runs on.
// Each exists to stress a different part of the live path; Why says
// which, and names its bypass.
type workload struct {
	Name string
	Why  string

	Flows  int   // concurrent closed-loop flows (capped at NumCPU)
	Window int   // frames in flight per flow
	Sizes  []int // payload-size cycle the seed draws from, uniformly

	Tenant   uint32 // 0 = plaintext links; otherwise sealed under this tenant
	Adaptive bool   // NodeConfig.Adaptive (implies the batched TX leg)
	SrcPool  int    // >0: source MAC drawn per frame from this many addresses
	ChurnHz  int    // >0: ADD/DEL ROUTE ops per second through the control console
}

// imixSizes is the 7:4:1 simple-IMIX cycle. 1486 B is the largest
// payload whose 1500 B inner frame needs two 1400 B datagrams.
var imixSizes = []int{64, 64, 64, 64, 64, 64, 64, 576, 576, 576, 576, 1486}

var workloads = []workload{
	{
		Name:  "small_sync",
		Why:   "64 B frames, sync TX, flow-cache hits: pure per-frame software cost; bypasses TX ring, fragmentation, seal",
		Flows: 2, Window: 64, Sizes: []int{64},
	},
	{
		Name:  "imix_adaptive",
		Why:   "7:4:1 IMIX through the TX ring, sendmmsg and the adaptive controller; echo shows what batching costs latency",
		Flows: 2, Window: 64, Sizes: imixSizes, Adaptive: true,
	},
	{
		Name:  "jumbo_sealed",
		Why:   "8900 B frames, 7 fragments, AES-GCM tenant link: bytes dominate (seal/open, copies, reassembly), resolve is noise",
		Flows: 1, Window: 32, Sizes: []int{8900}, Tenant: 7,
	},
	{
		Name:  "manyflows_churn",
		Why:   "24576 source MACs (1.5x the flow cache) plus 4 route ops/s: fills, evictions, epoch bumps; small_sync is its bypass",
		Flows: 2, Window: 64, Sizes: []int{256}, SrcPool: 24576, ChurnHz: 4,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// rng is xorshift64*: a per-flow generator cheap enough to draw from on
// every frame. Seeded from (-seed, stream) so flows are independent and
// a seed always yields the same frames.
type rng uint64

func newRNG(seed int64, stream int) rng {
	s := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream+1)*0xD1B54A32D192ED03
	if s == 0 {
		s = 1
	}
	r := rng(s)
	r.next()
	return r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545F4914F6CDD1D
}

// Payload layout: word 0 = magic(16) | flow(16) | length(32), word 1 =
// seq, then every further 8-byte word (and the ragged tail) is derived
// from flow, seq and position — so truncation, a fragment placed at the
// wrong offset, and a fragment spliced in from another frame all fail
// the check.
const (
	payloadMagic  = 0xE2EB
	payloadHdrLen = 16
)

func patternWord(flow int, seq uint64, i int) uint64 {
	return ((seq+1)*0x9E3779B97F4A7C15 + uint64(i)*0xC2B2AE3D27D4EB4F) ^ uint64(flow)
}

func fillPayload(p []byte, flow int, seq uint64) {
	binary.LittleEndian.PutUint64(p, uint64(payloadMagic)<<48|uint64(flow)<<32|uint64(len(p)))
	binary.LittleEndian.PutUint64(p[8:], seq)
	i := payloadHdrLen
	for ; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], patternWord(flow, seq, i))
	}
	if i < len(p) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], patternWord(flow, seq, i))
		copy(p[i:], tail[:])
	}
}

// checkPayload verifies a received payload against what fillPayload
// wrote and returns the flow and seq it carries.
func checkPayload(p []byte) (flow int, seq uint64, ok bool) {
	if len(p) < payloadHdrLen {
		return 0, 0, false
	}
	w0 := binary.LittleEndian.Uint64(p)
	if w0>>48 != payloadMagic || int(uint32(w0)) != len(p) {
		return 0, 0, false
	}
	flow = int(w0 >> 32 & 0xffff)
	seq = binary.LittleEndian.Uint64(p[8:])
	i := payloadHdrLen
	for ; i+8 <= len(p); i += 8 {
		if binary.LittleEndian.Uint64(p[i:]) != patternWord(flow, seq, i) {
			return flow, seq, false
		}
	}
	if i < len(p) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], patternWord(flow, seq, i))
		for j := i; j < len(p); j++ {
			if p[j] != tail[j-i] {
				return flow, seq, false
			}
		}
	}
	return flow, seq, true
}

// MAC plan. Fixed roles live below 0x01000000; the per-seed source pool
// starts at or above 0x10000000 so a draw can never collide with them.
func srcMAC(flow int) ethernet.MAC  { return ethernet.LocalMAC(0x100 + uint32(flow)) }
func sinkMAC(flow int) ethernet.MAC { return ethernet.LocalMAC(0x200 + uint32(flow)) }

var (
	echoCliMAC   = ethernet.LocalMAC(0x300)
	echoSrvMAC   = ethernet.LocalMAC(0x301)
	canaryMAC    = ethernet.LocalMAC(0x400) // attached on node B, never addressed
	churnMACBase = uint32(0x900000)         // ADD/DEL ROUTE targets, never addressed
)

// echoFlow is the flow id echo frames carry in their payload header.
const echoFlow = 0xEC0

// generator produces one flow's frames. Frames come from a ring large
// enough that a slot is never rewritten while the node can still hold
// it (see newGenerator), so the generator allocates nothing per frame.
type generator struct {
	flow     int
	sizes    []int
	r        rng
	seq      uint64
	ring     []ethernet.Frame
	bufs     [][]byte
	poolBase uint32 // first address of this flow's slice of the source pool
	poolLen  uint32 // 0 = fixed source MAC
}

// newGenerator builds flow's generator. ringLen must exceed the frames
// the sending node can retain at once: the window on the synchronous
// path (Send copies before returning), plus the TX ring and one batch
// on the batched path, where Send keeps the frame until its batch
// flushes.
func newGenerator(wl workload, seed int64, flow int, src, dst ethernet.MAC, ringLen int) *generator {
	maxSize := 0
	for _, s := range wl.Sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	g := &generator{
		flow: flow, sizes: wl.Sizes, r: newRNG(seed, flow),
		ring: make([]ethernet.Frame, ringLen), bufs: make([][]byte, ringLen),
	}
	for i := range g.ring {
		g.bufs[i] = make([]byte, maxSize)
		g.ring[i] = ethernet.Frame{Dst: dst, Src: src, Type: ethernet.TypeTest}
	}
	return g
}

// useSourcePool makes the generator draw each frame's source MAC from
// its own 1/flows slice of a pool of n addresses placed by the seed.
func (g *generator) useSourcePool(seed int64, n, flows int) {
	base := newRNG(seed, 0x5eed)
	per := uint32(n / flows)
	g.poolBase = (0x10000000 | uint32(base.next()&0x0fffffff)) + uint32(g.flow)*per
	g.poolLen = per
}

// next returns the flow's next frame, filled and ready to Send.
func (g *generator) next() *ethernet.Frame {
	slot := int(g.seq % uint64(len(g.ring)))
	f := &g.ring[slot]
	size := g.sizes[0]
	if len(g.sizes) > 1 {
		size = g.sizes[g.r.next()%uint64(len(g.sizes))]
	}
	if g.poolLen > 0 {
		f.Src = ethernet.LocalMAC(g.poolBase + uint32(g.r.next()%uint64(g.poolLen)))
	}
	f.Payload = g.bufs[slot][:size]
	fillPayload(f.Payload, g.flow, g.seq)
	g.seq++
	return f
}

// meanSize is the expected payload size of the workload's draw.
func (wl workload) meanSize() float64 {
	t := 0
	for _, s := range wl.Sizes {
		t += s
	}
	return float64(t) / float64(len(wl.Sizes))
}
