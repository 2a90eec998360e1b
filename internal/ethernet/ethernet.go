// Package ethernet implements the layer-2 abstraction VNET/P presents to
// guests: Ethernet MAC addresses and frames, with wire-format marshalling.
// The overlay carries these frames (encapsulated in UDP) between hosts, so
// frame parsing and building sit on the performance-critical path.
package ethernet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// IsBroadcast reports whether m is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == Broadcast }

// IsMulticast reports whether m is a multicast address (group bit set).
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// IsZero reports whether m is the all-zero address.
func (m MAC) IsZero() bool { return m == MAC{} }

// String formats m as six colon-separated lowercase hex bytes.
func (m MAC) String() string {
	var b [MACStringLen]byte
	return string(m.AppendTo(b[:0]))
}

// MACStringLen is the length of a MAC's String form.
const MACStringLen = 17

// AppendTo appends m's String form to b: the one MAC formatter, for
// callers that build a longer string without a copy per MAC.
func (m MAC) AppendTo(b []byte) []byte {
	const hex = "0123456789abcdef"
	for i, x := range m {
		if i > 0 {
			b = append(b, ':')
		}
		b = append(b, hex[x>>4], hex[x&0xf])
	}
	return b
}

// ParseMAC parses the colon-separated hex form produced by MAC.String.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	n, err := fmt.Sscanf(s, "%02x:%02x:%02x:%02x:%02x:%02x",
		&m[0], &m[1], &m[2], &m[3], &m[4], &m[5])
	if err != nil || n != 6 {
		return MAC{}, fmt.Errorf("ethernet: invalid MAC %q", s)
	}
	return m, nil
}

// LocalMAC deterministically generates a locally-administered unicast MAC
// from a 32-bit id — the scheme the test harness and examples use to give
// each virtual NIC a unique address.
func LocalMAC(id uint32) MAC {
	var m MAC
	m[0] = 0x02 // locally administered, unicast
	m[1] = 0x56 // 'V'
	binary.BigEndian.PutUint32(m[2:], id)
	return m
}

// EtherTypes used by the reproduction.
const (
	TypeIPv4 uint16 = 0x0800
	TypeARP  uint16 = 0x0806
	// TypeTest is reserved for loopback/testing payloads (IEEE 802.1
	// reserves 0x88B5-0x88B6 for experimental use).
	TypeTest uint16 = 0x88b5
)

// Frame sizes. The paper's overlay supports guest MTUs up to 64 KB
// (Sect. 4.4: "sized to support the largest possible IPv4 packet size").
const (
	HeaderLen   = 14    // dst(6) + src(6) + ethertype(2)
	MinPayload  = 46    // classic Ethernet minimum (frames are padded)
	MaxMTU      = 65535 // VNET/P's maximum guest MTU
	StandardMTU = 1500
	JumboMTU    = 9000
)

// Frame is an Ethernet-II frame. FCS is not modeled (links are reliable in
// both the simulated and UDP-carried paths).
//
// Pad is a simulation affordance: Pad virtual zero bytes logically follow
// Payload and count toward every length computation, but are not
// materialized until Marshal. Bulk-transfer simulations set Payload to the
// real protocol headers and Pad to the data body, so simulating gigabytes
// of traffic does not allocate gigabytes.
type Frame struct {
	Dst     MAC
	Src     MAC
	Type    uint16
	Payload []byte
	Pad     int

	// Tag, when nonzero, marks the frame for datapath tracing
	// (internal/trace). It is simulation metadata, not wire content.
	Tag uint64
}

// ErrTruncated is returned when parsing a buffer shorter than a frame
// header.
var ErrTruncated = errors.New("ethernet: truncated frame")

// ErrTooLarge is returned when a frame's payload exceeds MaxMTU.
var ErrTooLarge = errors.New("ethernet: payload exceeds maximum MTU")

// PayloadLen reports the logical payload length including virtual padding.
func (f *Frame) PayloadLen() int { return len(f.Payload) + f.Pad }

// Len reports the marshalled frame length (header + logical payload).
func (f *Frame) Len() int { return HeaderLen + f.PayloadLen() }

// WireLen reports the frame length after minimum-payload padding.
func (f *Frame) WireLen() int {
	if f.PayloadLen() < MinPayload {
		return HeaderLen + MinPayload
	}
	return f.Len()
}

// Marshal appends the wire form of f to b and returns the extended slice.
// Virtual Pad bytes are materialized as zeros.
func (f *Frame) Marshal(b []byte) ([]byte, error) {
	if f.PayloadLen() > MaxMTU || f.Pad < 0 {
		return nil, ErrTooLarge
	}
	b = append(b, f.Dst[:]...)
	b = append(b, f.Src[:]...)
	b = binary.BigEndian.AppendUint16(b, f.Type)
	b = append(b, f.Payload...)
	b = append(b, make([]byte, f.Pad)...)
	return b, nil
}

// Unmarshal parses a wire-format frame into a frame of its own. The
// returned frame's Payload aliases b; callers that retain the frame must
// copy.
func Unmarshal(b []byte) (*Frame, error) {
	f := new(Frame)
	if err := Decode(f, b); err != nil {
		return nil, err
	}
	return f, nil
}

// Decode parses a wire-format frame into dst, overwriting all of it, so
// a caller decoding many frames can put their headers in one array.
// dst's Payload aliases b. On error dst is unchanged.
func Decode(dst *Frame, b []byte) error {
	if len(b) < HeaderLen {
		return ErrTruncated
	}
	*dst = Frame{Type: binary.BigEndian.Uint16(b[12:14]), Payload: b[HeaderLen:]}
	copy(dst.Dst[:], b[0:6])
	copy(dst.Src[:], b[6:12])
	return nil
}

// Clone returns a deep copy of f.
func (f *Frame) Clone() *Frame {
	g := *f
	g.Payload = append([]byte(nil), f.Payload...)
	return &g
}

func (f *Frame) String() string {
	return fmt.Sprintf("%s -> %s type=0x%04x len=%d", f.Src, f.Dst, f.Type, f.PayloadLen())
}
