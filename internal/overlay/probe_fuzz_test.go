package overlay

import (
	"encoding/binary"
	"testing"

	"vnetp/internal/bridge"
)

// FuzzProbePayload feeds parseProbePayload arbitrary bytes: it must never
// panic, it must accept a payload exactly when the link ID it declares
// fits, and what it accepts it must read back as written — the sequence
// from the first 8 bytes, the ID from behind the 17-byte head. A probe
// marshalled for the fuzzed ID and sequence must parse back to them (the
// ID cut to the maxLinkID bytes addLink admits: no longer one reaches
// marshalProbe).
func FuzzProbePayload(f *testing.F) {
	probe := func(id string, seq uint64) []byte {
		_, payload, err := bridge.ParseEncap(marshalProbe(id, seq))
		if err != nil {
			f.Fatal(err)
		}
		return payload
	}
	f.Add(probe("to-b", 7), "to-b", uint64(7))
	f.Add(probe("", 0), "", uint64(0))
	f.Add([]byte{}, "x", uint64(1))
	f.Add(make([]byte, probeHeadLen-1), "link", uint64(1<<63))
	f.Add(append(make([]byte, probeHeadLen-1), 3, 'a', 'b'), "ab", uint64(2))
	f.Add(append(make([]byte, probeHeadLen-1), 255), string(make([]byte, 300)), uint64(3))
	f.Fuzz(func(t *testing.T, p []byte, id string, seq uint64) {
		gotSeq, gotID, ok := parseProbePayload(p)
		fits := len(p) >= probeHeadLen && len(p) >= probeHeadLen+int(p[probeHeadLen-1])
		if ok != fits {
			t.Fatalf("%d-byte payload: ok = %v, want %v", len(p), ok, fits)
		}
		if ok {
			idLen := int(p[probeHeadLen-1])
			if gotSeq != binary.BigEndian.Uint64(p) || gotID != string(p[probeHeadLen:probeHeadLen+idLen]) {
				t.Fatalf("parsed seq %d id %q from a payload declaring %d and %q",
					gotSeq, gotID, binary.BigEndian.Uint64(p), p[probeHeadLen:probeHeadLen+idLen])
			}
		} else if gotSeq != 0 || gotID != "" {
			t.Fatalf("refused payload still yielded seq %d id %q", gotSeq, gotID)
		}
		if len(id) > maxLinkID {
			id = id[:maxLinkID]
		}
		want := id
		_, payload, err := bridge.ParseEncap(marshalProbe(id, seq))
		if err != nil {
			t.Fatal(err)
		}
		if s, got, ok := parseProbePayload(payload); !ok || s != seq || got != want {
			t.Fatalf("probe for %q seq %d parsed back as %q seq %d (ok %v)", want, seq, got, s, ok)
		}
	})
}
