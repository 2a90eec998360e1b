package seal

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

func testKey(b byte) []byte {
	key := make([]byte, KeyLen)
	for i := range key {
		key[i] = b
	}
	return key
}

// pad returns pt with Overhead bytes of spare capacity, as the pooled
// encapsulation buffers guarantee on the real path.
func pad(pt []byte) []byte {
	buf := make([]byte, len(pt), len(pt)+Overhead)
	copy(buf, pt)
	return buf
}

func mustKeyring(t *testing.T, origin uint16, tenants ...uint32) *Keyring {
	t.Helper()
	k := NewKeyring(origin)
	for _, id := range tenants {
		if err := k.AddTenant(id, testKey(byte(id))); err != nil {
			t.Fatalf("AddTenant(%d): %v", id, err)
		}
	}
	return k
}

func TestSealOpenRoundTrip(t *testing.T) {
	a := mustKeyring(t, 0x0a0a, 7)
	b := mustKeyring(t, 0x0b0b, 7)
	s, err := a.Sealer(7)
	if err != nil {
		t.Fatalf("Sealer: %v", err)
	}
	aad := []byte("header bytes")
	for _, msg := range []string{"", "x", "hello overlay", strings.Repeat("jumbo", 4000)} {
		nonce := s.NextNonce()
		ct := s.Seal(nonce, aad, pad([]byte(msg)))
		if len(ct) != len(msg)+Overhead {
			t.Fatalf("ciphertext length %d, want %d", len(ct), len(msg)+Overhead)
		}
		pt, err := b.Open(7, nonce, aad, ct)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if string(pt) != msg {
			t.Fatalf("round trip: got %q want %q", pt, msg)
		}
	}
}

func TestSealInPlace(t *testing.T) {
	a := mustKeyring(t, 1, 1)
	s, _ := a.Sealer(1)
	buf := pad([]byte("in place"))
	ct := s.Seal(s.NextNonce(), nil, buf)
	if &ct[0] != &buf[0] {
		t.Fatal("Seal reallocated despite spare capacity")
	}
}

// TestSealOpenAllocs pins the per-datagram cipher path at zero
// allocations: with associated data ending in the wire header's seal
// extension — tenantID(4) | nonce(8), exactly the GCM nonce — Seal and
// Open read the nonce in place instead of building one that would escape
// through the AEAD interface.
func TestSealOpenAllocs(t *testing.T) {
	a := mustKeyring(t, 0x0a0a, 7)
	b := mustKeyring(t, 0x0b0b, 7)
	s, _ := a.Sealer(7)
	hdr := make([]byte, 16+NonceLen) // a header whose last 12 bytes are its seal extension
	binary.BigEndian.PutUint32(hdr[16:], 7)
	buf := pad(bytes.Repeat([]byte{0x5a}, 1300))
	var nonce uint64
	var ct []byte
	seal := func() {
		nonce = s.NextNonce()
		binary.BigEndian.PutUint64(hdr[20:], nonce)
		ct = s.Seal(nonce, hdr, buf[:1300])
	}
	if allocs := testing.AllocsPerRun(100, seal); allocs != 0 {
		t.Fatalf("Seal: %.0f allocations per datagram, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		seal()
		if _, err := b.Open(7, nonce, hdr, ct); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Seal+Open: %.0f allocations per datagram, want 0", allocs)
	}
}

func rejectReason(t *testing.T, err error) string {
	t.Helper()
	if err == nil {
		t.Fatal("expected a reject, got success")
	}
	re, ok := err.(*RejectError)
	if !ok {
		t.Fatalf("expected RejectError, got %T: %v", err, err)
	}
	return re.Reason
}

func TestOpenRejects(t *testing.T) {
	a := mustKeyring(t, 0x0a0a, 7)
	b := mustKeyring(t, 0x0b0b, 7, 9)
	s, _ := a.Sealer(7)
	aad := []byte("hdr")
	nonce := s.NextNonce()
	ct := s.Seal(nonce, aad, pad([]byte("payload")))
	keep := append([]byte(nil), ct...)

	// Unknown tenant.
	if r := rejectReason(t, errOf(b.Open(99, nonce, aad, clone(keep)))); r != RejectUnknownTenant {
		t.Fatalf("unknown tenant: reason %q", r)
	}
	// Wrong tenant (key exists, but this nonce/key stream is tenant 7's).
	if r := rejectReason(t, errOf(b.Open(9, nonce, aad, clone(keep)))); r != RejectAuth {
		t.Fatalf("wrong tenant: reason %q", r)
	}
	// Truncated ciphertext (shorter than the tag).
	if r := rejectReason(t, errOf(b.Open(7, nonce, aad, clone(keep[:Overhead-1])))); r != RejectTruncated {
		t.Fatalf("truncated: reason %q", r)
	}
	// Flipped ciphertext bit.
	bad := clone(keep)
	bad[0] ^= 0x80
	if r := rejectReason(t, errOf(b.Open(7, nonce, aad, bad))); r != RejectAuth {
		t.Fatalf("tampered ciphertext: reason %q", r)
	}
	// Tampered AAD.
	if r := rejectReason(t, errOf(b.Open(7, nonce, []byte("hdx"), clone(keep)))); r != RejectAuth {
		t.Fatalf("tampered aad: reason %q", r)
	}
	// Genuine open succeeds, then the same nonce replays.
	if _, err := b.Open(7, nonce, aad, clone(keep)); err != nil {
		t.Fatalf("genuine open: %v", err)
	}
	if r := rejectReason(t, errOf(b.Open(7, nonce, aad, clone(keep)))); r != RejectReplay {
		t.Fatalf("replay: reason %q", r)
	}
	// A failed auth must not advance the window: the next genuine nonce
	// still opens.
	n2 := s.NextNonce()
	c2 := s.Seal(n2, aad, pad([]byte("payload")))
	if _, err := b.Open(7, n2, aad, c2); err != nil {
		t.Fatalf("open after rejects: %v", err)
	}
}

func errOf(_ []byte, err error) error { return err }

func clone(b []byte) []byte { return append([]byte(nil), b...) }

func TestReplayWindowReordering(t *testing.T) {
	a := mustKeyring(t, 0x0a0a, 1)
	b := mustKeyring(t, 0x0b0b, 1)
	s, _ := a.Sealer(1)
	type sealed struct {
		nonce uint64
		ct    []byte
	}
	var msgs []sealed
	for i := 0; i < 10; i++ {
		n := s.NextNonce()
		msgs = append(msgs, sealed{n, s.Seal(n, nil, pad([]byte{byte(i)}))})
	}
	// Deliver out of order: evens first, then odds — all must open.
	for _, i := range []int{0, 2, 4, 6, 8, 1, 3, 5, 7, 9} {
		if _, err := b.Open(1, msgs[i].nonce, nil, clone(msgs[i].ct)); err != nil {
			t.Fatalf("reordered open %d: %v", i, err)
		}
	}
	// Every replay now rejects.
	for i, m := range msgs {
		if r := rejectReason(t, errOf(b.Open(1, m.nonce, nil, clone(m.ct)))); r != RejectReplay {
			t.Fatalf("replay %d: reason %q", i, r)
		}
	}
}

func TestReplayWindowBounds(t *testing.T) {
	var w replayWindow
	if !w.commit(1000) {
		t.Fatal("first commit refused")
	}
	if w.check(1000) {
		t.Fatal("committed seq still checks")
	}
	if !w.check(1000 - windowSize + 1) {
		t.Fatal("in-window seq refused")
	}
	if w.check(1000 - windowSize) {
		t.Fatal("behind-window seq accepted")
	}
	// A far jump forward clears the bitmap but keeps rejecting the past.
	if !w.commit(1000 + 10*windowSize) {
		t.Fatal("jump commit refused")
	}
	if w.check(1000) {
		t.Fatal("pre-jump seq accepted after window advanced")
	}
}

func TestPerDirectionKeys(t *testing.T) {
	// Two nodes sealing for the same tenant use distinct subkeys: node
	// B cannot open its own output as if it came from node A.
	a := mustKeyring(t, 0x0a0a, 1)
	b := mustKeyring(t, 0x0b0b, 1)
	sb, _ := b.Sealer(1)
	nonce := sb.NextNonce()
	ct := sb.Seal(nonce, nil, pad([]byte("from b")))
	// Genuine direction works.
	if _, err := a.Open(1, nonce, nil, clone(ct)); err != nil {
		t.Fatalf("a<-b open: %v", err)
	}
	// Forging the origin field re-derives a different subkey: reject.
	forged := nonce&seqMask | uint64(0x0a0a)<<48
	if r := rejectReason(t, errOf(b.Open(1, forged, nil, clone(ct)))); r != RejectAuth {
		t.Fatalf("forged origin: reason %q", r)
	}
}

func TestKeyringHygiene(t *testing.T) {
	key := testKey(0x42)
	k := mustKeyring(t, 1)
	if err := k.AddTenant(0, key); err == nil {
		t.Fatal("tenant 0 accepted")
	}
	if err := k.AddTenant(1, key[:16]); err == nil {
		t.Fatal("short key accepted")
	}
	if err := k.AddTenant(1, key); err != nil {
		t.Fatalf("AddTenant: %v", err)
	}
	infos := k.Tenants()
	if len(infos) != 1 || infos[0].ID != 1 {
		t.Fatalf("Tenants: %+v", infos)
	}
	if infos[0].Fingerprint != Fingerprint(key) {
		t.Fatalf("fingerprint mismatch: %q", infos[0].Fingerprint)
	}
	if len(infos[0].Fingerprint) != 8 {
		t.Fatalf("fingerprint length %d, want 8", len(infos[0].Fingerprint))
	}
	if k.Count() != 1 {
		t.Fatalf("Count: %d", k.Count())
	}
}

func TestParseKey(t *testing.T) {
	hex64 := strings.Repeat("ab", KeyLen)
	key, err := ParseKey(hex64)
	if err != nil {
		t.Fatalf("ParseKey: %v", err)
	}
	if len(key) != KeyLen {
		t.Fatalf("key length %d", len(key))
	}
	for _, bad := range []string{"", "zz", hex64[:10], hex64 + "ff", "not hex at all"} {
		if _, err := ParseKey(bad); err == nil {
			t.Fatalf("ParseKey(%q) accepted", bad)
		} else if len(bad) > 4 && strings.Contains(err.Error(), bad) {
			t.Fatalf("ParseKey error echoes the input: %v", err)
		}
	}
}

func TestKeyRotationResetsReceiveState(t *testing.T) {
	a := mustKeyring(t, 0x0a0a, 1)
	b := mustKeyring(t, 0x0b0b, 1)
	s, _ := a.Sealer(1)
	nonce := s.NextNonce()
	ct := s.Seal(nonce, nil, pad([]byte("old key")))
	keep := clone(ct)
	if _, err := b.Open(1, nonce, nil, ct); err != nil {
		t.Fatalf("open under old key: %v", err)
	}
	if err := b.AddTenant(1, testKey(0x99)); err != nil {
		t.Fatalf("rotate: %v", err)
	}
	if r := rejectReason(t, errOf(b.Open(1, nonce, nil, keep))); r != RejectAuth {
		t.Fatalf("old-key datagram after rotation: reason %q", r)
	}
}

func TestNewKeyAndNonceUniqueness(t *testing.T) {
	k1, err := NewKey()
	if err != nil {
		t.Fatalf("NewKey: %v", err)
	}
	k2, _ := NewKey()
	if bytes.Equal(k1, k2) {
		t.Fatal("two NewKey results identical")
	}
	kr := mustKeyring(t, 3, 1)
	s, _ := kr.Sealer(1)
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		n := s.NextNonce()
		if uint16(n>>48) != 3 {
			t.Fatalf("nonce origin %04x, want 0003", uint16(n>>48))
		}
		if seen[n] {
			t.Fatalf("duplicate nonce %016x", n)
		}
		seen[n] = true
	}
}
