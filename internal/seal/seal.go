// Package seal provides the overlay's per-link AEAD layer: AES-256-GCM
// over stdlib crypto only, with per-direction subkeys and counter-based
// nonces, so encapsulated frames crossing untrusted networks are
// confidential, authenticated, and replay-protected. A Keyring holds one
// master key per tenant; each datagram is sealed under a subkey derived
// from (tenant master, sending node's 16-bit origin), which gives every
// (tenant, direction) pair an independent key stream without any
// handshake — key distribution is the control plane's ADD TENANT verb.
//
// Nonce shape reuses the trace-ID convention (origin16 << 48 | seq48):
// the high 16 bits name the sealing node, the low 48 bits are a
// monotonic counter started at a random offset, so the receiver can
// derive the correct per-direction subkey from the nonce alone and run
// an IPsec-style sliding replay window per (tenant, origin). The full
// 96-bit GCM nonce is tenantID(4) || nonce8(8) — a nonce authenticated
// into the ciphertext can never be replayed into another tenant.
//
// Everything fails closed: unknown tenant, authentication failure,
// replayed or out-of-window nonce, and truncated ciphertext all reject
// the datagram with a typed reason the datapath counts
// (vnetp_seal_reject_total{reason=...}).
//
// Known limitation: the origin is a 16-bit hash of the node name. Two
// node names colliding within one tenant would share a subkey and could
// collide nonces (the random counter offsets make that improbable but
// not impossible) — deployments should keep node names distinct and
// tenant membership small, or rotate the tenant key when renaming nodes.
package seal

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

const (
	// KeyLen is the tenant master key size in bytes (AES-256).
	KeyLen = 32
	// Overhead is the ciphertext expansion per sealed payload (GCM tag).
	Overhead = 16
	// NonceLen is the GCM nonce size: tenantID(4) || wire nonce(8).
	NonceLen = 12

	// seqMask keeps the counter inside the nonce's 48-bit field.
	seqMask = (uint64(1) << 48) - 1
	// seqStartMask bounds the random initial counter offset to 46 bits,
	// leaving at least 2^47 sends before the 48-bit counter could wrap.
	seqStartMask = (uint64(1) << 46) - 1

	// windowSize is the replay window span per (tenant, origin): a nonce
	// more than windowSize-1 behind the highest seen is rejected even if
	// never delivered, bounding receiver state like IPsec's ESP window.
	windowSize = 64

	// subkeyLabel domain-separates the per-direction key derivation.
	subkeyLabel = "vnetp-seal-v1"
)

// Reject reasons, the label values of vnetp_seal_reject_total. The set
// is fixed so the datapath can pre-register every child counter.
const (
	RejectUnknownTenant = "unknown_tenant"
	RejectAuth          = "auth"
	RejectReplay        = "replay"
	RejectTruncated     = "truncated"
)

// RejectReasons lists every reject reason Open can report.
var RejectReasons = []string{RejectUnknownTenant, RejectAuth, RejectReplay, RejectTruncated}

// RejectError is a fail-closed Open refusal carrying its typed reason.
type RejectError struct{ Reason string }

func (e *RejectError) Error() string { return "seal: rejected: " + e.Reason }

func reject(reason string) error { return &RejectError{Reason: reason} }

// RejectReasonOf extracts a reject reason from an Open error ("error"
// for anything that is not a RejectError).
func RejectReasonOf(err error) string {
	var re *RejectError
	if errors.As(err, &re) {
		return re.Reason
	}
	return "error"
}

// ParseKey decodes a tenant master key from its control-language hex
// form. Errors never echo the input — key material must not leak into
// logs or control responses even when malformed.
func ParseKey(s string) ([]byte, error) {
	key, err := hex.DecodeString(s)
	if err != nil || len(key) != KeyLen {
		return nil, fmt.Errorf("seal: tenant key must be %d hex characters (%d bytes)", KeyLen*2, KeyLen)
	}
	return key, nil
}

// NewKey generates a fresh random tenant master key.
func NewKey() ([]byte, error) {
	key := make([]byte, KeyLen)
	if _, err := rand.Read(key); err != nil {
		return nil, err
	}
	return key, nil
}

// Fingerprint renders key material as a short non-reversible identifier
// (first 4 bytes of SHA-256, hex) — the only form keys ever take in
// logs, LIST TENANTS output, and error messages.
func Fingerprint(key []byte) string {
	sum := sha256.Sum256(key)
	return hex.EncodeToString(sum[:4])
}

// subkey derives the per-direction AEAD key for datagrams sealed by the
// node with the given origin: HMAC-SHA256(master, label || origin16be).
func subkey(master []byte, origin uint16) []byte {
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte(subkeyLabel))
	var o [2]byte
	binary.BigEndian.PutUint16(o[:], origin)
	mac.Write(o[:])
	return mac.Sum(nil)
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// replayWindow is a sliding anti-replay bitmap over the 48-bit sequence
// space: bit d marks sequence top-d as seen. Commit after a successful
// authentication only — an attacker must not be able to burn window
// slots with forged nonces.
type replayWindow struct {
	top    uint64
	bitmap uint64
	seeded bool
}

// check reports whether seq could still be accepted (not yet seen and
// not behind the window). A pre-decrypt gate: cheap rejection of exact
// replays before any AES work.
func (w *replayWindow) check(seq uint64) bool {
	if !w.seeded || seq > w.top {
		return true
	}
	d := w.top - seq
	return d < windowSize && w.bitmap&(1<<d) == 0
}

// commit marks seq as seen, reporting false if it lost a race with a
// duplicate or fell behind the window since check.
func (w *replayWindow) commit(seq uint64) bool {
	if !w.seeded {
		w.seeded = true
		w.top = seq
		w.bitmap = 1
		return true
	}
	if seq > w.top {
		if shift := seq - w.top; shift >= windowSize {
			w.bitmap = 0
		} else {
			w.bitmap <<= shift
		}
		w.top = seq
		w.bitmap |= 1
		return true
	}
	d := w.top - seq
	if d >= windowSize || w.bitmap&(1<<d) != 0 {
		return false
	}
	w.bitmap |= 1 << d
	return true
}

// recvState is one remote origin's receive half within a tenant: its
// derived AEAD and its replay window.
type recvState struct {
	aead cipher.AEAD
	win  replayWindow
}

// tenant is one tenant's key state: the master key (never logged), its
// fingerprint, the send AEAD under this node's own origin, and the
// per-remote-origin receive states built on demand.
type tenant struct {
	master [KeyLen]byte
	fp     string
	send   cipher.AEAD

	mu   sync.Mutex
	recv map[uint16]*recvState
}

// Keyring is a node's tenant key store and nonce source. Safe for
// concurrent use by every dispatcher and TX sender.
type Keyring struct {
	origin uint16
	seq    atomic.Uint64

	mu      sync.RWMutex
	tenants map[uint32]*tenant
}

// NewKeyring returns a keyring sealing as origin. The nonce counter
// starts at a random 46-bit offset so two nodes whose names hash to the
// same origin do not start identical nonce streams.
func NewKeyring(origin uint16) *Keyring {
	k := &Keyring{origin: origin, tenants: make(map[uint32]*tenant)}
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		k.seq.Store(binary.BigEndian.Uint64(b[:]) & seqStartMask)
	}
	return k
}

// Origin reports the keyring's 16-bit sealing identity.
func (k *Keyring) Origin() uint16 { return k.origin }

// AddTenant installs (or rotates) a tenant's master key. Tenant 0 is
// reserved for the default plaintext namespace. Rotation resets the
// tenant's receive states: datagrams sealed under the old key reject.
func (k *Keyring) AddTenant(id uint32, key []byte) error {
	if id == 0 {
		return errors.New("seal: tenant 0 is the default plaintext namespace")
	}
	if len(key) != KeyLen {
		return fmt.Errorf("seal: tenant key must be %d bytes", KeyLen)
	}
	send, err := newAEAD(subkey(key, k.origin))
	if err != nil {
		return err
	}
	t := &tenant{fp: Fingerprint(key), send: send, recv: make(map[uint16]*recvState)}
	copy(t.master[:], key)
	k.mu.Lock()
	k.tenants[id] = t
	k.mu.Unlock()
	return nil
}

// Count reports how many tenants hold keys (the vnetp_tenants gauge).
func (k *Keyring) Count() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.tenants)
}

// TenantInfo is one tenant's public description: no key material, only
// the fingerprint and how many remote origins have been heard from.
type TenantInfo struct {
	ID          uint32
	Fingerprint string
	Origins     int
}

// Tenants snapshots the configured tenants, sorted by ID.
func (k *Keyring) Tenants() []TenantInfo {
	k.mu.RLock()
	out := make([]TenantInfo, 0, len(k.tenants))
	for id, t := range k.tenants {
		t.mu.Lock()
		n := len(t.recv)
		t.mu.Unlock()
		out = append(out, TenantInfo{ID: id, Fingerprint: t.fp, Origins: n})
	}
	k.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Sealer returns the send-side sealer for a tenant, failing closed on an
// unknown tenant (a link must not silently fall back to plaintext).
func (k *Keyring) Sealer(tenantID uint32) (*Sealer, error) {
	k.mu.RLock()
	t := k.tenants[tenantID]
	k.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("seal: unknown tenant %d", tenantID)
	}
	return &Sealer{kr: k, tenantID: tenantID, aead: t.send}, nil
}

// Sealer seals datagrams for one tenant under this node's origin subkey.
// It implements the bridge encoder's LinkSealer contract.
type Sealer struct {
	kr       *Keyring
	tenantID uint32
	aead     cipher.AEAD
}

// Tenant reports the tenant the sealer encrypts for.
func (s *Sealer) Tenant() uint32 { return s.tenantID }

// NextNonce draws the next wire nonce: origin16 << 48 | seq48.
func (s *Sealer) NextNonce() uint64 {
	return uint64(s.kr.origin)<<48 | (s.kr.seq.Add(1) & seqMask)
}

// Seal encrypts plaintext in place under nonce with additional as
// associated data, returning ciphertext || tag. The result reuses
// plaintext's storage (dst = plaintext[:0]); the caller must provide
// Overhead bytes of spare capacity or Seal reallocates.
func (s *Sealer) Seal(nonce uint64, additional, plaintext []byte) []byte {
	return s.aead.Seal(plaintext[:0], gcmNonce(s.tenantID, nonce, additional), plaintext, additional)
}

// gcmNonce returns the 96-bit GCM nonce tenantID(4) || nonce(8). A wire
// header — the associated data on the datapath — ends with exactly those
// bytes (its seal extension), so the nonce is that slice of it: nothing
// escapes through the AEAD interface and nothing is allocated. Associated
// data that does not end so gets the nonce built in a fresh buffer.
func gcmNonce(tenantID uint32, nonce uint64, additional []byte) []byte {
	if at := len(additional) - NonceLen; at >= 0 &&
		binary.BigEndian.Uint32(additional[at:]) == tenantID &&
		binary.BigEndian.Uint64(additional[at+4:]) == nonce {
		return additional[at:]
	}
	nb := make([]byte, NonceLen)
	binary.BigEndian.PutUint32(nb, tenantID)
	binary.BigEndian.PutUint64(nb[4:], nonce)
	return nb
}

// Open authenticates and decrypts one sealed payload in place (the
// returned plaintext reuses ct's storage). additional must be the exact
// wire header the sealer authenticated. Every failure is a RejectError;
// the replay window advances only on success, so forged datagrams
// cannot desynchronize a live stream.
func (k *Keyring) Open(tenantID uint32, nonce uint64, additional, ct []byte) ([]byte, error) {
	if len(ct) < Overhead {
		return nil, reject(RejectTruncated)
	}
	k.mu.RLock()
	t := k.tenants[tenantID]
	k.mu.RUnlock()
	if t == nil {
		return nil, reject(RejectUnknownTenant)
	}
	origin := uint16(nonce >> 48)
	seq := nonce & seqMask
	t.mu.Lock()
	rs := t.recv[origin]
	if rs == nil {
		aead, err := newAEAD(subkey(t.master[:], origin))
		if err != nil {
			t.mu.Unlock()
			return nil, reject(RejectAuth)
		}
		rs = &recvState{aead: aead}
		t.recv[origin] = rs
	}
	if !rs.win.check(seq) {
		t.mu.Unlock()
		return nil, reject(RejectReplay)
	}
	aead := rs.aead
	t.mu.Unlock()

	pt, err := aead.Open(ct[:0], gcmNonce(tenantID, nonce, additional), ct, additional)
	if err != nil {
		return nil, reject(RejectAuth)
	}

	t.mu.Lock()
	ok := rs.win.commit(seq)
	t.mu.Unlock()
	if !ok {
		return nil, reject(RejectReplay)
	}
	return pt, nil
}
