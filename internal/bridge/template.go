package bridge

import "vnetp/internal/ethernet"

// EncapTemplate is a prebuilt encapsulation header for one link's
// steady-state flows: the full wire header marshalled once — magic,
// version, flags (sealed bit included), and the seal extension's tenant
// field — with the per-fragment fields (moreFrags bit, id, fragOff,
// totalLen, nonce) zeroed. The flow cache builds one template per link
// at link-add time; the hot transmit path then copies the prefix and
// patches only the per-fragment fields instead of re-marshalling the
// header field by field. A template never carries the trace extension:
// traced frames are rare by construction (sampled or explicitly
// triggered) and EncapsulateSealed marshals them a prefix of their own.
//
// Templates are immutable after construction and safe to share across
// goroutines and cache entries.
type EncapTemplate struct {
	prefix []byte // marshalled header, per-fragment fields zero
	sealed bool
	tenant uint32
}

// Per-fragment patch offsets within the template prefix. The flags
// byte, id, fragOff and totalLen sit in the fixed header; the nonce
// sits in the seal extension (tenant occupies its first 4 bytes).
const (
	tmplFlagsOff    = 3
	tmplIDOff       = 4
	tmplFragOff     = 8
	tmplTotalLenOff = 12
	tmplNonceOff    = EncapHeaderLen + 4
)

// NewEncapTemplate builds the header template for a link sealed by sl
// (nil for a plaintext link). Only sl's tenant ID is captured — the
// sealer itself stays with the caller, which passes it back to
// EncapsulateTemplate for nonce draws and the AEAD itself.
func NewEncapTemplate(sl LinkSealer) *EncapTemplate {
	h := EncapHeader{}
	t := &EncapTemplate{}
	if sl != nil {
		h.HasSeal = true
		h.Seal.Tenant = sl.Tenant()
		t.sealed = true
		t.tenant = sl.Tenant()
	}
	t.prefix = h.Marshal(nil)
	return t
}

// WireLen reports the template's header size on the wire.
func (t *EncapTemplate) WireLen() int { return len(t.prefix) }

// Sealed reports whether the template carries the seal extension.
func (t *EncapTemplate) Sealed() bool { return t.sealed }

// Tenant reports the tenant ID baked into a sealed template (0 for
// plaintext templates).
func (t *EncapTemplate) Tenant() uint32 { return t.tenant }

// EncapsulateTemplate is the steady-state encoder: the datagrams
// EncapsulateSealed(f, id, maxPayload, nil, sl) produces — byte for
// byte, given the same id and nonce draws — without marshalling a
// header: the link's prebuilt prefix goes straight to the shared
// fragment loop. sl must be non-nil exactly when the template is
// sealed, and must seal for the template's tenant.
func (e *Encapsulator) EncapsulateTemplate(f *ethernet.Frame, id uint32, maxPayload int, tmpl *EncapTemplate, sl LinkSealer) (*EncapPacket, error) {
	if tmpl.sealed != (sl != nil) {
		panic("bridge: template/sealer mismatch")
	}
	return e.fragment(f, id, maxPayload, tmpl.prefix, tmplNonceOff, sl)
}
