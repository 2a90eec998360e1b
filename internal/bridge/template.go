package bridge

import "vnetp/internal/ethernet"

// EncapTemplate is a prebuilt encapsulation header for one link's
// steady-state flows: the full wire header marshalled once — magic,
// version, flags (sealed bit included), and the seal extension's tenant
// field — with the per-fragment fields (moreFrags bit, id, fragOff,
// totalLen, nonce) zeroed. The overlay builds one template per link at
// link-add time; the hot transmit path then copies the prefix and
// patches only the per-fragment fields instead of re-marshalling the
// header field by field. A template never carries the trace extension:
// traced frames are rare by construction (sampled or explicitly
// triggered) and EncapsulateFor marshals them a prefix of their own.
//
// Templates are immutable after construction and safe to share across
// goroutines and cache entries.
type EncapTemplate struct {
	prefix []byte // marshalled header, per-fragment fields zero
	sealed bool
	tenant uint32
}

// Per-fragment patch offsets within the template prefix: the flags
// byte, id, fragOff and totalLen sit in the fixed header. (The nonce ends
// the seal extension, wherever the header ends: SealDatagram.)
const (
	tmplFlagsOff    = 3
	tmplIDOff       = 4
	tmplFragOff     = 8
	tmplTotalLenOff = 12
)

// NewEncapTemplate builds the header template for a link sealed by sl
// (nil for a plaintext link). Only sl's tenant ID is captured: the
// template's datagrams are cut in the clear, and whoever sends them
// seals them with the sealer (EncapPacket.Seal, SealDatagram).
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

// EncapsulateFor is the encoder for a frame that travels alone on a link
// with template tmpl. Untraced (tr nil), the link's prebuilt prefix goes
// straight to the shared fragment loop; traced, a header is marshalled
// with the trace extension and the template's seal bit and tenant. A
// sealed template's datagrams come back in the clear, with room for their
// tags: the caller seals them (EncapPacket.Seal) before they leave.
func (e *Encapsulator) EncapsulateFor(f *ethernet.Frame, id uint32, maxPayload int, tmpl *EncapTemplate, tr *TraceExt) (*EncapPacket, error) {
	if tr == nil {
		return e.fragment(f, id, maxPayload, tmpl.prefix, tmpl.sealed)
	}
	h := EncapHeader{Trace: *tr, HasTrace: true, HasSeal: tmpl.sealed, Seal: SealExt{Tenant: tmpl.tenant}}
	var buf [EncapHeaderLen + EncapTraceLen + EncapSealLen]byte
	return e.fragment(f, id, maxPayload, h.Marshal(buf[:0]), tmpl.sealed)
}

// EncapsulateTemplate is EncapsulateFor, untraced, with the datagrams
// sealed by sl: byte for byte what EncapsulateSealed(f, id, maxPayload,
// nil, sl) produces, given the same id and nonce draws, without
// marshalling a header. sl must be non-nil exactly when the template is
// sealed, and must seal for the template's tenant.
func (e *Encapsulator) EncapsulateTemplate(f *ethernet.Frame, id uint32, maxPayload int, tmpl *EncapTemplate, sl LinkSealer) (*EncapPacket, error) {
	if tmpl.sealed != (sl != nil) {
		panic("bridge: template/sealer mismatch")
	}
	p, err := e.EncapsulateFor(f, id, maxPayload, tmpl, nil)
	if err == nil && sl != nil {
		p.Seal(sl)
	}
	return p, err
}
