// Batch verification. The historical single-packet entry points took one
// keyring read-lock and allocated one MD5 state per call; the ring is now an
// atomic snapshot so even single-packet Verify is lock- and allocation-free.
// BatchVerifier remains the dataplane's way to hold one ring snapshot stable
// across a whole batch window: Reset pins the snapshot once and every
// verification in the batch — single-packet or batched, any mix — sees the
// same ring with zero further synchronization. Results are bit-identical to
// the single-packet paths — both funnel into ringState.compute.
package cookie

import "net/netip"

// BatchVerifier verifies many cookies against one keyring snapshot. Obtain
// with NewBatchVerifier, call Reset(a) at the start of each batch, then any
// mix of Verify/VerifyLabel/VerifyIP/Mint for the batch's packets. Not safe
// for concurrent use — each dataplane shard owns one.
//
// A Reset snapshot intentionally holds the keyring stable across the batch:
// a rotation that lands mid-batch takes effect on the next Reset, which is
// indistinguishable from the rotation having landed a few packets later.
type BatchVerifier struct {
	ring *ringState
}

// NewBatchVerifier returns a verifier with no snapshot; Reset must be
// called before the first verification (a zero snapshot verifies against
// the all-zero keyring, which no authenticator ever holds).
func NewBatchVerifier() *BatchVerifier {
	return &BatchVerifier{ring: zeroRing}
}

// Reset snapshots a's keyring (one atomic load) for the coming batch.
func (v *BatchVerifier) Reset(a *Authenticator) {
	v.ring = a.snapshot()
}

// Mint returns the cookie for src under the snapshot's current epoch,
// matching Authenticator.Mint against the same keyring.
func (v *BatchVerifier) Mint(src netip.Addr) Cookie {
	return v.ring.compute(v.ring.epoch, src)
}

// Verify is Authenticator.Verify against the snapshot.
func (v *BatchVerifier) Verify(src netip.Addr, c Cookie) bool {
	return verifyRing(v.ring, src, c)
}

// VerifyLabel is NSCodec.VerifyLabel against the snapshot.
func (v *BatchVerifier) VerifyLabel(nc NSCodec, src netip.Addr, label string) bool {
	return verifyLabel(v.ring, nc, src, label)
}

// VerifyLabelBytes is VerifyLabel for a label read where it lies in a packet.
func (v *BatchVerifier) VerifyLabelBytes(nc NSCodec, src netip.Addr, label []byte) bool {
	return verifyLabel(v.ring, nc, src, label)
}

// VerifyIP reports whether addr is ic's cookie address for src under the
// snapshot.
func (v *BatchVerifier) VerifyIP(ic IPCodec, src netip.Addr, addr netip.Addr) bool {
	return verifyIP(v.ring, ic, src, addr)
}
