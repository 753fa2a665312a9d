// Package cookie implements the DNS Guard cookie design from §III-E of the
// paper: for a request with source address src, the cookie is
//
//	c = MAC(key76, src_ip)
//
// where key76 is a 76-byte secret held only by the guard and MAC is a
// pluggable keyed hash (MACScheme). The default — and the paper's — scheme
// is MD5 over key76 ‖ src_ip (76 + 4 = 80 bytes, which MD5 pads to two
// 64-byte blocks; the first is all key, so the ring absorbs it once per key
// and a cookie costs the one block of the paper's accounting, md5.go); a
// SipHash-2-4 scheme is available for deployments that want the verify cost
// below the per-packet syscall floor.
// The 16-byte value c is used three ways:
//
//   - the full 16 bytes travel in a TXT record for the modified-DNS scheme;
//   - the first 4 bytes, hex-encoded behind a short prefix, form the label
//     embedded in fabricated NS names ("pr" + 8 hex chars, e.g. pra1b2c3d4);
//   - the first 4 bytes modulo the guard subnet's host range select the
//     fabricated A-record address (COOKIE2) for non-referral answers.
//
// Key rotation uses the cookie's first bit as a generation indicator: the
// guard overwrites bit 0 with its current generation parity and accepts
// cookies from the current and previous generation, so each verification
// still costs exactly one MAC (§III-E).
//
// Keys live in an epoch'd keyring (current + previous epoch). The live ring
// — epoch, both key slots, and the MAC scheme — is one immutable value
// behind an atomic pointer: readers (Mint/Verify and every codec) take zero
// locks, writers (Rotate/Adopt) build a new ring, persist it, and publish
// with a single store. Verification tries the current epoch and then the
// previous one — the parity bit proves at most one of the two can match, so
// the cost stays one MAC — and every cookie comparison is constant-time
// (crypto/subtle), closing the byte-wise early-exit timing side channel.
// The keyring can be persisted to a state file (see keystate.go) so a guard
// restart does not silently invalidate every cookie the LRS population has
// cached.
//
// Construction goes through Open (see open.go), the only constructor.
package cookie

import (
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnsguard/internal/errs"
)

// KeySize is the guard's secret key length in bytes.
const KeySize = 76

// Size is the cookie length in bytes.
const Size = 16

// DefaultNSPrefix is the label prefix that distinguishes cookie-bearing
// fabricated NS names from ordinary names ("PR" in the paper's example).
const DefaultNSPrefix = "pr"

// hexDigits in the NS-name encoding (4 bytes of cookie → 8 hex chars).
const nsHexLen = 8

// Cookie is the 16-byte spoof-detection credential.
type Cookie [Size]byte

// ringState is one immutable generation of the keyring. Every read path
// loads the whole ring with a single atomic pointer load; writers never
// mutate a published ring.
type ringState struct {
	epoch uint64           // current key epoch; epoch-1 is still accepted
	keys  [2][KeySize]byte // keys[epoch&1] is the key for that epoch parity
	mid   [2][4]uint32     // mid[i] = md5Mid(&keys[i]), the key block absorbed
	mac   MACScheme
}

// newRing builds a ring; every ring is built here, so a key's MD5 midstate
// is always the key's.
func newRing(epoch uint64, keys [2][KeySize]byte, mac MACScheme) *ringState {
	r := &ringState{epoch: epoch, keys: keys, mac: mac}
	for i := range keys {
		r.mid[i] = md5Mid(&r.keys[i])
	}
	return r
}

// next is the ring with key installed as the following epoch.
func (r *ringState) next(key [KeySize]byte) *ringState {
	keys := r.keys
	keys[(r.epoch+1)&1] = key
	return newRing(r.epoch+1, keys, r.mac)
}

// zeroRing backs zero-value Authenticators and un-Reset BatchVerifiers: the
// all-zero keyring under the default scheme, which no constructor ever
// publishes, so nothing real verifies against it.
var zeroRing = newRing(0, [2][KeySize]byte{}, MD5)

// compute mints the cookie for src under epoch e of the ring: the scheme's
// MAC with the first bit overwritten by the epoch parity (§III-E). The
// built-in schemes are dispatched concretely so the cookie never escapes to
// the heap — the hot path runs allocation-free.
func (r *ringState) compute(e uint64, src netip.Addr) Cookie {
	var c Cookie
	key := &r.keys[e&1]
	switch r.mac.(type) {
	case md5Scheme:
		md5Finish(r.mid[e&1], key, src, &c)
	case sipScheme:
		sipMAC(key, src, &c)
	default:
		var cc Cookie
		r.mac.MAC(key, src, &cc)
		c = cc
	}
	c[0] = c[0]&0x7F | uint8(e&1)<<7
	return c
}

// state renders the ring in its serializable form.
func (r *ringState) state() KeyState {
	return KeyState{Epoch: r.epoch, Keys: r.keys, Scheme: schemeTag(r.mac)}
}

// Authenticator computes and verifies cookies for one guard. It holds an
// epoch'd keyring — the current and previous epoch's keys — so rotation (or
// a restart that restores the ring from a state file) never invalidates live
// cookies within one TTL window. All methods are safe for concurrent use by
// the guard's shard workers and the rotation proc; the read paths are
// lock-free (one atomic pointer load per call, or per batch through
// BatchVerifier).
type Authenticator struct {
	ring   atomic.Pointer[ringState]
	mu     sync.Mutex // serializes writers and guards the binding fields
	bound  string     // state file auto-written on Rotate ("" = none)
	source string     // state file re-read on Reload ("" = none)
	follow bool       // read handle: Rotate refuses, the owner rotates
}

// snapshot returns the live ring (one atomic load, no locks).
func (a *Authenticator) snapshot() *ringState {
	if r := a.ring.Load(); r != nil {
		return r
	}
	return zeroRing
}

// MAC returns the authenticator's cookie MAC scheme.
func (a *Authenticator) MAC() MACScheme { return a.snapshot().mac }

// Epoch returns the current key epoch. Epochs only grow — across rotations
// and, when the keyring is persisted, across restarts.
func (a *Authenticator) Epoch() uint64 { return a.snapshot().epoch }

// Rotate installs a new random key as the next epoch. Cookies minted by the
// previous epoch remain verifiable until the following rotation,
// implementing the paper's week-over-week schedule. When the authenticator
// is bound to a state file (BindStateFile) the new ring is persisted before
// it is published; a persistence failure leaves the live ring untouched so
// the disk ring never lags the live one.
func (a *Authenticator) Rotate() error {
	var key [KeySize]byte
	if err := readKey(&key); err != nil {
		return errs.Wrap("cookie: rotating key: "+err.Error(), err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.follow {
		return ErrFollowHandle
	}
	next := a.snapshot().next(key)
	if a.bound != "" {
		if err := writeKeyState(a.bound, next.state()); err != nil {
			return errs.Wrap("cookie: persisting rotation: "+err.Error(), err)
		}
	}
	a.ring.Store(next)
	return nil
}

// Mint returns the cookie for src under the current epoch.
func (a *Authenticator) Mint(src netip.Addr) Cookie {
	r := a.snapshot()
	return r.compute(r.epoch, src)
}

// Verify reports whether c is a valid cookie for src under the current or
// previous key epoch. Verification tries the current epoch first, then the
// previous; the parity bit carried in the cookie means at most one of the
// two can match, so exactly one MAC is computed. The comparison is
// constant-time.
func (a *Authenticator) Verify(src netip.Addr, c Cookie) bool {
	return verifyRing(a.snapshot(), src, c)
}

// verifyRing is Verify against an explicit ring snapshot.
func verifyRing(r *ringState, src netip.Addr, c Cookie) bool {
	for _, e := range [2]uint64{r.epoch, r.epoch - 1} {
		if c[0]>>7 != uint8(e&1) {
			continue // parity proves this epoch cannot have minted c
		}
		want := r.compute(e, src)
		return subtle.ConstantTimeCompare(want[:], c[:]) == 1
	}
	return false
}

// IsZero reports whether c is the all-zero cookie, which the modified-DNS
// scheme uses as "please send me my cookie".
func (c Cookie) IsZero() bool { return c == Cookie{} }

// NS-name encoding ----------------------------------------------------------

// ErrBadSubnet is returned by the IP encoding.
var ErrBadSubnet = errors.New("cookie: subnet too small for IP cookies")

// NSCodec encodes cookies into DNS labels for the DNS-based scheme.
type NSCodec struct {
	// Prefix distinguishes cookie labels; must be short lowercase
	// letters, default DefaultNSPrefix.
	Prefix string
}

func (nc NSCodec) prefix() string {
	if nc.Prefix == "" {
		return DefaultNSPrefix
	}
	return nc.Prefix
}

// EncodeLabel renders the first 4 bytes of c as prefix+8 hex chars, a 10-byte
// label in the default configuration (the paper's "PRa1b2c3d4", cookie range
// 2^32).
func (nc NSCodec) EncodeLabel(c Cookie) string {
	return string(nc.AppendLabel(nil, c))
}

// AppendLabel appends EncodeLabel(c) to dst.
func (nc NSCodec) AppendLabel(dst []byte, c Cookie) []byte {
	return hex.AppendEncode(append(dst, nc.prefix()...), c[:nsHexLen/2])
}

// decodeLabel reads a label, a string or a packet's bytes, where it lies.
func decodeLabel[T string | []byte](prefix string, label T) (c Cookie, ok bool) {
	if len(label) != len(prefix)+nsHexLen {
		return c, false
	}
	for i := 0; i < len(label); i++ {
		x := label[i]
		if x >= 'A' && x <= 'Z' {
			x += 'a' - 'A'
		}
		switch h := i - len(prefix); {
		case h < 0 && x == prefix[i]:
		case h >= 0 && x >= '0' && x <= '9':
			c[h/2] = c[h/2]<<4 | (x - '0')
		case h >= 0 && x >= 'a' && x <= 'f':
			c[h/2] = c[h/2]<<4 | (x - 'a' + 10)
		default:
			return c, false
		}
	}
	return c, true
}

// IsCookieLabel reports whether label has the cookie shape.
func (nc NSCodec) IsCookieLabel(label string) bool {
	_, ok := decodeLabel(nc.prefix(), label)
	return ok
}

// VerifyLabel checks that label carries the first 4 bytes of the cookie the
// authenticator would mint for src, under the current or previous epoch.
// The prefix comparison is constant-time.
func (nc NSCodec) VerifyLabel(a *Authenticator, src netip.Addr, label string) bool {
	return verifyLabel(a.snapshot(), nc, src, label)
}

// verifyLabel is VerifyLabel against an explicit ring snapshot.
func verifyLabel[T string | []byte](r *ringState, nc NSCodec, src netip.Addr, label T) bool {
	got, ok := decodeLabel(nc.prefix(), label)
	if !ok {
		return false
	}
	for _, e := range [2]uint64{r.epoch, r.epoch - 1} {
		if got[0]>>7 != uint8(e&1) {
			continue // parity proves this epoch cannot have minted the label
		}
		want := r.compute(e, src)
		return subtle.ConstantTimeCompare(want[:4], got[:4]) == 1
	}
	return false
}

// IP encoding ----------------------------------------------------------------

// IPCodec encodes a second cookie (COOKIE2) as an address inside the guard's
// intercepted subnet, used for non-referral answers (§III-B.2). The security
// strength is the subnet's usable host count R_y.
type IPCodec struct {
	// Subnet is the prefix the guard intercepts (e.g. 1.2.3.0/24).
	Subnet netip.Prefix
}

// Range returns R_y, the number of distinct cookie addresses available.
// Network and broadcast addresses are excluded for IPv4 realism.
func (ic IPCodec) Range() (uint32, error) {
	bits := ic.Subnet.Addr().BitLen() - ic.Subnet.Bits()
	if bits < 2 {
		return 0, errs.Wrap(ErrBadSubnet.Error()+": "+ic.Subnet.String(), ErrBadSubnet)
	}
	if bits > 24 {
		bits = 24 // cap so hosts fit comfortably in uint32 arithmetic
	}
	return uint32(1)<<bits - 2, nil
}

// Encode maps c into an address in the subnet: y = first4(c) mod R_y, host
// part y+1 (skipping the network address).
func (ic IPCodec) Encode(c Cookie) (netip.Addr, error) {
	ry, err := ic.Range()
	if err != nil {
		return netip.Addr{}, err
	}
	y := be32(c[:4])%ry + 1
	base := ic.Subnet.Masked().Addr().As4()
	host := be32(base[:]) + y
	return netip.AddrFrom4([4]byte{byte(host >> 24), byte(host >> 16), byte(host >> 8), byte(host)}), nil
}

// verifyIP reports whether addr is ic's cookie address for src under the
// current or previous epoch of ring r. Address comparisons are constant-time.
func verifyIP(r *ringState, ic IPCodec, src netip.Addr, addr netip.Addr) bool {
	if !ic.Subnet.Contains(addr) {
		return false
	}
	got := addr.As16()
	// Try both epochs: the address carries no epoch parity bit.
	for _, e := range [2]uint64{r.epoch, r.epoch - 1} {
		want, err := ic.Encode(r.compute(e, src))
		if err != nil {
			continue
		}
		w := want.As16()
		if subtle.ConstantTimeCompare(w[:], got[:]) == 1 {
			return true
		}
	}
	return false
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// Wire encoding (modified-DNS scheme) ----------------------------------------

// TTL choices from the paper: fabricated NS records and wire cookies live for
// a week so caches almost always hit.
const DefaultTTL = 7 * 24 * time.Hour
