package cookie

// Pluggable cookie MAC schemes. The paper fixes the cookie MAC as MD5 over
// key76 ‖ src_ip (§III-E); MACScheme keeps that computation the default
// while letting deployments swap in a cheaper keyed hash. The guard's whole
// deployability case is that one verification stays below the per-packet
// syscall cost, and on modern cores a short-input SipHash beats MD5 by a
// wide margin — bench's cookie.verify_*_ns rows
// record both beside realnet.write_b1_ns, the measured syscall floor.
//
// A scheme computes the raw 16-byte MAC only. Epoch-parity stamping of the
// first bit (the paper's generation indicator) happens in the ring, so every
// scheme composes with key rotation identically.

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"net/netip"
	"strconv"
)

// MACScheme is a keyed MAC over a request's source address: the pluggable
// core of the cookie computation. Implementations must be pure functions of
// (key, src) — the ring applies the epoch-parity overwrite to c[0] after MAC
// returns — and must not retain key or c, so the hot path can pass
// stack-allocated storage.
type MACScheme interface {
	// Name is the scheme's stable identifier, used for the state-file
	// scheme tag, the gossip wire encoding, and `dnsguardd -cookie-mac`.
	Name() string
	// MAC fills c with the 16-byte MAC of src's packed address (4 bytes
	// for IPv4 and 4-in-6, 16 otherwise) under key.
	MAC(key *[KeySize]byte, src netip.Addr, c *Cookie)
}

// The built-in schemes.
var (
	// MD5 is the paper's cookie MAC: c = MD5(key76 ‖ src_ip). The default;
	// byte-identical to the historical computation.
	MD5 MACScheme = md5Scheme{}
	// SipHash is SipHash-2-4 with 128-bit output keyed by the first 16
	// bytes of key76 — a short-input keyed hash several times cheaper than
	// MD5 at the same cookie width.
	SipHash MACScheme = sipScheme{}
)

// MACByName resolves a scheme identifier. The empty string names the
// default (MD5), matching a state file with no scheme tag.
func MACByName(name string) (MACScheme, error) {
	switch name {
	case "", "md5":
		return MD5, nil
	case "siphash":
		return SipHash, nil
	}
	return nil, errors.New("cookie: unknown MAC scheme " + strconv.Quote(name) + " (want md5 or siphash)")
}

// srcBytes packs src the way every scheme hashes it: As4 for IPv4 and
// 4-in-6 sources (the paper's 76+4 = 80-byte input, two MD5 blocks once
// padded), As16 otherwise.
func srcBytes(src netip.Addr, b *[16]byte) int {
	if src.Is4() || src.Is4In6() {
		a := src.As4()
		return copy(b[:], a[:])
	}
	a := src.As16()
	return copy(b[:], a[:])
}

// md5Scheme is the paper's MAC.
type md5Scheme struct{}

func (md5Scheme) Name() string { return "md5" }

// MAC runs both MD5 blocks: a ring keeps the first block's state per key
// and finishes from it (md5.go).
func (md5Scheme) MAC(key *[KeySize]byte, src netip.Addr, c *Cookie) {
	md5Finish(md5Mid(key), key, src, c)
}

// sipScheme is SipHash-2-4-128.
type sipScheme struct{}

func (sipScheme) Name() string { return "siphash" }

func (s sipScheme) MAC(key *[KeySize]byte, src netip.Addr, c *Cookie) { sipMAC(key, src, c) }

// sipMAC computes SipHash-2-4 with 128-bit output over the packed source
// address, keyed by key[0:16] interpreted little-endian.
func sipMAC(key *[KeySize]byte, src netip.Addr, c *Cookie) {
	k0 := binary.LittleEndian.Uint64(key[0:8])
	k1 := binary.LittleEndian.Uint64(key[8:16])
	var m [16]byte
	n := srcBytes(src, &m)
	lo, hi := siphash128(k0, k1, m[:n])
	binary.LittleEndian.PutUint64(c[0:8], lo)
	binary.LittleEndian.PutUint64(c[8:16], hi)
}

// siphash128 is the reference SipHash-2-4 in 128-bit output mode (v1 ^= 0xee
// at init, v2 ^= 0xee for the first finalization, v1 ^= 0xdd for the
// second). msg is at most 16 bytes here, but the loop handles any length.
func siphash128(k0, k1 uint64, msg []byte) (lo, hi uint64) {
	v0 := k0 ^ 0x736f6d6570736575
	v1 := k1 ^ 0x646f72616e646f6d
	v2 := k0 ^ 0x6c7967656e657261
	v3 := k1 ^ 0x7465646279746573
	v1 ^= 0xee

	b := msg
	for len(b) >= 8 {
		m := binary.LittleEndian.Uint64(b)
		v3 ^= m
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
		v0 ^= m
		b = b[8:]
	}
	var last uint64
	for i := len(b) - 1; i >= 0; i-- {
		last = last<<8 | uint64(b[i])
	}
	last |= uint64(len(msg)) << 56
	v3 ^= last
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	v0 ^= last

	v2 ^= 0xee
	for i := 0; i < 4; i++ {
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	}
	lo = v0 ^ v1 ^ v2 ^ v3
	v1 ^= 0xdd
	for i := 0; i < 4; i++ {
		v0, v1, v2, v3 = sipRound(v0, v1, v2, v3)
	}
	hi = v0 ^ v1 ^ v2 ^ v3
	return lo, hi
}

func sipRound(v0, v1, v2, v3 uint64) (uint64, uint64, uint64, uint64) {
	v0 += v1
	v1 = bits.RotateLeft64(v1, 13)
	v1 ^= v0
	v0 = bits.RotateLeft64(v0, 32)
	v2 += v3
	v3 = bits.RotateLeft64(v3, 16)
	v3 ^= v2
	v0 += v3
	v3 = bits.RotateLeft64(v3, 21)
	v3 ^= v0
	v2 += v1
	v1 = bits.RotateLeft64(v1, 17)
	v1 ^= v2
	v2 = bits.RotateLeft64(v2, 32)
	return v0, v1, v2, v3
}

// schemeTag is the state-file tag for a ring's scheme: empty for the
// default MD5 so rings written by older builds keep parsing and rings using
// the default stay byte-identical to the historical file format.
func schemeTag(m MACScheme) string {
	if m == nil || m == MD5 {
		return ""
	}
	return m.Name()
}
