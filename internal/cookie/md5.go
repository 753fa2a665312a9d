package cookie

// The paper's cookie MAC, MD5(key76 ‖ src_ip), computed in-tree. The input
// is 80 bytes for an IPv4 source and 92 for IPv6, so with MD5's padding it
// is always two 64-byte blocks, and the first block is key76[0:64] — the
// same for every source under one key. A ring absorbs that block once per
// key (md5Mid) and keeps the state; each cookie is then one compression
// (md5Finish), the paper's one-block cost per verification.
//
// crypto/md5 is not used: on go1.24 it imports the FIPS 140-3 module, whose
// self-test registrations keep SHA-2, SHA-3, HMAC, AES-GCM and a DRBG linked
// into every daemon — resident code for one 16-byte MAC (DESIGN.md §17).
// Tests check every cookie against crypto/md5.

import (
	"encoding/binary"
	"math/bits"
	"net/netip"
)

// md5Init is MD5's initial state (RFC 1321 §3.3).
var md5Init = [4]uint32{0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476}

// md5Mid returns the MD5 state after key's first 64 bytes, the block every
// cookie under key starts with.
func md5Mid(key *[KeySize]byte) [4]uint32 {
	s := md5Init
	md5Block(&s, (*[64]byte)(key[:64]))
	return s
}

// md5Finish completes MD5(key ‖ src) from mid = md5Mid(key) with one
// compression: key's last 12 bytes, src's 4 or 16, the 0x80 pad byte and
// the message length in bits fit one block.
func md5Finish(mid [4]uint32, key *[KeySize]byte, src netip.Addr, c *Cookie) {
	var blk [64]byte
	copy(blk[:], key[64:])
	var sb [16]byte
	n := srcBytes(src, &sb)
	copy(blk[KeySize-64:], sb[:n])
	blk[KeySize-64+n] = 0x80
	binary.LittleEndian.PutUint64(blk[56:], uint64(KeySize+n)*8)
	s := mid
	md5Block(&s, &blk)
	for i, v := range s {
		binary.LittleEndian.PutUint32(c[4*i:], v)
	}
}

// md5Block is MD5's compression function (RFC 1321 §3.4) over one block,
// its 64 steps written out: each adds a round function of three state words,
// a message word and the step's constant to the fourth, rotates, and adds
// the next word.
func md5Block(s *[4]uint32, p *[64]byte) {
	x0 := binary.LittleEndian.Uint32(p[0:])
	x1 := binary.LittleEndian.Uint32(p[4:])
	x2 := binary.LittleEndian.Uint32(p[8:])
	x3 := binary.LittleEndian.Uint32(p[12:])
	x4 := binary.LittleEndian.Uint32(p[16:])
	x5 := binary.LittleEndian.Uint32(p[20:])
	x6 := binary.LittleEndian.Uint32(p[24:])
	x7 := binary.LittleEndian.Uint32(p[28:])
	x8 := binary.LittleEndian.Uint32(p[32:])
	x9 := binary.LittleEndian.Uint32(p[36:])
	x10 := binary.LittleEndian.Uint32(p[40:])
	x11 := binary.LittleEndian.Uint32(p[44:])
	x12 := binary.LittleEndian.Uint32(p[48:])
	x13 := binary.LittleEndian.Uint32(p[52:])
	x14 := binary.LittleEndian.Uint32(p[56:])
	x15 := binary.LittleEndian.Uint32(p[60:])
	a, b, c, d := s[0], s[1], s[2], s[3]

	// Round 1: F(b, c, d) = d ^ (b & (c ^ d)), the bitwise select (b & c) | (^b & d).
	a = b + bits.RotateLeft32(d^(b&(c^d))+a+x0+0xd76aa478, 7)
	d = a + bits.RotateLeft32(c^(a&(b^c))+d+x1+0xe8c7b756, 12)
	c = d + bits.RotateLeft32(b^(d&(a^b))+c+x2+0x242070db, 17)
	b = c + bits.RotateLeft32(a^(c&(d^a))+b+x3+0xc1bdceee, 22)
	a = b + bits.RotateLeft32(d^(b&(c^d))+a+x4+0xf57c0faf, 7)
	d = a + bits.RotateLeft32(c^(a&(b^c))+d+x5+0x4787c62a, 12)
	c = d + bits.RotateLeft32(b^(d&(a^b))+c+x6+0xa8304613, 17)
	b = c + bits.RotateLeft32(a^(c&(d^a))+b+x7+0xfd469501, 22)
	a = b + bits.RotateLeft32(d^(b&(c^d))+a+x8+0x698098d8, 7)
	d = a + bits.RotateLeft32(c^(a&(b^c))+d+x9+0x8b44f7af, 12)
	c = d + bits.RotateLeft32(b^(d&(a^b))+c+x10+0xffff5bb1, 17)
	b = c + bits.RotateLeft32(a^(c&(d^a))+b+x11+0x895cd7be, 22)
	a = b + bits.RotateLeft32(d^(b&(c^d))+a+x12+0x6b901122, 7)
	d = a + bits.RotateLeft32(c^(a&(b^c))+d+x13+0xfd987193, 12)
	c = d + bits.RotateLeft32(b^(d&(a^b))+c+x14+0xa679438e, 17)
	b = c + bits.RotateLeft32(a^(c&(d^a))+b+x15+0x49b40821, 22)

	// Round 2: G(b, c, d) = c ^ (d & (b ^ c)), the bitwise select (b & d) | (c & ^d).
	a = b + bits.RotateLeft32(c^(d&(b^c))+a+x1+0xf61e2562, 5)
	d = a + bits.RotateLeft32(b^(c&(a^b))+d+x6+0xc040b340, 9)
	c = d + bits.RotateLeft32(a^(b&(d^a))+c+x11+0x265e5a51, 14)
	b = c + bits.RotateLeft32(d^(a&(c^d))+b+x0+0xe9b6c7aa, 20)
	a = b + bits.RotateLeft32(c^(d&(b^c))+a+x5+0xd62f105d, 5)
	d = a + bits.RotateLeft32(b^(c&(a^b))+d+x10+0x02441453, 9)
	c = d + bits.RotateLeft32(a^(b&(d^a))+c+x15+0xd8a1e681, 14)
	b = c + bits.RotateLeft32(d^(a&(c^d))+b+x4+0xe7d3fbc8, 20)
	a = b + bits.RotateLeft32(c^(d&(b^c))+a+x9+0x21e1cde6, 5)
	d = a + bits.RotateLeft32(b^(c&(a^b))+d+x14+0xc33707d6, 9)
	c = d + bits.RotateLeft32(a^(b&(d^a))+c+x3+0xf4d50d87, 14)
	b = c + bits.RotateLeft32(d^(a&(c^d))+b+x8+0x455a14ed, 20)
	a = b + bits.RotateLeft32(c^(d&(b^c))+a+x13+0xa9e3e905, 5)
	d = a + bits.RotateLeft32(b^(c&(a^b))+d+x2+0xfcefa3f8, 9)
	c = d + bits.RotateLeft32(a^(b&(d^a))+c+x7+0x676f02d9, 14)
	b = c + bits.RotateLeft32(d^(a&(c^d))+b+x12+0x8d2a4c8a, 20)

	// Round 3: H(b, c, d) = b ^ c ^ d.
	a = b + bits.RotateLeft32((b^c^d)+a+x5+0xfffa3942, 4)
	d = a + bits.RotateLeft32((a^b^c)+d+x8+0x8771f681, 11)
	c = d + bits.RotateLeft32((d^a^b)+c+x11+0x6d9d6122, 16)
	b = c + bits.RotateLeft32((c^d^a)+b+x14+0xfde5380c, 23)
	a = b + bits.RotateLeft32((b^c^d)+a+x1+0xa4beea44, 4)
	d = a + bits.RotateLeft32((a^b^c)+d+x4+0x4bdecfa9, 11)
	c = d + bits.RotateLeft32((d^a^b)+c+x7+0xf6bb4b60, 16)
	b = c + bits.RotateLeft32((c^d^a)+b+x10+0xbebfbc70, 23)
	a = b + bits.RotateLeft32((b^c^d)+a+x13+0x289b7ec6, 4)
	d = a + bits.RotateLeft32((a^b^c)+d+x0+0xeaa127fa, 11)
	c = d + bits.RotateLeft32((d^a^b)+c+x3+0xd4ef3085, 16)
	b = c + bits.RotateLeft32((c^d^a)+b+x6+0x04881d05, 23)
	a = b + bits.RotateLeft32((b^c^d)+a+x9+0xd9d4d039, 4)
	d = a + bits.RotateLeft32((a^b^c)+d+x12+0xe6db99e5, 11)
	c = d + bits.RotateLeft32((d^a^b)+c+x15+0x1fa27cf8, 16)
	b = c + bits.RotateLeft32((c^d^a)+b+x2+0xc4ac5665, 23)

	// Round 4: I(b, c, d) = c ^ (b | ^d).
	a = b + bits.RotateLeft32(c^(b|^d)+a+x0+0xf4292244, 6)
	d = a + bits.RotateLeft32(b^(a|^c)+d+x7+0x432aff97, 10)
	c = d + bits.RotateLeft32(a^(d|^b)+c+x14+0xab9423a7, 15)
	b = c + bits.RotateLeft32(d^(c|^a)+b+x5+0xfc93a039, 21)
	a = b + bits.RotateLeft32(c^(b|^d)+a+x12+0x655b59c3, 6)
	d = a + bits.RotateLeft32(b^(a|^c)+d+x3+0x8f0ccc92, 10)
	c = d + bits.RotateLeft32(a^(d|^b)+c+x10+0xffeff47d, 15)
	b = c + bits.RotateLeft32(d^(c|^a)+b+x1+0x85845dd1, 21)
	a = b + bits.RotateLeft32(c^(b|^d)+a+x8+0x6fa87e4f, 6)
	d = a + bits.RotateLeft32(b^(a|^c)+d+x15+0xfe2ce6e0, 10)
	c = d + bits.RotateLeft32(a^(d|^b)+c+x6+0xa3014314, 15)
	b = c + bits.RotateLeft32(d^(c|^a)+b+x13+0x4e0811a1, 21)
	a = b + bits.RotateLeft32(c^(b|^d)+a+x4+0xf7537e82, 6)
	d = a + bits.RotateLeft32(b^(a|^c)+d+x11+0xbd3af235, 10)
	c = d + bits.RotateLeft32(a^(d|^b)+c+x2+0x2ad7d2bb, 15)
	b = c + bits.RotateLeft32(d^(c|^a)+b+x9+0xeb86d391, 21)

	s[0] += a
	s[1] += b
	s[2] += c
	s[3] += d
}
