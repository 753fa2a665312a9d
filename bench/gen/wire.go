package gen

import "bytes"

// Children is the number of delegated child zones in testdata/bench.zone.
const Children = 64

// LabelLen is the length of a cookie label: the guard's "pr" prefix plus
// eight hex digits (the first 32 bits of the source's cookie).
const LabelLen = 10

// zoneWire is "foo.com." on the wire, the suffix of every benchmark name.
var zoneWire = []byte{3, 'f', 'o', 'o', 3, 'c', 'o', 'm', 0}

// Glue is the address of child k's name server in the benchmark zone — the
// address a correct answer for any name under c<k>.foo.com must carry.
func Glue(k int) [4]byte { return [4]byte{198, 51, 100, byte(k + 1)} }

func appendHeader(dst []byte, id uint16, arcount byte) []byte {
	return append(dst, byte(id>>8), byte(id), 0, 0, 0, 1, 0, 0, 0, 0, 0, arcount)
}

func appendChildLabel(dst []byte, prefix []byte, k int) []byte {
	digits := 1
	if k >= 10 {
		digits = 2
	}
	dst = append(dst, byte(len(prefix)+1+digits))
	dst = append(dst, prefix...)
	dst = append(dst, 'c')
	if k >= 10 {
		dst = append(dst, byte('0'+k/10))
	}
	return append(dst, byte('0'+k%10))
}

// AppendQuery appends an A query for [label]c<k>.foo.com with RD clear, as a
// recursive server asks an authoritative one. A nil label gives the plain
// child name (a newcomer, or passthrough traffic); a cookie label gives the
// name the guard's fabricated NS record told the requester to ask for.
func AppendQuery(dst []byte, id uint16, label []byte, k int) []byte {
	dst = appendHeader(dst, id, 0)
	dst = appendChildLabel(dst, label, k)
	dst = append(dst, zoneWire...)
	return append(dst, 0, 1, 0, 1) // A, IN
}

// AppendTXTQuery appends a plain child query carrying the modified-DNS
// cookie extension: one root-owner TXT record in the additional section
// whose single string is the 16-byte cookie.
func AppendTXTQuery(dst []byte, id uint16, k int, cookie *[16]byte) []byte {
	dst = appendHeader(dst, id, 1)
	dst = appendChildLabel(dst, nil, k)
	dst = append(dst, zoneWire...)
	dst = append(dst, 0, 1, 0, 1)
	dst = append(dst, 0, 0, 16, 0, 1, 0, 0, 0, 0, 0, 17, 16) // ".", TXT, IN, TTL 0, RDLENGTH 17, string length 16
	return append(dst, cookie[:]...)
}

// Question returns the question section of a wire built by AppendQuery or
// AppendTXTQuery: everything after the header up to and including QCLASS.
func Question(query []byte) []byte {
	end := skipName(query, 12)
	if end < 0 || end+4 > len(query) {
		return nil
	}
	return query[12 : end+4]
}

// skipName returns the offset just past the name at off (a label sequence
// ending in the root label or in a compression pointer), or -1.
func skipName(msg []byte, off int) int {
	for off < len(msg) {
		c := int(msg[off])
		switch {
		case c == 0:
			return off + 1
		case c&0xC0 == 0xC0:
			if off+2 > len(msg) {
				return -1
			}
			return off + 2
		case c&0xC0 != 0:
			return -1
		}
		off += 1 + c
	}
	return -1
}

// rr is one resource record's fixed part and the span of its RDATA.
type rr struct {
	typ, class uint16
	rdata      []byte
	next       int
}

func readRR(msg []byte, off int) (rr, bool) {
	off = skipName(msg, off)
	if off < 0 || off+10 > len(msg) {
		return rr{}, false
	}
	r := rr{
		typ:   uint16(msg[off])<<8 | uint16(msg[off+1]),
		class: uint16(msg[off+2])<<8 | uint16(msg[off+3]),
	}
	rdlen := int(msg[off+8])<<8 | int(msg[off+9])
	off += 10
	if off+rdlen > len(msg) {
		return rr{}, false
	}
	r.rdata = msg[off : off+rdlen]
	r.next = off + rdlen
	return r, true
}

// reply is a response's header fields and the offset of its first record.
type reply struct {
	an, ns, ar int
	body       int
}

// parseReply checks everything every counted reply must have — the expected
// ID, QR set, TC clear, RCODE 0, exactly one question echoing the one sent —
// and returns the section counts.
func parseReply(msg []byte, id uint16, question []byte) (reply, bool) {
	if len(msg) < 12+len(question) || len(question) == 0 {
		return reply{}, false
	}
	if uint16(msg[0])<<8|uint16(msg[1]) != id {
		return reply{}, false
	}
	if msg[2]&0x80 == 0 || msg[2]&0x02 != 0 || msg[3]&0x0F != 0 {
		return reply{}, false
	}
	if msg[4] != 0 || msg[5] != 1 || !bytes.Equal(msg[12:12+len(question)], question) {
		return reply{}, false
	}
	return reply{
		an:   int(msg[6])<<8 | int(msg[7]),
		ns:   int(msg[8])<<8 | int(msg[9]),
		ar:   int(msg[10])<<8 | int(msg[11]),
		body: 12 + len(question),
	}, true
}

func isA(r rr, want [4]byte) bool {
	return r.typ == 1 && r.class == 1 && bytes.Equal(r.rdata, want[:])
}

// CheckAnswer validates the guard's fabricated answer to a cookie query:
// a well-formed reply whose answer section holds the child's glue address.
func CheckAnswer(msg []byte, id uint16, question []byte, want [4]byte) bool {
	rep, ok := parseReply(msg, id, question)
	if !ok || rep.an < 1 {
		return false
	}
	r, ok := readRR(msg, rep.body)
	return ok && isA(r, want)
}

// CheckReferral validates a relayed referral (the passthrough workload): no
// answers, an NS record in authority, and the child's glue in additional.
func CheckReferral(msg []byte, id uint16, question []byte, want [4]byte) bool {
	rep, ok := parseReply(msg, id, question)
	if !ok || rep.an != 0 || rep.ns < 1 || rep.ar < 1 {
		return false
	}
	off := rep.body
	sawNS := false
	for i := 0; i < rep.ns; i++ {
		r, ok := readRR(msg, off)
		if !ok {
			return false
		}
		sawNS = sawNS || (r.typ == 2 && r.class == 1)
		off = r.next
	}
	if !sawNS {
		return false
	}
	for i := 0; i < rep.ar; i++ {
		r, ok := readRR(msg, off)
		if !ok {
			return false
		}
		if isA(r, want) {
			return true
		}
		off = r.next
	}
	return false
}

// ParseGrant validates the guard's reply to a cookie-less newcomer — one
// fabricated NS record whose host's first label is a cookie label followed
// by the child label — and extracts the cookie label.
func ParseGrant(msg []byte, id uint16, question []byte, k int) (label [LabelLen]byte, ok bool) {
	rep, ok := parseReply(msg, id, question)
	if !ok || rep.an != 0 || rep.ns != 1 {
		return label, false
	}
	r, ok := readRR(msg, rep.body)
	if !ok || r.typ != 2 || r.class != 1 || len(r.rdata) < 1 {
		return label, false
	}
	var child [4]byte
	want := appendChildLabel(child[:0], nil, k)[1:] // "c<k>" without its length octet
	n := int(r.rdata[0])
	if n != LabelLen+len(want) || len(r.rdata) < 1+n {
		return label, false
	}
	first := r.rdata[1 : 1+n]
	if first[0] != 'p' || first[1] != 'r' || !bytes.Equal(first[LabelLen:], want) {
		return label, false
	}
	for _, c := range first[2:LabelLen] {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return label, false
		}
	}
	copy(label[:], first)
	return label, true
}
