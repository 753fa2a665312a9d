package dnswire

// Zero-copy message views. Unpack materializes a Message — name strings,
// question and RR slices — which is per-packet garbage the guard can do
// without for any packet it judges or answers from the bytes as they lie. A
// View parses the header and first question of a datagram in place over
// borrowed bytes, and walks the records after it the same way: no copy, no
// allocation, no escape.
//
// View invariants (the no-escape rule):
//
//   - A View borrows its buffer — typically a netapi batch-slab slot that
//     the I/O loop overwrites on the next read. Neither the View nor any
//     slice it returns may be retained past the packet's handling; anything
//     that must outlive the packet is copied into caller-owned storage.
//   - ParseView accepts a strict subset of what Unpack accepts: an
//     uncompressed question name with no '.' byte in a label. On any
//     accepted input, ID/flags/counts/question agree with Unpack's (a View's
//     raw label bytes may differ from the canonical Name only by ASCII case,
//     which byte-wise lowercasing folds exactly as Unpack does, RFC 4343 §3;
//     an octet ≥ 0x80 is the same on both sides). Everything else —
//     no question, a compressed or dotted question name, truncation —
//     reports ok=false, and a reader of the wire treats it as malformed.
//   - ParseView covers the header and first question only. End reports the
//     offset past the question; callers that need "nothing but a question"
//     compare End to the datagram length and the three RR counts to zero
//     rather than trusting the View to have seen the whole message.
//   - Records walks the rest under the same contract, both ways: what it
//     vouches for Unpack accepts, with the same records, and a message of one
//     question that Unpack accepts it vouches for. A refusal is malformed.

// headerLen is the fixed DNS message header size.
const headerLen = 12

// View is a zero-copy read of a DNS message's header and first question
// over a borrowed buffer. Obtain with ParseView; the zero View is invalid.
type View struct {
	buf     []byte
	nameLen int // first question's name length on the wire, terminator included
	end     int // offset just past the first question
}

// ParseView parses the header and first question of b in place. ok is false
// when b cannot be viewed zero-copy — too short, QDCOUNT zero, a compressed
// or dotted-label question name, or a name past the length limits.
func ParseView(b []byte) (View, bool) {
	if len(b) < headerLen || len(b) > MaxMessageSize {
		return View{}, false
	}
	if int(b[4])<<8|int(b[5]) == 0 { // QDCOUNT
		return View{}, false
	}
	off, _, ok := skipName(b, headerLen, false)
	if !ok {
		return View{}, false
	}
	if off+4 > len(b) {
		return View{}, false
	}
	return View{buf: b, nameLen: off - headerLen, end: off + 4}, true
}

// ID returns the message ID.
func (v View) ID() uint16 { return uint16(v.buf[0])<<8 | uint16(v.buf[1]) }

// RawFlags returns the flags word exactly as it appears on the wire.
func (v View) RawFlags() uint16 { return uint16(v.buf[2])<<8 | uint16(v.buf[3]) }

// QR reports the response bit.
func (v View) QR() bool { return v.buf[2]&0x80 != 0 }

// QDCount returns the question count.
func (v View) QDCount() uint16 { return uint16(v.buf[4])<<8 | uint16(v.buf[5]) }

// ANCount returns the answer count.
func (v View) ANCount() uint16 { return uint16(v.buf[6])<<8 | uint16(v.buf[7]) }

// NSCount returns the authority count.
func (v View) NSCount() uint16 { return uint16(v.buf[8])<<8 | uint16(v.buf[9]) }

// ARCount returns the additional count.
func (v View) ARCount() uint16 { return uint16(v.buf[10])<<8 | uint16(v.buf[11]) }

// FirstLabel returns the first label's bytes (no length octet), borrowed.
// Empty for the root name.
func (v View) FirstLabel() []byte {
	c := int(v.buf[headerLen])
	return v.buf[headerLen+1 : headerLen+1+c]
}

// QuestionWire returns the first question's full span (name, type, class)
// as wire bytes, borrowed from the underlying buffer.
func (v View) QuestionWire() []byte { return v.buf[headerLen:v.end] }

// SameQuestion reports whether a and b, two spans QuestionWire returned, are
// one question: the names equal but for ASCII case, as Unpack folds them (RFC
// 4343 §3), type and class equal. A length octet or one ≥ 0x80 is no letter.
func SameQuestion(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i, c := range a {
		if c != b[i] && (i >= len(a)-4 || c|0x20 != b[i]|0x20 || c|0x20 < 'a' || c|0x20 > 'z') {
			return false
		}
	}
	return true
}

// End returns the offset just past the first question. A query that is
// exactly one question has End equal to the datagram length and zero
// ANCount/NSCount/ARCount.
func (v View) End() int { return v.end }

// UnpackQuestion decodes one question record from the start of b — the flat
// span QuestionWire returns, or one a caller copied out of a View — and
// reports how many bytes of b it consumed.
func UnpackQuestion(b []byte) (Question, int, error) {
	p := &parser{buf: b}
	q, err := p.question()
	if err != nil {
		return Question{}, 0, err
	}
	return q, p.off, nil
}

// skipName checks the name at off by the decoder's rules — labels in bounds,
// the 255-octet limit, with compressed set pointers that go strictly backward
// — and the View's: no label holds a '.' byte. It returns
// the offset past the name where it lies (past its first pointer, if any) and
// the name's length on the wire written out in full, terminator included.
func skipName(b []byte, off int, compressed bool) (next, wire int, ok bool) {
	next, wire, minPtr := -1, 1, off
	for {
		if off >= len(b) {
			return 0, 0, false
		}
		c := int(b[off])
		switch {
		case c == 0:
			if next < 0 {
				next = off + 1
			}
			return next, wire, true
		case c < 64:
			if wire += c + 1; off+1+c > len(b) || wire > MaxNameWireLen {
				return 0, 0, false
			}
			for _, x := range b[off+1 : off+1+c] {
				if x == '.' {
					return 0, 0, false
				}
			}
			off += 1 + c
		case c >= 0xC0 && compressed && off+1 < len(b):
			ptr := (c&0x3F)<<8 | int(b[off+1])
			if next < 0 {
				next = off + 2
			}
			if ptr >= minPtr {
				return 0, 0, false // forward, or a loop
			}
			minPtr, off = ptr, ptr
		default:
			return 0, 0, false // reserved label type, or a pointer where none may be
		}
	}
}

// The sections a Record can sit in.
const (
	SectionAnswer = iota
	SectionAuthority
	SectionAdditional
)

// Record is one resource record as Records found it, Off to End of the
// message. Owner is the owner name as it lies, through its terminator or its
// first compression pointer; OwnerLen is its length written out in full,
// terminator included, so 1 for the root however the name is written. Owner
// and RData are borrowed from the View's buffer, under its no-escape rule.
type Record struct {
	Section  int
	Type     Type
	TTL      uint32
	Owner    []byte
	OwnerLen int
	RData    []byte
	Off, End int
}

// Records walks everything after the first question in place, showing visit
// each record in turn, and reports whether it vouches for the whole message:
// one question; every record's name within the View's rules, its header and
// rdata in bounds, its rdata of the shape Unpack demands of its type (see
// rdataShaped); the section counts honoured and no byte left over. On false,
// what visit saw is void.
func (v View) Records(visit func(Record)) bool {
	b, off := v.buf, v.end
	if v.QDCount() != 1 {
		return false
	}
	for sec, n := range [...]uint16{v.ANCount(), v.NSCount(), v.ARCount()} {
		for ; n > 0; n-- {
			hdr, owner, ok := skipName(b, off, true)
			if !ok || hdr+10 > len(b) {
				return false
			}
			r := Record{
				Section:  sec,
				Type:     Type(uint16(b[hdr])<<8 | uint16(b[hdr+1])),
				TTL:      uint32(b[hdr+4])<<24 | uint32(b[hdr+5])<<16 | uint32(b[hdr+6])<<8 | uint32(b[hdr+7]),
				Owner:    b[off:hdr],
				OwnerLen: owner,
				Off:      off,
			}
			data := hdr + 10
			if off = data + int(b[hdr+8])<<8 + int(b[hdr+9]); off > len(b) || !rdataShaped(b, r.Type, data, off) {
				return false
			}
			r.RData, r.End = b[data:off], off
			visit(r)
		}
	}
	return off == len(b)
}

// rdataNames is where the codec reads names in rdata of type t: after lead
// octets, names of them, and fixed octets behind. No names: none anywhere.
func rdataNames(t Type) (lead, names, fixed int) {
	switch t {
	case TypeNS, TypeCNAME, TypePTR:
		return 0, 1, 0
	case TypeMX:
		return 2, 1, 0
	case TypeSOA:
		return 0, 2, 20
	}
	return 0, 0, 0
}

// rdataShaped reports whether b[data:end] is rdata of the shape the decoder
// demands of type t: A 4 octets, AAAA 16, the names and fields of NS, CNAME,
// PTR, MX and SOA ending exactly at end, TXT strings tiling it, others opaque.
func rdataShaped(b []byte, t Type, data, end int) bool {
	switch t {
	case TypeA:
		return end-data == 4
	case TypeAAAA:
		return end-data == 16
	case TypeTXT:
		for data < end {
			data += 1 + int(b[data])
		}
		return data == end
	}
	lead, names, fixed := rdataNames(t)
	if names == 0 {
		return true
	}
	for data += lead; names > 0; names-- {
		var ok bool
		if data, _, ok = skipName(b, data, true); !ok {
			return false
		}
	}
	return data+fixed == end
}

// repackNames is how many label starts one encoding remembers: more than 512
// octets of output can hold, whose 500 after the header start 250 labels at
// most, so at that limit the table never fills.
const repackNames = 256

// repacker is RepackAs's encoder. For builder's map of names to offsets it lists
// the label starts it wrote: where, and the name's length in full from there on,
// which keeps a lookup off the name being written, one without an end yet.
// Comparing only against entries written before the name would do that too,
// and drop the lengths; on a referral of three names the two are not told
// apart (guard.passthrough_cycle_ns, five alternating traced pairs: 1135–2085
// with, 1085–1745 without), but on names made to collide the lengths are a
// quarter of the work (TestRepackWorstCase: 13 816 against 62 623), and the
// work is what a peer chooses. They stay.
type repacker struct {
	src, dst  []byte
	base, max int // the message's first octet in dst, and where it must end by
	n         int
	at        [repackNames]uint16
	wire      [repackNames]uint8
	ok        bool
	over      bool // ok went false for want of room: what follows the last whole record is cut
	work      int  // table entries looked at and octets compared: what TestRepackWorstCase bounds
}

// Repack is RepackAs for the message under v as it is: its ID, its flags with
// the Z bits clear, its question and every record.
func (v View) Repack(dst []byte, limit int) ([]byte, bool) {
	return v.RepackAs(dst, v.ID(), v.RawFlags()&^0x70, v.QuestionWire(), nil, limit)
}

// RepackAs appends to dst what PackUDP(limit) writes for a message of the
// given ID and flags word, the question q — an uncompressed name, its type and
// class — and the records of v that keep selects, every one if keep is nil:
// every name — the question's, a record's owner, those in NS, CNAME, PTR, MX
// and SOA rdata — in lower case and compressed by builder.name's rule; other
// rdata as it lies; RDLENGTH and the counts to match. Over limit octets it
// keeps the longest run of those records that fits, counts only them and sets
// TC, as PackUDP does: compression points only backward, so records cut from
// the end change none before them. It builds no Message and, given room for
// limit octets in dst, allocates nothing. It reports false, dst void, when the
// walk refuses v, when the question alone is over the limit, or when over
// repackNames labels are written out, which within 512 octets none can be: at
// that limit, what the walk vouches for it writes. It writes no octet past the
// limit, which bounds its work on hostile input: a name costs two octets of
// output or more, two walks of its 255 at most, and per label a scan of the
// table's lengths and a compare with the entries of its own, names that fit
// in the output together: under 96 steps per octet of limit, counted in work
// (TestRepackWorstCase).
func (v View) RepackAs(dst []byte, id, flags uint16, q []byte, keep func(Record) bool, limit int) ([]byte, bool) {
	p := v.repack(dst, id, flags, q, keep, limit)
	return p.dst, p.ok
}

func (v View) repack(dst []byte, id, flags uint16, q []byte, keep func(Record) bool, limit int) repacker {
	p := repacker{src: q, dst: dst, base: len(dst), max: len(dst) + limit, ok: true}
	p.put([]byte{byte(id >> 8), byte(id), byte(flags >> 8), byte(flags), 0, 1, 0, 0, 0, 0, 0, 0})
	end := p.name(0)
	if p.put(q[end : end+4]); !p.ok {
		return p
	}
	b, fit, counts := v.buf, len(p.dst), [3]int{}
	p.src = b
	walked := v.Records(func(r Record) {
		if !p.ok || keep != nil && !keep(r) {
			return
		}
		data := r.End - len(r.RData)
		p.name(r.Off)
		p.put(b[data-10 : data])
		rdata := len(p.dst)
		lead, names, _ := rdataNames(r.Type)
		p.put(b[data : data+lead])
		for data += lead; names > 0; names-- {
			data = p.name(data)
		}
		p.put(b[data:r.End])
		if n := len(p.dst) - rdata; p.ok {
			p.dst[rdata-2], p.dst[rdata-1] = byte(n>>8), byte(n)
			fit, counts[r.Section] = len(p.dst), counts[r.Section]+1
		}
	})
	if p.ok = walked && (p.ok || p.over); !p.ok {
		return p
	}
	if p.over {
		p.dst = p.dst[:fit]
		p.dst[p.base+2] |= 0x02 // TC
	}
	for i, n := range counts {
		p.dst[p.base+6+2*i], p.dst[p.base+7+2*i] = byte(n>>8), byte(n)
	}
	return p
}

// put appends x, if the encoding is still good and x fits.
func (p *repacker) put(x []byte) {
	if !p.ok {
		return
	}
	if p.over = len(p.dst)+len(x) > p.max; p.over {
		p.ok = false
		return
	}
	p.dst = append(p.dst, x...)
}

// name appends the name at src[off:], one the walk vouched for, as builder.name
// does — label by label, each registered as it is written, until what is left
// is the root or a name written before, which a pointer stands for — and
// returns the offset past the name where it lies.
func (p *repacker) name(off int) (next int) {
	next, wire, _ := skipName(p.src, off, true)
	for p.ok {
		c := int(p.src[off])
		if c >= 0xC0 {
			off = (c&0x3F)<<8 | int(p.src[off+1])
			continue
		}
		for i := 0; i < p.n && c != 0; i++ {
			p.work++
			if int(p.wire[i]) == wire && p.same(off, p.base+int(p.at[i])) {
				p.put([]byte{0xC0 | byte(p.at[i]>>8), byte(p.at[i])})
				return next
			}
		}
		at := len(p.dst) - p.base // a label's needs room in the table, and a pointer's reach
		p.ok = c == 0 || p.n < repackNames && at <= 0x3FFF
		if p.put(p.src[off : off+1+c]); c == 0 || !p.ok {
			break
		}
		p.at[p.n], p.wire[p.n], p.n = uint16(at), uint8(wire), p.n+1
		for i := len(p.dst) - c; i < len(p.dst); i++ {
			if x := p.dst[i]; x >= 'A' && x <= 'Z' {
				p.dst[i] = x + ('a' - 'A')
			}
		}
		off, wire = off+1+c, wire-1-c
	}
	return next
}

// same reports whether the name at src[i:], in lower case, is the one written
// at dst[j:]. They are of one length on the wire.
func (p *repacker) same(i, j int) bool {
	for {
		a, b := int(p.src[i]), int(p.dst[j])
		switch {
		case a >= 0xC0:
			i = (a&0x3F)<<8 | int(p.src[i+1])
		case b >= 0xC0:
			j = p.base + ((b&0x3F)<<8 | int(p.dst[j+1]))
		case a != b:
			return false
		case a == 0:
			return true
		default:
			p.work += a
			for i, j, a = i+1, j+1, a-1; a >= 0; i, j, a = i+1, j+1, a-1 {
				if x := p.src[i]; x != p.dst[j] && (x < 'A' || x > 'Z' || x+('a'-'A') != p.dst[j]) {
					return false
				}
			}
		}
	}
}
