package dnswire

// Zero-copy message views. Unpack materializes a Message — name strings,
// question and RR slices — which is per-packet garbage the guard can do
// without for a packet that is one question and no records. A View parses
// the header and first question of a datagram in place over borrowed bytes:
// no copy, no allocation, no escape.
//
// View invariants (the no-escape rule):
//
//   - A View borrows its buffer — typically a netapi batch-slab slot that
//     the I/O loop overwrites on the next read. Neither the View nor any
//     slice it returns may be retained past the packet's handling; anything
//     that must outlive the packet is copied into caller-owned storage.
//   - ParseView accepts a strict subset of what Unpack accepts: an
//     uncompressed question name whose labels are plain ASCII with no '.'
//     bytes. On any accepted input, ID/flags/counts/question agree with
//     Unpack's (a View's raw label bytes may differ from the canonical
//     Name only by ASCII case, which byte-wise lowercasing folds — the
//     ASCII restriction is what makes that equal to Unpack's Unicode
//     lowercasing). Everything else — compression, exotic label bytes,
//     truncation — reports ok=false and the caller falls back to Unpack,
//     which either materializes the message or classifies it malformed.
//   - A View covers the header and first question only. End reports the
//     offset past the question; callers that need "nothing but a question"
//     (the guard's pass-through shape check) compare End to the datagram
//     length and the three RR counts to zero rather than trusting the View
//     to have seen the whole message.

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
// or non-ASCII or dotted-label question name, or a name past the length
// limits. ok=false says nothing about validity: the caller decides between
// Unpack and a malformed verdict.
func ParseView(b []byte) (View, bool) {
	if len(b) < headerLen || len(b) > MaxMessageSize {
		return View{}, false
	}
	if int(b[4])<<8|int(b[5]) == 0 { // QDCOUNT
		return View{}, false
	}
	off := headerLen
	total := 0
	for {
		if off >= len(b) {
			return View{}, false
		}
		c := int(b[off])
		if c == 0 {
			off++
			break
		}
		if c >= 64 {
			// Compression pointer or reserved label type: not viewable.
			return View{}, false
		}
		if off+1+c > len(b) {
			return View{}, false
		}
		total += c + 1
		if total+1 > MaxNameWireLen {
			return View{}, false
		}
		for _, x := range b[off+1 : off+1+c] {
			if x >= 0x80 || x == '.' {
				return View{}, false
			}
		}
		off += 1 + c
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

// Flags decodes the flags word.
func (v View) Flags() Flags { return unpackFlags(v.RawFlags()) }

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

// QNameWire returns the first question's name as raw wire bytes (labels
// plus terminator), borrowed from the underlying buffer.
func (v View) QNameWire() []byte { return v.buf[headerLen : headerLen+v.nameLen] }

// FirstLabel returns the first label's bytes (no length octet), borrowed.
// Empty for the root name.
func (v View) FirstLabel() []byte {
	c := int(v.buf[headerLen])
	return v.buf[headerLen+1 : headerLen+1+c]
}

// QType returns the first question's type.
func (v View) QType() Type {
	o := headerLen + v.nameLen
	return Type(uint16(v.buf[o])<<8 | uint16(v.buf[o+1]))
}

// QClass returns the first question's class.
func (v View) QClass() Class {
	o := headerLen + v.nameLen + 2
	return Class(uint16(v.buf[o])<<8 | uint16(v.buf[o+1]))
}

// QuestionWire returns the first question's full span (name, type, class)
// as wire bytes, borrowed from the underlying buffer.
func (v View) QuestionWire() []byte { return v.buf[headerLen:v.end] }

// End returns the offset just past the first question. A query that is
// exactly one question — the shape the guard handles without a Message — has
// End equal to the datagram length and zero ANCount/NSCount/ARCount.
func (v View) End() int { return v.end }

// Question materializes the first question as Unpack would decode it —
// canonical lowercase Name. It allocates.
func (v View) Question() (Question, error) {
	q, _, err := UnpackQuestion(v.QuestionWire())
	return q, err
}

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
