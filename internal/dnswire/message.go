package dnswire

import (
	"encoding/hex"
	"net/netip"
	"strconv"
	"strings"
)

// Flags is the decoded second word of the DNS header.
type Flags struct {
	QR     bool // response
	Opcode Opcode
	AA     bool // authoritative answer
	TC     bool // truncated
	RD     bool // recursion desired
	RA     bool // recursion available
	RCode  RCode
}

func (f Flags) pack() uint16 {
	var w uint16
	if f.QR {
		w |= 1 << 15
	}
	w |= uint16(f.Opcode&0xF) << 11
	if f.AA {
		w |= 1 << 10
	}
	if f.TC {
		w |= 1 << 9
	}
	if f.RD {
		w |= 1 << 8
	}
	if f.RA {
		w |= 1 << 7
	}
	w |= uint16(f.RCode & 0xF)
	return w
}

func unpackFlags(w uint16) Flags {
	return Flags{
		QR:     w&(1<<15) != 0,
		Opcode: Opcode(w >> 11 & 0xF),
		AA:     w&(1<<10) != 0,
		TC:     w&(1<<9) != 0,
		RD:     w&(1<<8) != 0,
		RA:     w&(1<<7) != 0,
		RCode:  RCode(w & 0xF),
	}
}

// Question is one entry of the question section.
type Question struct {
	Name  Name
	Type  Type
	Class Class
}

func (q Question) String() string {
	return string(q.Name) + " " + q.Class.String() + " " + q.Type.String()
}

// RR is a resource record. Data's concrete type corresponds to Type; records
// decoded with an unknown type carry *Raw data.
type RR struct {
	Name  Name
	Type  Type
	Class Class
	TTL   uint32
	Data  RData
}

func (r RR) String() string {
	data := "%!s(<nil>)" // what fmt's %s printed for a record without data
	if r.Data != nil {
		data = r.Data.String()
	}
	return string(r.Name) + " " + strconv.FormatUint(uint64(r.TTL), 10) + " " + r.Class.String() + " " +
		r.Type.String() + " " + data
}

// RData is the typed payload of a resource record.
type RData interface {
	// encode appends the RDATA (without the length prefix) to b.
	encode(b *builder)
	String() string
}

// AData is an IPv4 address record payload.
type AData struct{ Addr netip.Addr }

func (d *AData) encode(b *builder) { b.addr4(d.Addr) }
func (d *AData) String() string    { return d.Addr.String() }

// AAAAData is an IPv6 address record payload.
type AAAAData struct{ Addr netip.Addr }

func (d *AAAAData) encode(b *builder) { b.addr16(d.Addr) }
func (d *AAAAData) String() string    { return d.Addr.String() }

// NSData names an authoritative server for the owner domain.
type NSData struct{ Host Name }

func (d *NSData) encode(b *builder) { b.name(d.Host, true) }
func (d *NSData) String() string    { return d.Host.String() }

// CNAMEData is an alias record payload.
type CNAMEData struct{ Target Name }

func (d *CNAMEData) encode(b *builder) { b.name(d.Target, true) }
func (d *CNAMEData) String() string    { return d.Target.String() }

// PTRData is a pointer record payload.
type PTRData struct{ Target Name }

func (d *PTRData) encode(b *builder) { b.name(d.Target, true) }
func (d *PTRData) String() string    { return d.Target.String() }

// MXData is a mail-exchange record payload.
type MXData struct {
	Pref uint16
	Host Name
}

func (d *MXData) encode(b *builder) { b.u16(d.Pref); b.name(d.Host, true) }
func (d *MXData) String() string    { return strconv.Itoa(int(d.Pref)) + " " + string(d.Host) }

// SOAData is a start-of-authority record payload.
type SOAData struct {
	MName   Name
	RName   Name
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

func (d *SOAData) encode(b *builder) {
	b.name(d.MName, true)
	b.name(d.RName, true)
	b.u32(d.Serial)
	b.u32(d.Refresh)
	b.u32(d.Retry)
	b.u32(d.Expire)
	b.u32(d.Minimum)
}

func (d *SOAData) String() string {
	n := func(v uint32) string { return " " + strconv.FormatUint(uint64(v), 10) }
	return string(d.MName) + " " + string(d.RName) + n(d.Serial) + n(d.Refresh) + n(d.Retry) + n(d.Expire) + n(d.Minimum)
}

// TXTData is a text record payload: one or more character strings of up to
// 255 octets each. The modified-DNS cookie extension carries its cookie in a
// TXT record's first string.
type TXTData struct{ Strings [][]byte }

func (d *TXTData) encode(b *builder) {
	for _, s := range d.Strings {
		b.u8(uint8(len(s)))
		b.bytes(s)
	}
}

func (d *TXTData) String() string {
	parts := make([]string, len(d.Strings))
	for i, s := range d.Strings {
		parts[i] = strconv.Quote(string(s))
	}
	return strings.Join(parts, " ")
}

// Raw is the payload of a record whose type this codec does not interpret.
type Raw struct{ Data []byte }

func (d *Raw) encode(b *builder) { b.bytes(d.Data) }
func (d *Raw) String() string {
	return `\# ` + strconv.Itoa(len(d.Data)) + " " + hex.EncodeToString(d.Data)
}

// Message is a full DNS message.
type Message struct {
	ID         uint16
	Flags      Flags
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR
}

// Question returns the first question, or a zero Question if none.
func (m *Message) Question() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// Response constructs a reply skeleton for m: same ID and question, QR set,
// RD echoed.
func (m *Message) Response() *Message {
	return &Message{
		ID:        m.ID,
		Flags:     Flags{QR: true, RD: m.Flags.RD},
		Questions: append([]Question(nil), m.Questions...),
	}
}

func (m *Message) String() string {
	var sb strings.Builder
	sb.WriteString("id=" + strconv.Itoa(int(m.ID)) + " qr=" + strconv.FormatBool(m.Flags.QR) +
		" aa=" + strconv.FormatBool(m.Flags.AA) + " tc=" + strconv.FormatBool(m.Flags.TC) +
		" rcode=" + m.Flags.RCode.String())
	for _, q := range m.Questions {
		sb.WriteString("\n;; Q: " + q.String())
	}
	for _, r := range m.Answers {
		sb.WriteString("\n;; AN: " + r.String())
	}
	for _, r := range m.Authority {
		sb.WriteString("\n;; AU: " + r.String())
	}
	for _, r := range m.Additional {
		sb.WriteString("\n;; AD: " + r.String())
	}
	return sb.String()
}

// NewQuery builds a standard recursive-desired query for name/type.
func NewQuery(id uint16, name Name, qtype Type) *Message {
	return &Message{
		ID:        id,
		Flags:     Flags{RD: true},
		Questions: []Question{{Name: name, Type: qtype, Class: ClassINET}},
	}
}

// NewRR is a convenience constructor that derives the Type field from the
// concrete RData.
func NewRR(name Name, ttl uint32, data RData) RR {
	return RR{Name: name, Type: typeOf(data), Class: ClassINET, TTL: ttl, Data: data}
}

func typeOf(d RData) Type {
	switch d.(type) {
	case *AData:
		return TypeA
	case *AAAAData:
		return TypeAAAA
	case *NSData:
		return TypeNS
	case *CNAMEData:
		return TypeCNAME
	case *PTRData:
		return TypePTR
	case *MXData:
		return TypeMX
	case *SOAData:
		return TypeSOA
	case *TXTData:
		return TypeTXT
	default:
		return TypeANY
	}
}
