package dnswire

import (
	"errors"
	"net/netip"
	"strconv"

	"dnsguard/internal/errs"
)

// Encoding errors.
var (
	ErrMessageTooLarge = errors.New("dnswire: message exceeds 64 KiB")
	ErrBadAddress      = errors.New("dnswire: address family does not match record type")
)

type builder struct {
	buf  []byte
	ptrs map[Name]int
	err  error
}

func (b *builder) u8(v uint8)   { b.buf = append(b.buf, v) }
func (b *builder) u16(v uint16) { b.buf = append(b.buf, byte(v>>8), byte(v)) }
func (b *builder) u32(v uint32) {
	b.buf = append(b.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func (b *builder) bytes(p []byte) { b.buf = append(b.buf, p...) }

func (b *builder) addr4(a netip.Addr) {
	if !a.Is4() && !a.Is4In6() {
		b.fail(errs.Wrap(ErrBadAddress.Error()+": "+a.String()+" is not IPv4", ErrBadAddress))
		return
	}
	v4 := a.As4()
	b.bytes(v4[:])
}

// addr16 writes any address of 16 octets, an IPv4-mapped one
// (::ffff:a.b.c.d) included: Unpack reads those from an AAAA, and what it
// reads must pack.
func (b *builder) addr16(a netip.Addr) {
	if !a.Is6() {
		b.fail(errs.Wrap(ErrBadAddress.Error()+": "+a.String()+" is not IPv6", ErrBadAddress))
		return
	}
	v6 := a.As16()
	b.bytes(v6[:])
}

func (b *builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// name appends n in wire format, using compression pointers to earlier
// occurrences when compress is true.
func (b *builder) name(n Name, compress bool) {
	for !n.IsRoot() {
		if compress {
			if off, ok := b.ptrs[n]; ok && off <= 0x3FFF {
				b.u16(uint16(off) | 0xC000)
				return
			}
		}
		if len(b.buf) <= 0x3FFF {
			b.ptrs[n] = len(b.buf)
		}
		label := n.FirstLabel()
		b.u8(uint8(len(label)))
		b.bytes([]byte(label))
		n = n.Parent()
	}
	b.u8(0)
}

func (b *builder) rr(r RR) {
	b.name(r.Name, true)
	b.u16(uint16(r.Type))
	b.u16(uint16(r.Class))
	b.u32(r.TTL)
	lenAt := len(b.buf)
	b.u16(0) // placeholder
	r.Data.encode(b)
	rdlen := len(b.buf) - lenAt - 2
	b.buf[lenAt] = byte(rdlen >> 8)
	b.buf[lenAt+1] = byte(rdlen)
}

// Pack encodes m with no size restriction beyond the 64 KiB protocol cap;
// use it for TCP transport and internal processing.
func (m *Message) Pack() ([]byte, error) {
	b := &builder{buf: make([]byte, 0, 256), ptrs: make(map[Name]int)}
	b.u16(m.ID)
	b.u16(m.Flags.pack())
	b.u16(uint16(len(m.Questions)))
	b.u16(uint16(len(m.Answers)))
	b.u16(uint16(len(m.Authority)))
	b.u16(uint16(len(m.Additional)))
	for _, q := range m.Questions {
		b.name(q.Name, true)
		b.u16(uint16(q.Type))
		b.u16(uint16(q.Class))
	}
	for _, r := range m.Answers {
		b.rr(r)
	}
	for _, r := range m.Authority {
		b.rr(r)
	}
	for _, r := range m.Additional {
		b.rr(r)
	}
	if b.err != nil {
		return nil, b.err
	}
	if len(b.buf) > MaxMessageSize {
		return nil, ErrMessageTooLarge
	}
	return b.buf, nil
}

// PackUDP encodes m for UDP transport with the given size limit (use
// MaxUDPSize for classic DNS). If the message does not fit, records are
// dropped section by section from the back and the TC flag is set, matching
// server truncation behaviour.
func (m *Message) PackUDP(limit int) ([]byte, error) {
	if limit <= 0 || limit > MaxMessageSize {
		limit = MaxUDPSize
	}
	b, err := m.Pack()
	if err != nil {
		return nil, err
	}
	if len(b) <= limit {
		return b, nil
	}
	trunc := *m
	trunc.Answers = append([]RR(nil), m.Answers...)
	trunc.Authority = append([]RR(nil), m.Authority...)
	trunc.Additional = append([]RR(nil), m.Additional...)
	trunc.Flags.TC = true
	for len(b) > limit {
		switch {
		case len(trunc.Additional) > 0:
			trunc.Additional = trunc.Additional[:len(trunc.Additional)-1]
		case len(trunc.Authority) > 0:
			trunc.Authority = trunc.Authority[:len(trunc.Authority)-1]
		case len(trunc.Answers) > 0:
			trunc.Answers = trunc.Answers[:len(trunc.Answers)-1]
		default:
			return nil, errs.Wrap("dnswire: question alone exceeds "+strconv.Itoa(limit)+" bytes: "+ErrMessageTooLarge.Error(), ErrMessageTooLarge)
		}
		if b, err = trunc.Pack(); err != nil {
			return nil, err
		}
	}
	return b, nil
}
