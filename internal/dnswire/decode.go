package dnswire

import (
	"errors"
	"net/netip"
	"strconv"
	"strings"

	"dnsguard/internal/errs"
)

// Decoding errors. All decode failures wrap ErrMalformed so hostile input can
// be classified with a single errors.Is check.
var (
	ErrMalformed      = errors.New("dnswire: malformed message")
	ErrPointerLoop    = errors.New("dnswire: compression pointer loop")
	ErrForwardPointer = errors.New("dnswire: forward compression pointer")
)

// malformed returns an ErrMalformed whose text ends in detail.
func malformed(detail string) error {
	return errs.Wrap(ErrMalformed.Error()+": "+detail, ErrMalformed)
}

type parser struct {
	buf []byte
	off int
}

func (p *parser) remaining() int { return len(p.buf) - p.off }

func (p *parser) u8() (uint8, error) {
	if p.remaining() < 1 {
		return 0, malformed("truncated u8")
	}
	v := p.buf[p.off]
	p.off++
	return v, nil
}

func (p *parser) u16() (uint16, error) {
	if p.remaining() < 2 {
		return 0, malformed("truncated u16")
	}
	v := uint16(p.buf[p.off])<<8 | uint16(p.buf[p.off+1])
	p.off += 2
	return v, nil
}

func (p *parser) u32() (uint32, error) {
	if p.remaining() < 4 {
		return 0, malformed("truncated u32")
	}
	v := uint32(p.buf[p.off])<<24 | uint32(p.buf[p.off+1])<<16 |
		uint32(p.buf[p.off+2])<<8 | uint32(p.buf[p.off+3])
	p.off += 4
	return v, nil
}

func (p *parser) take(n int) ([]byte, error) {
	if n < 0 || p.remaining() < n {
		return nil, malformed("truncated field (" + strconv.Itoa(n) + " bytes wanted)")
	}
	b := p.buf[p.off : p.off+n]
	p.off += n
	return b, nil
}

// name decodes a possibly-compressed domain name starting at p.off.
// Compression pointers must point strictly backward (as all real encoders
// emit) which also guarantees termination.
func (p *parser) name() (Name, error) {
	var labels []string
	total := 0
	off := p.off
	jumped := false
	minPtr := p.off // every pointer must go strictly before this
	for {
		if off >= len(p.buf) {
			return "", malformed("name runs past end")
		}
		c := int(p.buf[off])
		switch {
		case c == 0:
			if !jumped {
				p.off = off + 1
			}
			if len(labels) == 0 {
				return Root, nil
			}
			return canonicalName(labels)
		case c < 64: // ordinary label
			if off+1+c > len(p.buf) {
				return "", malformed("label runs past end")
			}
			total += c + 1
			if total+1 > MaxNameWireLen {
				return "", ErrNameTooLong
			}
			labels = append(labels, string(p.buf[off+1:off+1+c]))
			off += 1 + c
		case c >= 0xC0: // compression pointer
			if off+1 >= len(p.buf) {
				return "", malformed("truncated pointer")
			}
			ptr := (c&0x3F)<<8 | int(p.buf[off+1])
			if !jumped {
				p.off = off + 2
				jumped = true
			}
			if ptr >= minPtr {
				if ptr >= off {
					return "", ErrForwardPointer
				}
				return "", ErrPointerLoop
			}
			minPtr = ptr
			off = ptr
		default: // 0x40–0xbf, always two hex digits
			return "", malformed("reserved label type 0x" + strconv.FormatUint(uint64(c), 16))
		}
	}
}

// canonicalName converts decoded wire labels into a canonical Name. Name's
// invariant is a dotted string, so a wire label containing a '.' byte has no
// faithful representation — re-encoding it would split at the dot and change
// the name. Such labels (legal in raw DNS, never emitted for hostnames) are
// rejected as malformed. Folding ASCII case octet for octet keeps the lengths
// the decoder has checked, so every Name it hands out survives a Pack/Unpack
// round trip unchanged.
func canonicalName(labels []string) (Name, error) {
	for _, l := range labels {
		if strings.Contains(l, ".") {
			return "", malformed("label contains '.'")
		}
	}
	return Name(lowerASCII(strings.Join(labels, "."))), nil
}

func (p *parser) question() (Question, error) {
	n, err := p.name()
	if err != nil {
		return Question{}, err
	}
	t, err := p.u16()
	if err != nil {
		return Question{}, err
	}
	c, err := p.u16()
	if err != nil {
		return Question{}, err
	}
	return Question{Name: n, Type: Type(t), Class: Class(c)}, nil
}

func (p *parser) rr() (RR, error) {
	n, err := p.name()
	if err != nil {
		return RR{}, err
	}
	t, err := p.u16()
	if err != nil {
		return RR{}, err
	}
	class, err := p.u16()
	if err != nil {
		return RR{}, err
	}
	ttl, err := p.u32()
	if err != nil {
		return RR{}, err
	}
	rdlen, err := p.u16()
	if err != nil {
		return RR{}, err
	}
	if p.remaining() < int(rdlen) {
		return RR{}, malformed("rdata runs past end")
	}
	end := p.off + int(rdlen)
	data, err := p.rdata(Type(t), int(rdlen))
	if err != nil {
		return RR{}, err
	}
	if p.off != end {
		return RR{}, malformed("rdata length mismatch for " + Type(t).String())
	}
	return RR{Name: n, Type: Type(t), Class: Class(class), TTL: ttl, Data: data}, nil
}

func (p *parser) rdata(t Type, rdlen int) (RData, error) {
	switch t {
	case TypeA:
		b, err := p.take(4)
		if err != nil {
			return nil, err
		}
		return &AData{Addr: netip.AddrFrom4([4]byte(b))}, nil
	case TypeAAAA:
		b, err := p.take(16)
		if err != nil {
			return nil, err
		}
		return &AAAAData{Addr: netip.AddrFrom16([16]byte(b))}, nil
	case TypeNS:
		n, err := p.name()
		if err != nil {
			return nil, err
		}
		return &NSData{Host: n}, nil
	case TypeCNAME:
		n, err := p.name()
		if err != nil {
			return nil, err
		}
		return &CNAMEData{Target: n}, nil
	case TypePTR:
		n, err := p.name()
		if err != nil {
			return nil, err
		}
		return &PTRData{Target: n}, nil
	case TypeMX:
		pref, err := p.u16()
		if err != nil {
			return nil, err
		}
		n, err := p.name()
		if err != nil {
			return nil, err
		}
		return &MXData{Pref: pref, Host: n}, nil
	case TypeSOA:
		var d SOAData
		var err error
		if d.MName, err = p.name(); err != nil {
			return nil, err
		}
		if d.RName, err = p.name(); err != nil {
			return nil, err
		}
		if d.Serial, err = p.u32(); err != nil {
			return nil, err
		}
		if d.Refresh, err = p.u32(); err != nil {
			return nil, err
		}
		if d.Retry, err = p.u32(); err != nil {
			return nil, err
		}
		if d.Expire, err = p.u32(); err != nil {
			return nil, err
		}
		if d.Minimum, err = p.u32(); err != nil {
			return nil, err
		}
		return &d, nil
	case TypeTXT:
		end := p.off + rdlen
		var d TXTData
		for p.off < end {
			l, err := p.u8()
			if err != nil {
				return nil, err
			}
			if p.off+int(l) > end {
				return nil, malformed("TXT string runs past rdata")
			}
			s, err := p.take(int(l))
			if err != nil {
				return nil, err
			}
			cp := make([]byte, len(s))
			copy(cp, s)
			d.Strings = append(d.Strings, cp)
		}
		return &d, nil
	default:
		b, err := p.take(rdlen)
		if err != nil {
			return nil, err
		}
		return &Raw{Data: append([]byte(nil), b...)}, nil
	}
}

// Unpack decodes a full DNS message. It is safe on hostile input: all errors
// wrap ErrMalformed (or the specific pointer errors) and no input can cause
// unbounded work.
func Unpack(b []byte) (*Message, error) {
	if len(b) > MaxMessageSize {
		return nil, ErrMessageTooLarge
	}
	p := &parser{buf: b}
	m := &Message{}
	var err error
	if m.ID, err = p.u16(); err != nil {
		return nil, err
	}
	fl, err := p.u16()
	if err != nil {
		return nil, err
	}
	m.Flags = unpackFlags(fl)
	counts := make([]uint16, 4)
	for i := range counts {
		if counts[i], err = p.u16(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < int(counts[0]); i++ {
		q, err := p.question()
		if err != nil {
			return nil, err
		}
		m.Questions = append(m.Questions, q)
	}
	sections := []*[]RR{&m.Answers, &m.Authority, &m.Additional}
	for si, sec := range sections {
		for i := 0; i < int(counts[si+1]); i++ {
			r, err := p.rr()
			if err != nil {
				return nil, err
			}
			*sec = append(*sec, r)
		}
	}
	if p.remaining() != 0 {
		return nil, malformed(strconv.Itoa(p.remaining()) + " trailing bytes")
	}
	return m, nil
}
