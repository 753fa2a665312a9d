// Package dnswire implements the DNS wire format per RFC 1035: message
// encoding and decoding with name compression, the resource-record types the
// DNS Guard system needs (A, NS, CNAME, SOA, PTR, MX, TXT, AAAA), UDP size
// limits with truncation, and the two-byte length framing used by DNS over
// TCP.
//
// The codec is strict on decode (rejects malformed names, forward compression
// pointers, and out-of-bounds lengths) because the guard parses packets from
// hostile sources.
package dnswire

import "strconv"

// Type is a DNS resource-record type code.
type Type uint16

// Resource-record types used in this system.
const (
	TypeA     Type = 1
	TypeNS    Type = 2
	TypeCNAME Type = 5
	TypeSOA   Type = 6
	TypePTR   Type = 12
	TypeMX    Type = 15
	TypeTXT   Type = 16
	TypeAAAA  Type = 28
	TypeOPT   Type = 41
	TypeANY   Type = 255
)

func (t Type) String() string {
	switch t {
	case TypeA:
		return "A"
	case TypeNS:
		return "NS"
	case TypeCNAME:
		return "CNAME"
	case TypeSOA:
		return "SOA"
	case TypePTR:
		return "PTR"
	case TypeMX:
		return "MX"
	case TypeTXT:
		return "TXT"
	case TypeAAAA:
		return "AAAA"
	case TypeOPT:
		return "OPT"
	case TypeANY:
		return "ANY"
	default:
		return "TYPE" + strconv.Itoa(int(t))
	}
}

// Class is a DNS class code.
type Class uint16

// ClassINET is the Internet class; the only class this system uses.
const ClassINET Class = 1

func (c Class) String() string {
	if c == ClassINET {
		return "IN"
	}
	return "CLASS" + strconv.Itoa(int(c))
}

// Opcode is the DNS operation code.
type Opcode uint8

// OpcodeQuery is a standard query; the only opcode this system uses.
const OpcodeQuery Opcode = 0

// RCode is the DNS response code.
type RCode uint8

// Response codes.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

func (r RCode) String() string {
	switch r {
	case RCodeNoError:
		return "NOERROR"
	case RCodeFormErr:
		return "FORMERR"
	case RCodeServFail:
		return "SERVFAIL"
	case RCodeNXDomain:
		return "NXDOMAIN"
	case RCodeNotImp:
		return "NOTIMP"
	case RCodeRefused:
		return "REFUSED"
	default:
		return "RCODE" + strconv.Itoa(int(r))
	}
}

// Wire-format size limits.
const (
	// MaxUDPSize is the classic RFC 1035 UDP payload limit; larger
	// responses must be truncated with the TC flag set.
	MaxUDPSize = 512
	// MaxDatagram is the largest UDP datagram any component accepts (the
	// common EDNS0 ceiling). Receive slots are sized MaxDatagram+1, so a
	// datagram that fills its slot is known to be over the limit without
	// the socket layer having to report truncation.
	MaxDatagram = 4096
	// MaxMessageSize bounds any DNS message (the TCP length prefix is 16
	// bits).
	MaxMessageSize = 65535
	// MaxNameWireLen bounds an encoded domain name.
	MaxNameWireLen = 255
	// MaxLabelLen bounds a single label.
	MaxLabelLen = 63
)
