// Package guard implements the paper's DNS Guard: a transparent firewall
// module that detects source-address-spoofed DNS requests with cookies.
//
// Remote is the guard deployed in front of an authoritative name server
// (ANS). It implements all three schemes of §III and the full Figure 4
// pipeline: the cookie checker, Rate-Limiter1 (cookie responses — reflector
// protection), Rate-Limiter2 (verified requests — non-spoofed DoS
// protection), the DNS-based scheme (fabricated NS names for referral
// answers, fabricated NS name + IP cookie for non-referral answers), the
// TCP redirect (truncation flag; the TCP proxy itself is
// internal/tcpproxy), and the modified-DNS explicit cookie extension.
//
// The modified scheme's other half, beside the local recursive server (LRS),
// is not a product here: AttachCookie and FindCookie are what a requester
// needs to run the cookie exchange and stamp its queries, and the simulated
// requester in internal/workload does so.
package guard

import (
	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/engine"
)

// Packet is a raw datagram as the guard sees it: a firewall knows both
// addresses. It is the engine's packet type; the guard rides the
// internal/engine dataplane.
type Packet = engine.Packet

// PacketIO is the guard's capture interface: read intercepted datagrams
// with ReadBatch (engine.BatchReader, which NewRemote demands of every one),
// write datagrams with arbitrary (owned) source addresses. A netsim tap is
// one as it is, a realnet socket through SocketIO.
type PacketIO = engine.PacketIO

// Modified-DNS cookie extension (Figure 3b): a TXT record at the root name
// in the additional section whose first character-string is the 16-byte
// cookie. Message 2/3 (cookie request/response) use the same shape, with an
// all-zero cookie meaning "please send mine".

// AttachCookie appends the cookie extension record to m.
func AttachCookie(m *dnswire.Message, c cookie.Cookie, ttl uint32) {
	m.Additional = append(m.Additional, dnswire.RR{
		Name:  dnswire.Root,
		Type:  dnswire.TypeTXT,
		Class: dnswire.ClassINET,
		TTL:   ttl,
		Data:  &dnswire.TXTData{Strings: [][]byte{c[:]}},
	})
}

// FindCookie locates the cookie extension in m, returning its additional-
// section index.
func FindCookie(m *dnswire.Message) (cookie.Cookie, uint32, int, bool) {
	for i, rr := range m.Additional {
		if rr.Name != dnswire.Root || rr.Type != dnswire.TypeTXT {
			continue
		}
		txt, ok := rr.Data.(*dnswire.TXTData)
		if !ok || len(txt.Strings) == 0 || len(txt.Strings[0]) != cookie.Size {
			continue
		}
		var c cookie.Cookie
		copy(c[:], txt.Strings[0])
		return c, rr.TTL, i, true
	}
	return cookie.Cookie{}, 0, -1, false
}

// txtCookie is the modified scheme's cookie as a query carries it (Figure 3b):
// the value, and where its record lies.
type txtCookie struct {
	c     cookie.Cookie
	found bool
	off   int // the record's offset in the datagram
}

// walk looks for v's cookie record by FindCookie's rule — the first
// additional-section TXT owned by the root, however the owner is written,
// whose first string is a cookie's length, class ignored — on the query's
// bytes as they lie, and reports whether the walk vouches for the message.
func (ck *txtCookie) walk(v dnswire.View) bool {
	return v.Records(func(r dnswire.Record) {
		if !ck.found && r.Section == dnswire.SectionAdditional && r.Type == dnswire.TypeTXT &&
			r.OwnerLen == 1 && len(r.RData) > 0 && int(r.RData[0]) == cookie.Size {
			ck.found, ck.off = true, r.Off
			copy(ck.c[:], r.RData[1:])
		}
	})
}

// FabricateNSName builds the cookie-bearing server name for a child zone:
// the child's first label is prefixed (within the same label) by the encoded
// cookie, so the name stays inside the zone the guard protects — the paper's
// "COOKIEcom" (§III-B). It fails only if the combined label would exceed 63
// octets.
func FabricateNSName(nc cookie.NSCodec, c cookie.Cookie, child dnswire.Name) (dnswire.Name, error) {
	label := nc.EncodeLabel(c) + child.FirstLabel()
	return child.Parent().PrependLabel(label)
}

// ParseFabricatedName reverses FabricateNSName: given a query name whose
// first label may carry a cookie, it extracts the embedded cookie label and
// the restored child name.
func ParseFabricatedName(nc cookie.NSCodec, qname dnswire.Name) (cookieLabel string, child dnswire.Name, ok bool) {
	first := qname.FirstLabel()
	prefixLen := len(nc.EncodeLabel(cookie.Cookie{}))
	if len(first) <= prefixLen {
		return "", "", false
	}
	cookiePart, origLabel := first[:prefixLen], first[prefixLen:]
	if !nc.IsCookieLabel(cookiePart) {
		return "", "", false
	}
	restored, err := qname.Parent().PrependLabel(origLabel)
	if err != nil {
		return "", "", false
	}
	return cookiePart, restored, true
}
