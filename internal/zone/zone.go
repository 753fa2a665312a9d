// Package zone holds authoritative DNS data: a parser for a practical subset
// of RFC 1035 master files ($ORIGIN, $TTL, @, relative names; A, AAAA, NS,
// CNAME, SOA, MX, TXT, PTR records) and the authoritative lookup algorithm —
// answers, delegations with glue, CNAME chasing, NXDOMAIN/NODATA with SOA —
// that the authoritative name server (internal/ans) serves from.
package zone

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"dnsguard/internal/dnswire"
)

// Errors reported by zone construction and parsing.
var (
	ErrNoSOA     = errors.New("zone: missing SOA record at apex")
	ErrOutOfZone = errors.New("zone: record out of zone")
	ErrParse     = errors.New("zone: parse error")
	ErrDupCNAME  = errors.New("zone: CNAME cannot coexist with other data")
)

type rrKey struct {
	name  dnswire.Name
	rtype dnswire.Type
}

// Zone is an authoritative zone: an apex name and its records.
type Zone struct {
	Origin dnswire.Name
	rrsets map[rrKey][]dnswire.RR
	names  map[dnswire.Name]bool // every owner name, for empty-nonterminal checks
	cuts   map[dnswire.Name]bool // delegation points (owner of NS below apex)
}

// New creates an empty zone rooted at origin.
func New(origin dnswire.Name) *Zone {
	return &Zone{
		Origin: origin,
		rrsets: make(map[rrKey][]dnswire.RR),
		names:  make(map[dnswire.Name]bool),
		cuts:   make(map[dnswire.Name]bool),
	}
}

// Add inserts one record. The owner must be at or below the apex.
func (z *Zone) Add(rr dnswire.RR) error {
	if !rr.Name.IsSubdomainOf(z.Origin) {
		return fmt.Errorf("%w: %s not under %s", ErrOutOfZone, rr.Name, z.Origin)
	}
	key := rrKey{rr.Name, rr.Type}
	if rr.Type == dnswire.TypeCNAME {
		for k := range z.rrsets {
			if k.name == rr.Name && k.rtype != dnswire.TypeCNAME {
				return fmt.Errorf("%w at %s", ErrDupCNAME, rr.Name)
			}
		}
	} else if len(z.rrsets[rrKey{rr.Name, dnswire.TypeCNAME}]) > 0 {
		return fmt.Errorf("%w at %s", ErrDupCNAME, rr.Name)
	}
	z.rrsets[key] = append(z.rrsets[key], rr)
	// Register the owner and all ancestors up to the apex so
	// empty non-terminals answer NODATA rather than NXDOMAIN.
	for n := rr.Name; ; n = n.Parent() {
		z.names[n] = true
		if n == z.Origin || n.IsRoot() {
			break
		}
	}
	if rr.Type == dnswire.TypeNS && rr.Name != z.Origin {
		z.cuts[rr.Name] = true
	}
	return nil
}

// SOA returns the apex SOA record.
func (z *Zone) SOA() (dnswire.RR, error) {
	rrs := z.rrsets[rrKey{z.Origin, dnswire.TypeSOA}]
	if len(rrs) == 0 {
		return dnswire.RR{}, ErrNoSOA
	}
	return rrs[0], nil
}

// Validate checks structural invariants: an SOA and NS set at the apex.
func (z *Zone) Validate() error {
	if _, err := z.SOA(); err != nil {
		return err
	}
	if len(z.rrsets[rrKey{z.Origin, dnswire.TypeNS}]) == 0 {
		return fmt.Errorf("zone %s: %w", z.Origin, errors.New("missing NS at apex"))
	}
	return nil
}

// AnswerKind classifies an authoritative lookup result.
type AnswerKind int

// Lookup result kinds.
const (
	// KindAnswer is an authoritative answer (possibly via CNAME chain).
	KindAnswer AnswerKind = iota + 1
	// KindReferral is a delegation to child-zone name servers.
	KindReferral
	// KindNXDomain means the name does not exist; Authority carries SOA.
	KindNXDomain
	// KindNoData means the name exists but has no rrset of the asked
	// type; Authority carries SOA.
	KindNoData
)

// Answer is the result of an authoritative lookup, ready to be copied into
// the corresponding DNS message sections.
type Answer struct {
	Kind       AnswerKind
	Answer     []dnswire.RR
	Authority  []dnswire.RR
	Additional []dnswire.RR
}

// Lookup performs authoritative resolution of (qname, qtype) within the
// zone, per RFC 1034 §4.3.2: find the closest delegation cut (referral with
// glue), else exact match (answer / CNAME chase), else NXDOMAIN or NODATA
// with the SOA in authority.
func (z *Zone) Lookup(qname dnswire.Name, qtype dnswire.Type) Answer {
	if !qname.IsSubdomainOf(z.Origin) {
		return z.negative(KindNXDomain)
	}
	// Delegation: walk from just below the apex toward qname; the first
	// cut wins. (A cut at qname itself also causes a referral unless the
	// query is for the NS set... authoritative behaviour: referral.)
	if cut, ok := z.closestCut(qname); ok {
		return z.referral(cut)
	}
	// Exact name present?
	if z.names[qname] {
		if rrs := z.rrsets[rrKey{qname, qtype}]; len(rrs) > 0 {
			return Answer{Kind: KindAnswer, Answer: append([]dnswire.RR(nil), rrs...)}
		}
		// CNAME chase within the zone.
		if cn := z.rrsets[rrKey{qname, dnswire.TypeCNAME}]; len(cn) > 0 && qtype != dnswire.TypeCNAME {
			ans := Answer{Kind: KindAnswer, Answer: append([]dnswire.RR(nil), cn...)}
			target := cn[0].Data.(*dnswire.CNAMEData).Target
			for depth := 0; depth < 8; depth++ {
				if !target.IsSubdomainOf(z.Origin) || !z.names[target] {
					break
				}
				if rrs := z.rrsets[rrKey{target, qtype}]; len(rrs) > 0 {
					ans.Answer = append(ans.Answer, rrs...)
					break
				}
				next := z.rrsets[rrKey{target, dnswire.TypeCNAME}]
				if len(next) == 0 {
					break
				}
				ans.Answer = append(ans.Answer, next...)
				target = next[0].Data.(*dnswire.CNAMEData).Target
			}
			return ans
		}
		return z.negative(KindNoData)
	}
	return z.negative(KindNXDomain)
}

// closestCut finds the highest delegation point strictly above or at qname
// (but below the apex).
func (z *Zone) closestCut(qname dnswire.Name) (dnswire.Name, bool) {
	// Walk down from the label just below the apex to qname.
	depth := qname.NumLabels() - z.Origin.NumLabels()
	for i := depth - 1; i >= 0; i-- {
		labels := qname.Labels()
		candidate := dnswire.Name(strings.Join(labels[i:], "."))
		if z.cuts[candidate] {
			return candidate, true
		}
	}
	return "", false
}

func (z *Zone) referral(cut dnswire.Name) Answer {
	ans := Answer{Kind: KindReferral}
	nsset := z.rrsets[rrKey{cut, dnswire.TypeNS}]
	ans.Authority = append(ans.Authority, nsset...)
	// Glue: addresses for in-zone (or below-cut) NS targets. Standard
	// delegation practice per the paper: every next-level domain provides
	// both name and address of its ANSs.
	for _, rr := range nsset {
		host := rr.Data.(*dnswire.NSData).Host
		for _, t := range []dnswire.Type{dnswire.TypeA, dnswire.TypeAAAA} {
			ans.Additional = append(ans.Additional, z.rrsets[rrKey{host, t}]...)
		}
	}
	return ans
}

func (z *Zone) negative(kind AnswerKind) Answer {
	ans := Answer{Kind: kind}
	if soa, err := z.SOA(); err == nil {
		ans.Authority = append(ans.Authority, soa)
	}
	return ans
}

// atoiTTL parses a TTL field.
func atoiTTL(s string) (uint32, error) {
	v, err := strconv.ParseUint(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("%w: bad TTL %q", ErrParse, s)
	}
	return uint32(v), nil
}
