//go:build ignore

// gen.go regenerates the wire-capture seed corpus for the dnswire fuzz
// targets. Run from the module root:
//
//	go run internal/dnswire/testdata/gen.go
//
// Each .bin file is the exact wire encoding of one representative message
// shape the system exchanges: plain queries, answers with CNAME chains,
// referrals with glue, TXT cookie payloads, and negative responses. The fuzz
// harness loads every *.bin here as a seed so mutation starts from realistic
// captures rather than random bytes.
package main

import (
	"fmt"
	"net/netip"
	"os"
	"path/filepath"

	"dnsguard/internal/dnswire"
)

func main() {
	dir := filepath.Join("internal", "dnswire", "testdata")
	seeds := map[string]*dnswire.Message{
		"query_a.bin": dnswire.NewQuery(0x1234, dnswire.MustName("www.foo.com"), dnswire.TypeA),
		"query_aaaa.bin": dnswire.NewQuery(0x00ff, dnswire.MustName("deep.sub.domain.example.org"),
			dnswire.TypeAAAA),
		"answer_a.bin": {
			ID:        0x1234,
			Flags:     dnswire.Flags{QR: true, RD: true, RA: true},
			Questions: []dnswire.Question{{Name: "www.foo.com", Type: dnswire.TypeA, Class: dnswire.ClassINET}},
			Answers: []dnswire.RR{
				{Name: "www.foo.com", Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300,
					Data: &dnswire.AData{Addr: netip.MustParseAddr("198.51.100.10")}},
			},
		},
		"cname_chain.bin": {
			ID:        0x4242,
			Flags:     dnswire.Flags{QR: true, RA: true},
			Questions: []dnswire.Question{{Name: "alias.foo.com", Type: dnswire.TypeA, Class: dnswire.ClassINET}},
			Answers: []dnswire.RR{
				{Name: "alias.foo.com", Type: dnswire.TypeCNAME, Class: dnswire.ClassINET, TTL: 300,
					Data: &dnswire.CNAMEData{Target: "web.foo.com"}},
				{Name: "web.foo.com", Type: dnswire.TypeCNAME, Class: dnswire.ClassINET, TTL: 300,
					Data: &dnswire.CNAMEData{Target: "www.foo.com"}},
				{Name: "www.foo.com", Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300,
					Data: &dnswire.AData{Addr: netip.MustParseAddr("198.51.100.10")}},
			},
		},
		// Referral with glue: heavy name compression across sections.
		"referral_glue.bin": {
			ID:        0x0007,
			Flags:     dnswire.Flags{QR: true},
			Questions: []dnswire.Question{{Name: "www.foo.com", Type: dnswire.TypeA, Class: dnswire.ClassINET}},
			Authority: []dnswire.RR{
				{Name: "foo.com", Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 3600,
					Data: &dnswire.NSData{Host: "ns1.foo.com"}},
				{Name: "foo.com", Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 3600,
					Data: &dnswire.NSData{Host: "ns2.foo.com"}},
			},
			Additional: []dnswire.RR{
				{Name: "ns1.foo.com", Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 3600,
					Data: &dnswire.AData{Addr: netip.MustParseAddr("192.0.2.1")}},
				{Name: "ns2.foo.com", Type: dnswire.TypeAAAA, Class: dnswire.ClassINET, TTL: 3600,
					Data: &dnswire.AAAAData{Addr: netip.MustParseAddr("2001:db8::53")}},
			},
		},
		// TXT carrying an opaque cookie blob, as the modified-DNS scheme does.
		"txt_cookie.bin": {
			ID:        0xbeef,
			Flags:     dnswire.Flags{QR: true},
			Questions: []dnswire.Question{{Name: "_cookie.foo.com", Type: dnswire.TypeTXT, Class: dnswire.ClassINET}},
			Answers: []dnswire.RR{
				{Name: "_cookie.foo.com", Type: dnswire.TypeTXT, Class: dnswire.ClassINET, TTL: 0,
					Data: &dnswire.TXTData{Strings: [][]byte{
						{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02, 0x03},
						[]byte("gen=1"),
					}}},
			},
		},
		"negative_soa.bin": {
			ID:        0x5151,
			Flags:     dnswire.Flags{QR: true, AA: true, RCode: dnswire.RCodeNXDomain},
			Questions: []dnswire.Question{{Name: "nope.foo.com", Type: dnswire.TypeA, Class: dnswire.ClassINET}},
			Authority: []dnswire.RR{
				{Name: "foo.com", Type: dnswire.TypeSOA, Class: dnswire.ClassINET, TTL: 60,
					Data: &dnswire.SOAData{MName: "ns1.foo.com", RName: "admin.foo.com",
						Serial: 1, Refresh: 7200, Retry: 600, Expire: 360000, Minimum: 60}},
			},
		},
		"mx_ptr.bin": {
			ID:        0x0a0a,
			Flags:     dnswire.Flags{QR: true},
			Questions: []dnswire.Question{{Name: "foo.com", Type: dnswire.TypeMX, Class: dnswire.ClassINET}},
			Answers: []dnswire.RR{
				{Name: "foo.com", Type: dnswire.TypeMX, Class: dnswire.ClassINET, TTL: 3600,
					Data: &dnswire.MXData{Pref: 10, Host: "mail.foo.com"}},
				{Name: "10.100.51.198.in-addr.arpa", Type: dnswire.TypePTR, Class: dnswire.ClassINET, TTL: 3600,
					Data: &dnswire.PTRData{Target: "www.foo.com"}},
			},
		},
		// Water-torture flood query: the pseudorandom-subdomain shape
		// AttackRandomSub emits (internal/workload), so mutation starts
		// from a realistic random-QNAME capture.
		"watertorture_qname.bin": dnswire.NewQuery(0x7041, dnswire.MustName("a9f3c2d41b7e.foo.com"),
			dnswire.TypeA),
		// Kaminsky ID-sweep forgery: the exact response AttackKaminsky
		// sweeps at the guard's upstream socket — authoritative answer
		// planting the attacker's address for a name of their choosing.
		"idsweep_response.bin": {
			ID:        0x01ff,
			Flags:     dnswire.Flags{QR: true, AA: true},
			Questions: []dnswire.Question{{Name: "evil.example", Type: dnswire.TypeA, Class: dnswire.ClassINET}},
			Answers: []dnswire.RR{
				{Name: "evil.example", Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 300,
					Data: &dnswire.AData{Addr: netip.MustParseAddr("203.0.113.1")}},
			},
		},
		// Unknown RR type round-trips as raw rdata.
		"unknown_type.bin": {
			ID:        0x0101,
			Flags:     dnswire.Flags{QR: true},
			Questions: []dnswire.Question{{Name: "foo.com", Type: dnswire.Type(99), Class: dnswire.ClassINET}},
			Answers: []dnswire.RR{
				{Name: "foo.com", Type: dnswire.Type(99), Class: dnswire.ClassINET, TTL: 30,
					Data: &dnswire.Raw{Data: []byte{1, 2, 3, 4, 5}}},
			},
		},
	}
	// The referral bench/testdata/bench.zone gives for c5.foo.com — the
	// response the record walk exists for — and the same with an OPT.
	ns := dnswire.RR{Name: "c5.foo.com", Type: dnswire.TypeNS, Class: dnswire.ClassINET, TTL: 3600,
		Data: &dnswire.NSData{Host: "ns.c5.foo.com"}}
	glue := dnswire.RR{Name: "ns.c5.foo.com", Type: dnswire.TypeA, Class: dnswire.ClassINET, TTL: 3600,
		Data: &dnswire.AData{Addr: netip.MustParseAddr("198.51.100.6")}}
	question := []dnswire.Question{{Name: "c5.foo.com", Type: dnswire.TypeA, Class: dnswire.ClassINET}}
	seeds["referral_bench_zone.bin"] = &dnswire.Message{ID: 0x0c05, Flags: dnswire.Flags{QR: true},
		Questions: question, Authority: []dnswire.RR{ns}, Additional: []dnswire.RR{glue}}
	seeds["referral_opt.bin"] = &dnswire.Message{ID: 0x0c06, Flags: dnswire.Flags{QR: true},
		Questions: question, Authority: []dnswire.RR{ns},
		Additional: []dnswire.RR{glue, {Name: dnswire.Root, Type: dnswire.TypeOPT, Class: 4096, Data: &dnswire.Raw{}}}}
	// Shapes Pack does not emit, record bytes by hand after the packed
	// question (c5.foo.com at 12, foo.com at 15): names in upper case and
	// written out, an owner that points into another record's rdata, an NS
	// rdlength one short of its name.
	head, err := (&dnswire.Message{ID: 0x0c07, Flags: dnswire.Flags{QR: true}, Questions: question}).Pack()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pack question: %v\n", err)
		os.Exit(1)
	}
	raw := map[string]string{
		"referral_raw_upper.bin": "\x02C5\x03FOO\x03COM\x00\x00\x02\x00\x01\x00\x00\x0e\x10\x00\x08\x02NS\x02C5\xc0\x0f" +
			"\x02Ns\x02c5\x03Foo\x03cOM\x00\x00\x01\x00\x03\x00\x00\x0e\x10\x00\x04\xc6\x33\x64\x06",
		"referral_raw_owner_in_rdata.bin": "\xc0\x0c\x00\x02\x00\x01\x00\x00\x0e\x10\x00\x05\x02ns\xc0\x0c" +
			"\xc0\x28\x00\x01\x00\x01\x00\x00\x0e\x10\x00\x04\xc6\x33\x64\x06",
		"referral_raw_rdlength_short.bin": "\xc0\x0c\x00\x02\x00\x01\x00\x00\x0e\x10\x00\x04\x02ns\xc0\x0c" +
			"\xc0\x28\x00\x01\x00\x01\x00\x00\x0e\x10\x00\x04\xc6\x33\x64\x06",
	}
	for name, records := range raw {
		b := append(append([]byte(nil), head...), records...)
		b[9], b[11] = 1, 1 // NSCOUNT, ARCOUNT
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d bytes)\n", name, len(b))
	}
	// Queries with records after the question (c5.foo.com ends at 23, where
	// c017 points: the root), as clients write them: the TXT-cookie query of
	// bench/gen.AppendTXTQuery, the same between two OPTs, and one whose
	// cookie record's owner is a pointer to that 00 octet.
	qhead, err := (&dnswire.Message{ID: 0x0c08, Questions: question}).Pack()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pack question: %v\n", err)
		os.Exit(1)
	}
	const txt = "\x00\x10\x00\x01\x00\x00\x00\x00\x00\x11\x10@ABCDEFGHIJKLMNO"
	for name, records := range map[string][]string{
		"query_txt_cookie_bench.bin": {"\x00" + txt},
		"query_opt_txt_opt.bin": {"\x00\x00\x29\x10\x00\x00\x00\x00\x00\x00\x00", "\x00" + txt,
			"\x00\x00\x29\x04\xd0\x00\x00\x80\x00\x00\x0c\x00\x0a\x00\x08\x01\x02\x03\x04\x05\x06\x07\x08"},
		"query_txt_pointer_owner.bin": {"\xc0\x17" + txt},
	} {
		b := append([]byte(nil), qhead...)
		for _, r := range records {
			b = append(b, r...)
		}
		b[11] = byte(len(records)) // ARCOUNT
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d bytes)\n", name, len(b))
	}
	for name, m := range seeds {
		b, err := m.Pack()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pack %s: %v\n", name, err)
			os.Exit(1)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d bytes)\n", name, len(b))
	}
}
