package zone

import (
	"errors"
	"net/netip"
	"testing"

	"dnsguard/internal/dnswire"
)

func n(s string) dnswire.Name { return dnswire.MustName(s) }

// mustAdd is Add for a fixture's records, which it takes.
func mustAdd(z *Zone, rr dnswire.RR) {
	if err := z.Add(rr); err != nil {
		panic(err)
	}
}

// comZone models the paper's "com" ANS: authoritative for com, delegating
// foo.com.
func comZone(t *testing.T) *Zone {
	t.Helper()
	z := New(n("com"))
	mustAdd(z, dnswire.NewRR(n("com"), 86400, &dnswire.SOAData{
		MName: n("a.gtld.example"), RName: n("hostmaster.com"),
		Serial: 1, Refresh: 7200, Retry: 600, Expire: 360000, Minimum: 60,
	}))
	mustAdd(z, dnswire.NewRR(n("com"), 86400, &dnswire.NSData{Host: n("a.gtld.example")}))
	mustAdd(z, dnswire.NewRR(n("foo.com"), 86400, &dnswire.NSData{Host: n("ns1.foo.com")}))
	mustAdd(z, dnswire.NewRR(n("foo.com"), 86400, &dnswire.NSData{Host: n("ns2.foo.com")}))
	mustAdd(z, dnswire.NewRR(n("ns1.foo.com"), 86400, &dnswire.AData{Addr: netip.MustParseAddr("192.0.2.1")}))
	mustAdd(z, dnswire.NewRR(n("ns2.foo.com"), 86400, &dnswire.AData{Addr: netip.MustParseAddr("192.0.2.2")}))
	return z
}

// fooZone models the paper's leaf ANS for foo.com.
func fooZone(t *testing.T) *Zone {
	t.Helper()
	z := New(n("foo.com"))
	mustAdd(z, dnswire.NewRR(n("foo.com"), 3600, &dnswire.SOAData{
		MName: n("ns1.foo.com"), RName: n("admin.foo.com"),
		Serial: 5, Refresh: 7200, Retry: 600, Expire: 360000, Minimum: 60,
	}))
	mustAdd(z, dnswire.NewRR(n("foo.com"), 3600, &dnswire.NSData{Host: n("ns1.foo.com")}))
	mustAdd(z, dnswire.NewRR(n("ns1.foo.com"), 3600, &dnswire.AData{Addr: netip.MustParseAddr("192.0.2.1")}))
	mustAdd(z, dnswire.NewRR(n("www.foo.com"), 300, &dnswire.AData{Addr: netip.MustParseAddr("198.51.100.10")}))
	mustAdd(z, dnswire.NewRR(n("alias.foo.com"), 300, &dnswire.CNAMEData{Target: n("www.foo.com")}))
	mustAdd(z, dnswire.NewRR(n("a.b.foo.com"), 300, &dnswire.AData{Addr: netip.MustParseAddr("198.51.100.20")}))
	return z
}

func TestLookupAuthoritativeAnswer(t *testing.T) {
	z := fooZone(t)
	ans := z.Lookup(n("www.foo.com"), dnswire.TypeA)
	if ans.Kind != KindAnswer {
		t.Fatalf("kind = %v, want answer", ans.Kind)
	}
	if len(ans.Answer) != 1 || ans.Answer[0].Data.(*dnswire.AData).Addr != netip.MustParseAddr("198.51.100.10") {
		t.Fatalf("answer = %v", ans.Answer)
	}
}

func TestLookupReferralWithGlue(t *testing.T) {
	z := comZone(t)
	ans := z.Lookup(n("www.foo.com"), dnswire.TypeA)
	if ans.Kind != KindReferral {
		t.Fatalf("kind = %v, want referral", ans.Kind)
	}
	if len(ans.Authority) != 2 {
		t.Fatalf("authority = %v, want 2 NS", ans.Authority)
	}
	if len(ans.Additional) != 2 {
		t.Fatalf("additional = %v, want 2 glue A", ans.Additional)
	}
	for _, rr := range ans.Authority {
		if rr.Type != dnswire.TypeNS || rr.Name != n("foo.com") {
			t.Fatalf("bad authority rr %v", rr)
		}
	}
}

func TestLookupReferralAtCutItself(t *testing.T) {
	z := comZone(t)
	ans := z.Lookup(n("foo.com"), dnswire.TypeA)
	if ans.Kind != KindReferral {
		t.Fatalf("kind = %v, want referral at the cut", ans.Kind)
	}
}

func TestLookupNXDomain(t *testing.T) {
	z := fooZone(t)
	ans := z.Lookup(n("nope.foo.com"), dnswire.TypeA)
	if ans.Kind != KindNXDomain {
		t.Fatalf("kind = %v, want nxdomain", ans.Kind)
	}
	if len(ans.Authority) != 1 || ans.Authority[0].Type != dnswire.TypeSOA {
		t.Fatalf("authority = %v, want SOA", ans.Authority)
	}
}

func TestLookupNoData(t *testing.T) {
	z := fooZone(t)
	ans := z.Lookup(n("www.foo.com"), dnswire.TypeMX)
	if ans.Kind != KindNoData {
		t.Fatalf("kind = %v, want nodata", ans.Kind)
	}
	if len(ans.Authority) != 1 || ans.Authority[0].Type != dnswire.TypeSOA {
		t.Fatalf("authority = %v, want SOA", ans.Authority)
	}
}

func TestLookupEmptyNonTerminal(t *testing.T) {
	z := fooZone(t)
	// b.foo.com exists only as an ancestor of a.b.foo.com.
	ans := z.Lookup(n("b.foo.com"), dnswire.TypeA)
	if ans.Kind != KindNoData {
		t.Fatalf("kind = %v, want nodata for empty non-terminal", ans.Kind)
	}
}

func TestLookupCNAMEChase(t *testing.T) {
	z := fooZone(t)
	ans := z.Lookup(n("alias.foo.com"), dnswire.TypeA)
	if ans.Kind != KindAnswer {
		t.Fatalf("kind = %v", ans.Kind)
	}
	if len(ans.Answer) != 2 {
		t.Fatalf("answer = %v, want CNAME + A", ans.Answer)
	}
	if ans.Answer[0].Type != dnswire.TypeCNAME || ans.Answer[1].Type != dnswire.TypeA {
		t.Fatalf("answer order = %v", ans.Answer)
	}
}

func TestLookupCNAMETypeQuery(t *testing.T) {
	z := fooZone(t)
	ans := z.Lookup(n("alias.foo.com"), dnswire.TypeCNAME)
	if ans.Kind != KindAnswer || len(ans.Answer) != 1 || ans.Answer[0].Type != dnswire.TypeCNAME {
		t.Fatalf("CNAME query = %+v", ans)
	}
}

func TestLookupOutOfZone(t *testing.T) {
	z := fooZone(t)
	ans := z.Lookup(n("bar.org"), dnswire.TypeA)
	if ans.Kind != KindNXDomain {
		t.Fatalf("kind = %v", ans.Kind)
	}
}

func TestAddRejectsOutOfZone(t *testing.T) {
	z := New(n("foo.com"))
	err := z.Add(dnswire.NewRR(n("bar.org"), 60, &dnswire.AData{Addr: netip.MustParseAddr("1.1.1.1")}))
	if !errors.Is(err, ErrOutOfZone) {
		t.Fatalf("err = %v", err)
	}
}

func TestAddRejectsCNAMEConflict(t *testing.T) {
	z := New(n("foo.com"))
	mustAdd(z, dnswire.NewRR(n("x.foo.com"), 60, &dnswire.AData{Addr: netip.MustParseAddr("1.1.1.1")}))
	err := z.Add(dnswire.NewRR(n("x.foo.com"), 60, &dnswire.CNAMEData{Target: n("y.foo.com")}))
	if !errors.Is(err, ErrDupCNAME) {
		t.Fatalf("err = %v", err)
	}
	err = z.Add(dnswire.NewRR(n("alias2.foo.com"), 60, &dnswire.CNAMEData{Target: n("y.foo.com")}))
	if err != nil {
		t.Fatalf("clean CNAME rejected: %v", err)
	}
	err = z.Add(dnswire.NewRR(n("alias2.foo.com"), 60, &dnswire.AData{Addr: netip.MustParseAddr("1.1.1.2")}))
	if !errors.Is(err, ErrDupCNAME) {
		t.Fatalf("err = %v", err)
	}
}

func TestValidate(t *testing.T) {
	z := New(n("foo.com"))
	if err := z.Validate(); !errors.Is(err, ErrNoSOA) {
		t.Fatalf("err = %v, want ErrNoSOA", err)
	}
	z = fooZone(t)
	if err := z.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

const fooZoneText = `
$ORIGIN foo.com.
$TTL 3600
@   IN  SOA ns1 admin.foo.com. (
        5       ; serial
        7200    ; refresh
        600     ; retry
        360000  ; expire
        60 )    ; minimum
@       IN  NS   ns1
ns1     IN  A    192.0.2.1
www     300 IN A 198.51.100.10
alias   IN  CNAME www
mail    IN  MX   10 www
txt     IN  TXT  "hello"
v6      IN  AAAA 2001:db8::1
`

func TestParseZoneFile(t *testing.T) {
	z, err := Parse(fooZoneText, dnswire.Root)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if z.Origin != n("foo.com") {
		t.Fatalf("origin = %v", z.Origin)
	}
	if err := z.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	soa, err := z.SOA()
	if err != nil {
		t.Fatalf("SOA: %v", err)
	}
	d := soa.Data.(*dnswire.SOAData)
	if d.Serial != 5 || d.Minimum != 60 || d.MName != n("ns1.foo.com") {
		t.Fatalf("SOA = %v", d)
	}
	ans := z.Lookup(n("www.foo.com"), dnswire.TypeA)
	if ans.Kind != KindAnswer || ans.Answer[0].TTL != 300 {
		t.Fatalf("www lookup = %+v", ans)
	}
	ans = z.Lookup(n("alias.foo.com"), dnswire.TypeA)
	if ans.Kind != KindAnswer || len(ans.Answer) != 2 {
		t.Fatalf("alias lookup = %+v", ans)
	}
	ans = z.Lookup(n("mail.foo.com"), dnswire.TypeMX)
	if ans.Kind != KindAnswer || ans.Answer[0].Data.(*dnswire.MXData).Pref != 10 {
		t.Fatalf("mx lookup = %+v", ans)
	}
	ans = z.Lookup(n("v6.foo.com"), dnswire.TypeAAAA)
	if ans.Kind != KindAnswer {
		t.Fatalf("aaaa lookup = %+v", ans)
	}
	ans = z.Lookup(n("txt.foo.com"), dnswire.TypeTXT)
	if ans.Kind != KindAnswer || string(ans.Answer[0].Data.(*dnswire.TXTData).Strings[0]) != "hello" {
		t.Fatalf("txt lookup = %+v", ans)
	}
}

func TestParseRootZone(t *testing.T) {
	const rootText = `
$TTL 86400
.    IN SOA a.root.example. hostmaster.example. 1 7200 600 360000 60
.    IN NS  a.root.example.
a.root.example. IN A 198.41.0.4
com. IN NS a.gtld.example.
a.gtld.example. IN A 192.5.6.30
`
	z, err := Parse(rootText, dnswire.Root)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !z.Origin.IsRoot() {
		t.Fatalf("origin = %q", z.Origin)
	}
	ans := z.Lookup(n("www.foo.com"), dnswire.TypeA)
	if ans.Kind != KindReferral {
		t.Fatalf("kind = %v, want referral to com", ans.Kind)
	}
	if ans.Authority[0].Name != n("com") {
		t.Fatalf("authority owner = %v", ans.Authority[0].Name)
	}
	if len(ans.Additional) != 1 {
		t.Fatalf("want glue, got %v", ans.Additional)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                            // empty
		"$TTL abc\nfoo. IN A 1.2.3.4", // bad TTL
		"foo. IN A not-an-ip",         // bad A
		"foo. IN AAAA 1.2.3.4",        // v4 in AAAA
		"foo. IN WEIRD data",          // unknown type
		"foo. IN MX 10",               // missing MX host
		"foo. IN",                     // missing type
	}
	for _, text := range cases {
		if _, err := Parse(text, dnswire.Root); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", text)
		}
	}
}

func TestParseOwnerInheritance(t *testing.T) {
	const text = `
$ORIGIN example.
@ IN SOA ns admin 1 2 3 4 5
@ IN NS ns
ns IN A 192.0.2.1
multi IN A 192.0.2.2
      IN A 192.0.2.3
`
	z, err := Parse(text, dnswire.Root)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rrs := z.rrsets[rrKey{n("multi.example"), dnswire.TypeA}]
	if len(rrs) != 2 {
		t.Fatalf("multi A records = %v, want 2 (owner inheritance)", rrs)
	}
}
