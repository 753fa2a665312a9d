package guard

import (
	"math/rand"
	"strings"
	"testing"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
)

// mustOpen is cookie.Open for options with no failure path in a test: a
// fixed key, a captured state.
func mustOpen(opts cookie.Options) *cookie.Authenticator {
	a, err := cookie.Open(opts)
	if err != nil {
		panic(err)
	}
	return a
}

func testAuth() *cookie.Authenticator {
	var key [cookie.KeySize]byte
	for i := range key {
		key[i] = byte(i)
	}
	return mustOpen(cookie.Options{Key: &key})
}

func TestAttachFindStripCookie(t *testing.T) {
	m := dnswire.NewQuery(1, dnswire.MustName("www.foo.com"), dnswire.TypeA)
	var c cookie.Cookie
	for i := range c {
		c[i] = byte(i * 3)
	}
	AttachCookie(m, c, 604800)

	got, ttl, idx, ok := FindCookie(m)
	if !ok || got != c || ttl != 604800 || idx != 0 {
		t.Fatalf("FindCookie = %v %d %d %v", got, ttl, idx, ok)
	}

	// Survives the wire.
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := dnswire.Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	got2, _, _, ok := FindCookie(decoded)
	if !ok || got2 != c {
		t.Fatalf("after wire: %v %v", got2, ok)
	}

	stripCookie(decoded)
	if _, _, _, ok := FindCookie(decoded); ok {
		t.Fatal("cookie still present after strip")
	}
}

func TestFindCookieIgnoresOrdinaryTXT(t *testing.T) {
	m := dnswire.NewQuery(1, dnswire.MustName("a.b"), dnswire.TypeA)
	m.Additional = append(m.Additional,
		dnswire.NewRR(dnswire.MustName("x.y"), 60, &dnswire.TXTData{Strings: [][]byte{[]byte("0123456789abcdef")}}), // wrong owner
		dnswire.NewRR(dnswire.Root, 60, &dnswire.TXTData{Strings: [][]byte{[]byte("short")}}),                       // wrong length
	)
	if _, _, _, ok := FindCookie(m); ok {
		t.Fatal("false positive cookie detection")
	}
}

func TestFabricateAndParseNSName(t *testing.T) {
	auth := testAuth()
	nc := cookie.NSCodec{}
	src := mustAddr("10.0.0.53")
	c := auth.Mint(src)

	tests := []struct{ child string }{
		{"com"},
		{"foo.com"},
		{"www.foo.com"},
		{"a.b.c.d.example"},
	}
	for _, tt := range tests {
		child := dnswire.MustName(tt.child)
		fab, err := FabricateNSName(nc, c, child)
		if err != nil {
			t.Fatalf("Fabricate(%s): %v", tt.child, err)
		}
		// The fabricated name must live in the child's parent zone so the
		// LRS comes back to the same guard (§III-B).
		if fab.Parent() != child.Parent() {
			t.Fatalf("fab %s not in %s", fab, child.Parent())
		}
		label, restored, ok := ParseFabricatedName(nc, fab)
		if !ok {
			t.Fatalf("ParseFabricatedName(%s) failed", fab)
		}
		if restored != child {
			t.Fatalf("restored %s, want %s", restored, child)
		}
		if !nc.VerifyLabel(auth, src, label) {
			t.Fatalf("cookie label %q did not verify", label)
		}
	}
}

func TestFabricateNSNameMatchesPaperShape(t *testing.T) {
	// Root guard, question www.foo.com → child com → fabricated single
	// label "prXXXXXXXXcom" in the root zone (the paper's COOKIEcom).
	auth := testAuth()
	nc := cookie.NSCodec{}
	c := auth.Mint(mustAddr("10.0.0.53"))
	fab, err := FabricateNSName(nc, c, dnswire.MustName("com"))
	if err != nil {
		t.Fatal(err)
	}
	if fab.NumLabels() != 1 {
		t.Fatalf("fab %s has %d labels, want 1 (root-zone name)", fab, fab.NumLabels())
	}
	if len(fab.FirstLabel()) != 13 { // 2 prefix + 8 hex + 3 ("com")
		t.Fatalf("label %q length %d, want 13", fab, len(fab.FirstLabel()))
	}
}

func TestParseFabricatedNameRejectsPlainNames(t *testing.T) {
	nc := cookie.NSCodec{}
	for _, s := range []string{"www.foo.com", "com", "pr.com", "prnothexxxxcom"} {
		if _, _, ok := ParseFabricatedName(nc, dnswire.MustName(s)); ok {
			t.Errorf("ParseFabricatedName(%q) accepted", s)
		}
	}
}

func TestFabricateNSNameRejectsOversizeLabel(t *testing.T) {
	auth := testAuth()
	nc := cookie.NSCodec{}
	c := auth.Mint(mustAddr("10.0.0.1"))
	long := dnswire.MustName("a23456789012345678901234567890123456789012345678901234567890.com") // 61-char label
	if _, err := FabricateNSName(nc, c, long); err == nil {
		t.Fatal("oversize fabricated label accepted")
	}
}

// TestNSCredMatchesParseFabricatedName: the pipeline classifies a first label
// with nsLabel, on wire bytes or on a decoded name; ParseFabricatedName is the
// reference it must agree with, on the verdict and, but for case, on the
// cookie label.
func TestNSCredMatchesParseFabricatedName(t *testing.T) {
	h := newShardHarness(t, nil)
	valid := h.g.nsc.EncodeLabel(testAuth().Mint(mustAddr("10.0.0.53")))
	labels := []string{
		valid + "www", valid + "w", valid, valid[:len(valid)-1] + "gwww", valid[:len(valid)-1], "",
		"www", "pr", "prwww", "qr" + valid[2:] + "www", valid[:5] + "-" + valid[6:] + "www",
		valid + "\xe9", valid[:4] + "\xe9" + valid[5:] + "www", "p\xe2\x84\xaa" + valid[2:] + "www",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := []byte(valid + "abc")[:rng.Intn(len(valid)+4)]
		for n := rng.Intn(3); n > 0 && len(b) > 0; n-- {
			b[rng.Intn(len(b))] = byte(rng.Intn(256))
		}
		labels = append(labels, string(b))
	}
	for _, wire := range labels {
		if strings.ContainsAny(wire, ".\x00") {
			continue // not a label Unpack hands on
		}
		for _, sent := range []string{wire, strings.ToUpper(wire)} {
			qname, err := dnswire.ParseName(sent + ".foo.com")
			if err != nil || qname.FirstLabel() == "" {
				continue
			}
			label, _, want := ParseFabricatedName(h.g.nsc, qname)
			found, got := nsLabel(h.g, qname.FirstLabel())
			if got != want || got && !strings.EqualFold(found, label) {
				t.Errorf("%q: nsLabel = (%q, %v), ParseFabricatedName = (%q, %v)", qname, found, got, label, want)
			}
			// On the wire as sent, where it is ASCII: any case.
			if isASCII(sent) {
				found, got := nsLabel(h.g, []byte(sent))
				if got != want || got && !strings.EqualFold(string(found), label) {
					t.Errorf("%q on the wire: nsLabel = (%q, %v), want (%q, %v)", sent, found, got, label, want)
				}
			}
		}
	}
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}
