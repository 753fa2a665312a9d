package cookie

import (
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

// mustOpen is Open for options that have no failure path in a test (a fixed
// key, a captured state).
func mustOpen(opts Options) *Authenticator {
	a, err := Open(opts)
	if err != nil {
		panic(err)
	}
	return a
}

func keyed(key [KeySize]byte) *Authenticator { return mustOpen(Options{Key: &key}) }

// rotateWithKey is Rotate with a chosen key, for deterministic epochs.
func rotateWithKey(a *Authenticator, key [KeySize]byte) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ring.Store(a.snapshot().next(key))
}

func testAuth() *Authenticator {
	var key [KeySize]byte
	for i := range key {
		key[i] = byte(i * 7)
	}
	return keyed(key)
}

func TestMintVerify(t *testing.T) {
	a := testAuth()
	src := netip.MustParseAddr("10.1.2.3")
	c := a.Mint(src)
	if !a.Verify(src, c) {
		t.Fatal("cookie rejected for its own source")
	}
	if a.Verify(netip.MustParseAddr("10.1.2.4"), c) {
		t.Fatal("cookie accepted for a different source")
	}
}

func TestCookiesDifferPerSource(t *testing.T) {
	a := testAuth()
	seen := map[Cookie]bool{}
	for i := 0; i < 256; i++ {
		src := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
		c := a.Mint(src)
		if seen[c] {
			t.Fatalf("duplicate cookie for %v", src)
		}
		seen[c] = true
	}
}

func TestDifferentKeysDifferentCookies(t *testing.T) {
	a1 := testAuth()
	var key2 [KeySize]byte
	key2[0] = 0xAA
	a2 := keyed(key2)
	src := netip.MustParseAddr("10.1.2.3")
	if a1.Mint(src) == a2.Mint(src) {
		t.Fatal("different keys produced identical cookies")
	}
	if a2.Verify(src, a1.Mint(src)) {
		t.Fatal("cookie from another guard accepted")
	}
}

// TestFreshRingsNeverShareAKey draws keys from the platform's source —
// getrandom(2) on the native build, crypto/rand elsewhere — through Open and
// Rotate: no two fresh rings, and no rotation, may repeat a key.
func TestFreshRingsNeverShareAKey(t *testing.T) {
	seen := map[[KeySize]byte]bool{{}: true}
	fresh := func(k [KeySize]byte) {
		if seen[k] {
			t.Fatalf("key %x drawn twice (or all zero)", k)
		}
		seen[k] = true
	}
	for i := 0; i < 8; i++ {
		a, err := Open(Options{})
		if err != nil {
			t.Fatal(err)
		}
		st := a.State()
		if st.Keys[0] != st.Keys[1] {
			t.Fatal("a fresh ring's two slots differ")
		}
		fresh(st.Keys[0])
		if err := a.Rotate(); err != nil {
			t.Fatal(err)
		}
		fresh(a.State().Keys[1])
	}
}

func TestRotationAcceptsPreviousGeneration(t *testing.T) {
	a := testAuth()
	src := netip.MustParseAddr("192.0.2.55")
	old := a.Mint(src)

	var k1 [KeySize]byte
	k1[10] = 1
	rotateWithKey(a, k1)
	if !a.Verify(src, old) {
		t.Fatal("previous-generation cookie rejected after one rotation")
	}
	fresh := a.Mint(src)
	if !a.Verify(src, fresh) {
		t.Fatal("current cookie rejected")
	}
	if fresh == old {
		t.Fatal("rotation did not change the cookie")
	}

	var k2 [KeySize]byte
	k2[20] = 2
	rotateWithKey(a, k2)
	if a.Verify(src, old) {
		t.Fatal("stale cookie (two rotations old) accepted")
	}
	if !a.Verify(src, fresh) {
		t.Fatal("one-rotation-old cookie rejected")
	}
}

func TestGenerationBitMatchesParity(t *testing.T) {
	a := testAuth()
	src := netip.MustParseAddr("10.0.0.1")
	if got := a.Mint(src)[0] >> 7; got != 0 {
		t.Fatalf("gen-0 cookie has generation bit %d", got)
	}
	var k [KeySize]byte
	rotateWithKey(a, k)
	if got := a.Mint(src)[0] >> 7; got != 1 {
		t.Fatalf("gen-1 cookie has generation bit %d", got)
	}
}

func TestIsZero(t *testing.T) {
	var c Cookie
	if !c.IsZero() {
		t.Fatal("zero cookie not IsZero")
	}
	c[15] = 1
	if c.IsZero() {
		t.Fatal("nonzero cookie IsZero")
	}
}

func TestNSLabelRoundTrip(t *testing.T) {
	a := testAuth()
	nc := NSCodec{}
	src := netip.MustParseAddr("203.0.113.9")
	label := nc.EncodeLabel(a.Mint(src))
	if len(label) != 10 {
		t.Fatalf("label %q has length %d, want 10 (paper's encoding)", label, len(label))
	}
	if !strings.HasPrefix(label, "pr") {
		t.Fatalf("label %q lacks prefix", label)
	}
	if !nc.IsCookieLabel(label) {
		t.Fatal("IsCookieLabel rejected own label")
	}
	if !nc.VerifyLabel(a, src, label) {
		t.Fatal("VerifyLabel rejected own label")
	}
	if nc.VerifyLabel(a, netip.MustParseAddr("203.0.113.10"), label) {
		t.Fatal("VerifyLabel accepted label for wrong source")
	}
}

func TestNSLabelRejectsNonCookies(t *testing.T) {
	nc := NSCodec{}
	for _, label := range []string{"", "www", "pr", "pra1b2c3", "pra1b2c3d4e5", "prZZZZZZZZ", "xxa1b2c3d4"} {
		if nc.IsCookieLabel(label) {
			t.Errorf("IsCookieLabel(%q) = true", label)
		}
	}
}

func TestNSLabelCaseInsensitive(t *testing.T) {
	a := testAuth()
	nc := NSCodec{}
	src := netip.MustParseAddr("203.0.113.9")
	label := strings.ToUpper(nc.EncodeLabel(a.Mint(src)))
	if !nc.VerifyLabel(a, src, label) {
		t.Fatal("uppercase label rejected (DNS names are case-insensitive)")
	}
}

func TestNSLabelSurvivesRotation(t *testing.T) {
	a := testAuth()
	nc := NSCodec{}
	src := netip.MustParseAddr("198.51.100.77")
	label := nc.EncodeLabel(a.Mint(src))
	var k [KeySize]byte
	k[3] = 9
	rotateWithKey(a, k)
	if !nc.VerifyLabel(a, src, label) {
		t.Fatal("label from previous generation rejected")
	}
	var k2 [KeySize]byte
	k2[4] = 8
	rotateWithKey(a, k2)
	if nc.VerifyLabel(a, src, label) {
		t.Fatal("label two generations old accepted")
	}
}

func TestCustomPrefix(t *testing.T) {
	a := testAuth()
	nc := NSCodec{Prefix: "gx"}
	src := netip.MustParseAddr("10.0.0.1")
	label := nc.EncodeLabel(a.Mint(src))
	if !strings.HasPrefix(label, "gx") {
		t.Fatalf("label %q", label)
	}
	if (NSCodec{}).IsCookieLabel(label) {
		t.Fatal("default codec accepted custom-prefix label")
	}
}

func TestIPCodecEncodeVerify(t *testing.T) {
	a := testAuth()
	ic := IPCodec{Subnet: netip.MustParsePrefix("1.2.3.0/24")}
	src := netip.MustParseAddr("10.20.30.40")
	addr, err := ic.Encode(a.Mint(src))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !ic.Subnet.Contains(addr) {
		t.Fatalf("cookie address %v outside subnet", addr)
	}
	last := addr.As4()[3]
	if last == 0 || last == 255 {
		t.Fatalf("cookie address %v uses network/broadcast byte", addr)
	}
	if !verifyIP(a.snapshot(), ic, src, addr) {
		t.Fatal("Verify rejected own encoding")
	}
	if verifyIP(a.snapshot(), ic, netip.MustParseAddr("10.20.30.41"), addr) {
		t.Fatal("Verify accepted wrong source")
	}
	if verifyIP(a.snapshot(), ic, src, netip.MustParseAddr("9.9.9.9")) {
		t.Fatal("Verify accepted address outside subnet")
	}
}

func TestIPCodecRange(t *testing.T) {
	tests := []struct {
		prefix string
		want   uint32
		ok     bool
	}{
		{"1.2.3.0/24", 254, true},
		{"1.2.0.0/16", 65534, true},
		{"1.2.3.4/31", 0, false},
		{"1.2.3.4/32", 0, false},
	}
	for _, tt := range tests {
		ic := IPCodec{Subnet: netip.MustParsePrefix(tt.prefix)}
		got, err := ic.Range()
		if tt.ok && (err != nil || got != tt.want) {
			t.Errorf("Range(%s) = %d, %v; want %d", tt.prefix, got, err, tt.want)
		}
		if !tt.ok && err == nil {
			t.Errorf("Range(%s) accepted", tt.prefix)
		}
	}
}

func TestIPCodecSurvivesRotation(t *testing.T) {
	a := testAuth()
	ic := IPCodec{Subnet: netip.MustParsePrefix("1.2.3.0/24")}
	src := netip.MustParseAddr("10.20.30.40")
	addr, _ := ic.Encode(a.Mint(src))
	var k [KeySize]byte
	k[9] = 3
	rotateWithKey(a, k)
	if !verifyIP(a.snapshot(), ic, src, addr) {
		t.Fatal("IP cookie from previous generation rejected")
	}
}

func TestPropertyLabelRoundTrip(t *testing.T) {
	a := testAuth()
	nc := NSCodec{}
	f := func(b [4]byte) bool {
		src := netip.AddrFrom4(b)
		label := nc.EncodeLabel(a.Mint(src))
		return nc.VerifyLabel(a, src, label)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyVerifyRejectsRandomCookies(t *testing.T) {
	a := testAuth()
	src := netip.MustParseAddr("10.0.0.1")
	r := rand.New(rand.NewSource(1))
	hits := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		var c Cookie
		r.Read(c[:])
		if a.Verify(src, c) {
			hits++
		}
	}
	if hits > 0 {
		t.Fatalf("%d of %d random cookies accepted", hits, trials)
	}
}

func TestIPv6SourcesSupported(t *testing.T) {
	a := testAuth()
	s1 := netip.MustParseAddr("2001:db8::1")
	s2 := netip.MustParseAddr("2001:db8::2")
	if a.Mint(s1) == a.Mint(s2) {
		t.Fatal("v6 sources collide")
	}
	if !a.Verify(s1, a.Mint(s1)) {
		t.Fatal("v6 cookie rejected")
	}
}
