package cookie

import (
	"crypto/md5"
	"encoding/hex"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSipHash128Vectors pins the SipHash-2-4-128 core against the reference
// implementation's vectors_sip128 (key 000102...0f, message 000102...).
func TestSipHash128Vectors(t *testing.T) {
	want := map[int]string{
		0:  "a3817f04ba25a8e66df67214c7550293",
		1:  "da87c1d86b99af44347659119b22fc45",
		4:  "f88164c12d9c8faf7d0f6e7c7bcd5579",
		8:  "3b62a9ba6258f5610f83e264f31497b4",
		15: "5493e99933b0a8117e08ec0f97cfc3d9",
		16: "6ee2a4ca67b054bbfd3315bf85230577",
	}
	var keyBytes [16]byte
	for i := range keyBytes {
		keyBytes[i] = byte(i)
	}
	k0 := uint64(0x0706050403020100)
	k1 := uint64(0x0f0e0d0c0b0a0908)
	for n, hexWant := range want {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i)
		}
		lo, hi := siphash128(k0, k1, msg)
		var out [16]byte
		for i := 0; i < 8; i++ {
			out[i] = byte(lo >> (8 * i))
			out[8+i] = byte(hi >> (8 * i))
		}
		if got := hex.EncodeToString(out[:]); got != hexWant {
			t.Errorf("siphash128(len %d) = %s, want %s", n, got, hexWant)
		}
	}
}

// md5Ref is the paper's cookie computed by crypto/md5: MD5(key76 ‖ src_ip),
// src packed As4 for IPv4 and 4-in-6 and As16 otherwise, with the first bit
// overwritten by the epoch parity.
func md5Ref(key [KeySize]byte, src netip.Addr, parity uint64) Cookie {
	in := append([]byte(nil), key[:]...)
	if src.Is4() || src.Is4In6() {
		b := src.As4()
		in = append(in, b[:]...)
	} else {
		b := src.As16()
		in = append(in, b[:]...)
	}
	ref := md5.Sum(in)
	ref[0] = ref[0]&0x7F | uint8(parity&1)<<7
	return ref
}

// md5RefSources are the sources TestMD5SchemeMatchesReference checks and
// FuzzMD5MatchesReference's corpus starts from.
var md5RefSources = []netip.Addr{
	netip.MustParseAddr("10.1.2.3"),
	netip.MustParseAddr("192.0.2.250"),
	netip.MustParseAddr("2001:db8::1234"),
}

// TestMD5SchemeMatchesReference checks the default scheme against the
// paper's formula computed independently: c = MD5(key76 ‖ src_ip) with the
// first bit overwritten by the epoch parity. This is the cross-check that
// the Open/MACScheme redesign left the historical cookie bytes untouched.
func TestMD5SchemeMatchesReference(t *testing.T) {
	var key [KeySize]byte
	for i := range key {
		key[i] = byte(i * 3)
	}
	a, err := Open(Options{Key: &key})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range md5RefSources {
		if got, ref := a.Mint(src), md5Ref(key, src, 0); got != ref {
			t.Errorf("Mint(%v) = %x, want reference MD5 %x", src, got, ref)
		}
	}
}

// FuzzMD5MatchesReference checks the in-tree MD5 against crypto/md5 for any
// key and any IPv4, IPv6 or 4-in-6 source, on a ring built by each
// constructor — Open with a key, Open from a state file, a rotation and
// Adopt — so a constructor that leaves a key's midstate stale or unset
// fails. Both of a ring's key slots are checked: the current epoch's by
// Mint, the previous epoch's by Verify. MD5.MAC, the two-block path for a
// caller holding only a key, is checked too.
func FuzzMD5MatchesReference(f *testing.F) {
	key := make([]byte, KeySize)
	for i := range key {
		key[i] = byte(i * 3)
	}
	for _, src := range append(md5RefSources, netip.MustParseAddr("::ffff:10.1.2.3")) {
		f.Add(key, src.AsSlice())
	}
	f.Fuzz(func(t *testing.T, keyIn, srcIn []byte) {
		src, ok := netip.AddrFromSlice(srcIn)
		if !ok {
			t.Skip("not a 4- or 16-byte address")
		}
		var key, other [KeySize]byte
		copy(key[:], keyIn)
		for i := range other {
			other[i] = ^key[i]
		}
		var c Cookie
		MD5.MAC(&key, src, &c)
		// md5Ref stamps a parity bit: give it the MAC's own first bit.
		if want := md5Ref(key, src, uint64(c[0]>>7)); c != want {
			t.Fatalf("MD5.MAC(%x, %v) = %x, want md5 %x", key, src, c, want)
		}

		path := filepath.Join(t.TempDir(), "keyring")
		if err := writeKeyState(path, KeyState{Epoch: 3, Keys: [2][KeySize]byte{other, key}}); err != nil {
			t.Fatal(err)
		}
		fromFile, err := Open(Options{StateFile: path})
		if err != nil {
			t.Fatal(err)
		}
		rotated := keyed(other)
		rotateWithKey(rotated, key)
		adopted := keyed(other)
		if !adopted.Adopt(KeyState{Epoch: 6, Keys: [2][KeySize]byte{key, other}}) {
			t.Fatal("Adopt refused a newer epoch")
		}
		for name, a := range map[string]*Authenticator{
			"Open(Key)":       keyed(key),
			"Open(StateFile)": fromFile,
			"rotation":        rotated,
			"Adopt":           adopted,
		} {
			e := a.Epoch()
			got, want := a.Mint(src), md5Ref(key, src, e)
			if got != want {
				t.Fatalf("%s: Mint(%v) = %x, want md5 %x", name, src, got, want)
			}
			if !a.Verify(src, got) {
				t.Fatalf("%s: Verify(%v) refused its own cookie", name, src)
			}
			if e > 0 && !a.Verify(src, md5Ref(other, src, e-1)) {
				t.Fatalf("%s: Verify(%v) refused the previous epoch's md5 cookie", name, src)
			}
		}
	})
}

func TestMACByName(t *testing.T) {
	for name, want := range map[string]MACScheme{"": MD5, "md5": MD5, "siphash": SipHash} {
		got, err := MACByName(name)
		if err != nil || got != want {
			t.Errorf("MACByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := MACByName("blake3"); err == nil {
		t.Error("MACByName(blake3) should fail")
	}
}

// TestSchemeRoundTrip exercises mint/verify, rotation grace, and
// cross-scheme rejection for both built-in schemes.
func TestSchemeRoundTrip(t *testing.T) {
	var key [KeySize]byte
	key[0] = 7
	src := netip.MustParseAddr("10.0.0.9")
	for _, mac := range []MACScheme{MD5, SipHash} {
		a, err := Open(Options{Key: &key, MAC: mac})
		if err != nil {
			t.Fatal(err)
		}
		c := a.Mint(src)
		if !a.Verify(src, c) {
			t.Fatalf("%s: minted cookie does not verify", mac.Name())
		}
		if a.Verify(netip.MustParseAddr("10.0.0.10"), c) {
			t.Fatalf("%s: cookie verifies for the wrong source", mac.Name())
		}
		var next [KeySize]byte
		next[0] = 9
		rotateWithKey(a, next)
		if !a.Verify(src, c) {
			t.Fatalf("%s: previous-epoch cookie rejected inside the grace window", mac.Name())
		}
	}
	// The two schemes must disagree: a SipHash cookie must not verify
	// under an MD5 ring with the same key, and vice versa.
	am, _ := Open(Options{Key: &key})
	as, _ := Open(Options{Key: &key, MAC: SipHash})
	if am.Verify(src, as.Mint(src)) || as.Verify(src, am.Mint(src)) {
		t.Error("cookies verify across schemes sharing a key")
	}
}

// TestVerifyAllocs pins the single-packet and batch verify paths at zero
// allocations for both built-in schemes — the cookie half of the
// zero-allocation fast path.
func TestVerifyAllocs(t *testing.T) {
	var key [KeySize]byte
	key[5] = 42
	src := netip.MustParseAddr("172.16.33.44")
	for _, mac := range []MACScheme{MD5, SipHash} {
		a, err := Open(Options{Key: &key, MAC: mac})
		if err != nil {
			t.Fatal(err)
		}
		c := a.Mint(src)
		if n := testing.AllocsPerRun(200, func() {
			if !a.Verify(src, c) {
				t.Fatal("verify failed")
			}
		}); n != 0 {
			t.Errorf("%s: Authenticator.Verify allocates %.1f/op, want 0", mac.Name(), n)
		}
		if n := testing.AllocsPerRun(200, func() { a.Mint(src) }); n != 0 {
			t.Errorf("%s: Authenticator.Mint allocates %.1f/op, want 0", mac.Name(), n)
		}
		bv := NewBatchVerifier()
		bv.Reset(a)
		if n := testing.AllocsPerRun(200, func() {
			if !bv.Verify(src, c) {
				t.Fatal("batch verify failed")
			}
		}); n != 0 {
			t.Errorf("%s: BatchVerifier.Verify allocates %.1f/op, want 0", mac.Name(), n)
		}
	}
}

// TestStateFileSchemeTag checks the scheme round-trip through keyring
// persistence: MD5 rings keep the historical untagged format, SipHash rings
// carry a mac line, and both reopen under the right scheme.
func TestStateFileSchemeTag(t *testing.T) {
	dir := t.TempDir()
	src := netip.MustParseAddr("10.2.3.4")
	var key [KeySize]byte
	key[1] = 11

	md5Path := filepath.Join(dir, "ring-md5")
	am, err := Open(Options{Key: &key, StateFile: md5Path})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(md5Path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "mac ") {
		t.Errorf("default-scheme state file carries a mac line:\n%s", blob)
	}
	if len(strings.Split(strings.TrimSpace(string(blob)), "\n")) != 5 {
		t.Errorf("default-scheme state file is not the historical 5-line format:\n%s", blob)
	}

	sipPath := filepath.Join(dir, "ring-sip")
	as, err := Open(Options{Key: &key, MAC: SipHash, StateFile: sipPath})
	if err != nil {
		t.Fatal(err)
	}
	blob, err = os.ReadFile(sipPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "mac siphash") {
		t.Errorf("siphash state file missing mac tag:\n%s", blob)
	}
	c := as.Mint(src)

	// Reopen both; the scheme must come back from the file, not Options.
	am2, err := Open(Options{StateFile: md5Path})
	if err != nil {
		t.Fatal(err)
	}
	if am2.MAC() != MD5 || am2.Mint(src) != am.Mint(src) {
		t.Error("md5 ring did not reopen byte-identically")
	}
	as2, err := Open(Options{StateFile: sipPath})
	if err != nil {
		t.Fatal(err)
	}
	if as2.MAC() != SipHash || !as2.Verify(src, c) {
		t.Error("siphash ring did not reopen under its tagged scheme")
	}

	// A follower handle adopts the file's scheme too.
	follower, err := Open(Options{StateFile: sipPath, Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	if follower.MAC() != SipHash || !follower.Verify(src, c) {
		t.Error("follower did not adopt the tagged scheme")
	}

	// State/Adopt carry the scheme: a fresh md5 authenticator pushed the
	// siphash ring's state must verify its cookies afterwards.
	st := as.State()
	if st.Scheme != "siphash" {
		t.Fatalf("State().Scheme = %q, want siphash", st.Scheme)
	}
	if !am2.Adopt(st) || !am2.Verify(src, c) {
		t.Error("Adopt did not install the pushed scheme")
	}
	if am2.Adopt(KeyState{Epoch: st.Epoch + 1, Scheme: "nope"}) {
		t.Error("Adopt accepted an unknown scheme")
	}
}

// TestOpenRejectsUnknownScheme: a state naming a scheme this build does not
// know opens nothing — never a ring under a guessed scheme, which would
// verify none of the cookies the state's owner minted.
func TestOpenRejectsUnknownScheme(t *testing.T) {
	st := keyed(detKey(1)).State()
	st.Scheme = "nope"
	path := filepath.Join(t.TempDir(), "ring")
	if err := writeKeyState(path, st); err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"State":     {State: &st},
		"StateFile": {StateFile: path},
		"Follow":    {StateFile: path, Follow: true},
	} {
		if a, err := Open(opts); err == nil {
			t.Errorf("%s: Open built a %s ring on a state naming scheme %q", name, a.MAC().Name(), st.Scheme)
		}
	}
}
