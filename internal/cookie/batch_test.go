package cookie

import (
	"net/netip"
	"strings"
	"testing"
)

// TestBatchVerifierMatchesSingle pins the batch paths to the single-packet
// paths bit-for-bit, across key rotation and for every cookie encoding.
func TestBatchVerifierMatchesSingle(t *testing.T) {
	var key [KeySize]byte
	for i := range key {
		key[i] = byte(i * 7)
	}
	a := keyed(key)
	nc := NSCodec{}
	ic := IPCodec{Subnet: netip.MustParsePrefix("1.2.3.0/24")}

	srcs := make([]netip.Addr, 0, 64)
	for i := 0; i < 64; i++ {
		srcs = append(srcs, netip.AddrFrom4([4]byte{10, 0, byte(i / 8), byte(i)}))
	}
	srcs = append(srcs, netip.MustParseAddr("2001:db8::17"))

	check := func(stage string) {
		t.Helper()
		v := NewBatchVerifier()
		v.Reset(a)
		for _, src := range srcs {
			c := a.Mint(src)
			if v.Mint(src) != c {
				t.Fatalf("%s: Mint(%v) diverges", stage, src)
			}
			if got, want := v.Verify(src, c), a.Verify(src, c); got != want || !got {
				t.Fatalf("%s: Verify(%v) batch=%v single=%v", stage, src, got, want)
			}
			// A cookie for the wrong source must fail on both paths.
			other := a.Mint(netip.AddrFrom4([4]byte{192, 0, 2, 1}))
			if v.Verify(src, other) != a.Verify(src, other) {
				t.Fatalf("%s: wrong-source Verify diverges for %v", stage, src)
			}
			label := nc.EncodeLabel(c)
			if got, want := v.VerifyLabel(nc, src, label), nc.VerifyLabel(a, src, label); got != want || !got {
				t.Fatalf("%s: VerifyLabel(%v) batch=%v single=%v", stage, src, got, want)
			}
			addr, err := ic.Encode(c)
			if err != nil {
				t.Fatalf("%s: Encode: %v", stage, err)
			}
			if got, want := v.VerifyIP(ic, src, addr), verifyIP(a.snapshot(), ic, src, addr); got != want || !got {
				t.Fatalf("%s: VerifyIP(%v) batch=%v single=%v", stage, src, got, want)
			}
		}
	}

	check("epoch0")
	// Cookies minted before a rotation must stay valid on both paths.
	pre := a.Mint(srcs[0])
	var key2 [KeySize]byte
	key2[0] = 0xAA
	rotateWithKey(a, key2)
	check("epoch1")
	v := NewBatchVerifier()
	v.Reset(a)
	if !v.Verify(srcs[0], pre) || !a.Verify(srcs[0], pre) {
		t.Fatal("pre-rotation cookie rejected after one rotation")
	}
}

// TestVerifyLabelBytes: the []byte entry points read a label where it lies —
// either case, no copy, nothing allocated, valid or forged — and agree with
// the string ones on every label, including the ones that are not cookies.
func TestVerifyLabelBytes(t *testing.T) {
	a := keyed(testKey(3))
	nc := NSCodec{}
	v := NewBatchVerifier()
	v.Reset(a)
	src, other := netip.MustParseAddr("10.0.0.53"), netip.MustParseAddr("10.0.0.54")
	good := nc.EncodeLabel(a.Mint(src))
	if got := string(nc.AppendLabel([]byte("x"), a.Mint(src))); got != "x"+good {
		t.Errorf("AppendLabel = %q, want %q", got, "x"+good)
	}
	labels := []string{good, strings.ToUpper(good), nc.EncodeLabel(a.Mint(other)), good[:len(good)-1], good + "0", "",
		"pr0000000g", "qr" + good[2:], good[:3] + "\xe9" + good[4:], "p\xe2\x84\xaa" + good[4:], "PR" + good[2:], "pR" + strings.ToUpper(good[2:])}
	for _, label := range labels {
		b := []byte(label)
		for _, s := range []netip.Addr{src, other} {
			want := nc.VerifyLabel(a, s, label)
			if got := [2]bool{v.VerifyLabel(nc, s, label), v.VerifyLabelBytes(nc, s, b)}; got != [2]bool{want, want} {
				t.Errorf("label %q from %v: batch/batch-bytes = %v, VerifyLabel = %v", label, s, got, want)
			}
		}
		if string(b) != label {
			t.Errorf("label %q was rewritten to %q", label, b)
		}
		if wantOK := strings.EqualFold(label, good) || label == labels[2]; nc.IsCookieLabel(label) != wantOK {
			t.Errorf("IsCookieLabel(%q) = %v", label, !wantOK)
		}
		if n := testing.AllocsPerRun(100, func() { v.VerifyLabelBytes(nc, src, b) }); n != 0 {
			t.Errorf("VerifyLabelBytes(%q) allocates %.1f/op, want 0", label, n)
		}
	}
}
