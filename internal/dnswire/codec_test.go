package dnswire

import (
	"errors"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleMessage() *Message {
	return &Message{
		ID:    0xBEEF,
		Flags: Flags{QR: true, AA: true, RD: true, RA: true},
		Questions: []Question{
			{Name: MustName("www.foo.com"), Type: TypeA, Class: ClassINET},
		},
		Answers: []RR{
			NewRR(MustName("www.foo.com"), 300, &CNAMEData{Target: MustName("web.foo.com")}),
			NewRR(MustName("web.foo.com"), 300, &AData{Addr: netip.MustParseAddr("1.2.3.4")}),
			NewRR(MustName("web.foo.com"), 300, &AAAAData{Addr: netip.MustParseAddr("2001:db8::1")}),
		},
		Authority: []RR{
			NewRR(MustName("foo.com"), 86400, &NSData{Host: MustName("ns1.foo.com")}),
			NewRR(MustName("foo.com"), 86400, &SOAData{
				MName: MustName("ns1.foo.com"), RName: MustName("admin.foo.com"),
				Serial: 2026070601, Refresh: 7200, Retry: 600, Expire: 360000, Minimum: 60,
			}),
		},
		Additional: []RR{
			NewRR(MustName("ns1.foo.com"), 86400, &AData{Addr: netip.MustParseAddr("5.6.7.8")}),
			NewRR(MustName("foo.com"), 3600, &MXData{Pref: 10, Host: MustName("mail.foo.com")}),
			NewRR(Root, 0, &TXTData{Strings: [][]byte{[]byte("cookie-0123456789abcdef")}}),
		},
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	m := sampleMessage()
	b, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n got %v\nwant %v", got, m)
	}
}

func TestCompressionShrinksMessage(t *testing.T) {
	m := sampleMessage()
	b, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	// Rough uncompressed size: every name fully expanded.
	uncompressed := 12
	for _, q := range m.Questions {
		uncompressed += q.Name.WireLen() + 4
	}
	for _, sec := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, r := range sec {
			uncompressed += r.Name.WireLen() + 10 + 32 // generous rdata bound
		}
	}
	if len(b) >= uncompressed {
		t.Fatalf("compressed %d >= rough uncompressed bound %d", len(b), uncompressed)
	}
	// All shared suffixes should appear only once.
	if n := strings.Count(string(b), "\x03foo\x03com"); n != 1 {
		t.Fatalf("foo.com appears %d times in wire form, want 1 (compression)", n)
	}
}

func TestUnpackRejectsTrailingBytes(t *testing.T) {
	b, _ := sampleMessage().Pack()
	b = append(b, 0xFF)
	if _, err := Unpack(b); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestUnpackRejectsTruncatedInput(t *testing.T) {
	b, _ := sampleMessage().Pack()
	for i := 1; i < len(b)-1; i++ {
		if _, err := Unpack(b[:i]); err == nil {
			t.Fatalf("Unpack accepted truncation at %d bytes", i)
		}
	}
}

func TestUnpackRejectsPointerLoop(t *testing.T) {
	// Header + a question whose name is a pointer to itself.
	b := make([]byte, 12)
	b[5] = 1                 // QDCOUNT=1
	name := []byte{0xC0, 12} // points at itself
	b = append(b, name...)
	b = append(b, 0, 1, 0, 1)
	_, err := Unpack(b)
	if !errors.Is(err, ErrForwardPointer) && !errors.Is(err, ErrPointerLoop) {
		t.Fatalf("err = %v, want pointer error", err)
	}
}

func TestUnpackRejectsForwardPointer(t *testing.T) {
	b := make([]byte, 12)
	b[5] = 1
	b = append(b, 0xC0, 20) // forward pointer past the name
	b = append(b, 0, 1, 0, 1, 0, 0, 0, 0)
	if _, err := Unpack(b); err == nil {
		t.Fatal("accepted forward pointer")
	}
}

func TestUnpackRejectsBadRDLength(t *testing.T) {
	m := &Message{ID: 1, Questions: []Question{{Name: MustName("a.b"), Type: TypeA, Class: ClassINET}}}
	b, _ := m.Pack()
	// Claim an answer exists but provide a record whose rdlength overruns.
	b[7] = 1 // ANCOUNT = 1
	b = append(b, 0 /*root name*/, 0, 1, 0, 1, 0, 0, 0, 0 /*ttl*/, 0, 10 /*rdlen 10*/, 1, 2, 3, 4)
	if _, err := Unpack(b); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestPackUDPTruncates(t *testing.T) {
	m := &Message{
		ID:        7,
		Flags:     Flags{QR: true},
		Questions: []Question{{Name: MustName("big.example"), Type: TypeTXT, Class: ClassINET}},
	}
	for i := 0; i < 30; i++ {
		m.Answers = append(m.Answers, NewRR(MustName("big.example"), 60,
			&TXTData{Strings: [][]byte{[]byte(strings.Repeat("x", 100))}}))
	}
	b, err := m.PackUDP(MaxUDPSize)
	if err != nil {
		t.Fatalf("PackUDP: %v", err)
	}
	if len(b) > MaxUDPSize {
		t.Fatalf("len = %d > 512", len(b))
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !got.Flags.TC {
		t.Fatal("TC flag not set on truncated response")
	}
	if len(got.Answers) >= 30 {
		t.Fatal("no records dropped")
	}
	// The original message must be untouched.
	if m.Flags.TC || len(m.Answers) != 30 {
		t.Fatal("PackUDP mutated its receiver")
	}
}

func TestPackUDPSmallMessagePassesThrough(t *testing.T) {
	m := NewQuery(9, MustName("foo.com"), TypeA)
	b, err := m.PackUDP(MaxUDPSize)
	if err != nil {
		t.Fatalf("PackUDP: %v", err)
	}
	got, _ := Unpack(b)
	if got.Flags.TC {
		t.Fatal("TC set on small message")
	}
}

func TestResponseSkeleton(t *testing.T) {
	q := NewQuery(42, MustName("foo.com"), TypeNS)
	r := q.Response()
	if r.ID != 42 || !r.Flags.QR || !r.Flags.RD || len(r.Questions) != 1 {
		t.Fatalf("bad response skeleton: %v", r)
	}
}

func TestUnknownTypeRoundTripsAsRaw(t *testing.T) {
	rr := RR{Name: MustName("x.y"), Type: Type(999), Class: ClassINET, TTL: 5, Data: &Raw{Data: []byte{9, 9, 9}}}
	m := &Message{ID: 3, Answers: []RR{rr}}
	b, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	got, err := Unpack(b)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	raw, ok := got.Answers[0].Data.(*Raw)
	if !ok || !reflect.DeepEqual(raw.Data, []byte{9, 9, 9}) {
		t.Fatalf("got %v", got.Answers[0])
	}
}

// randomName builds a valid random domain name from the rng.
func randomName(r *rand.Rand) Name {
	nlabels := 1 + r.Intn(4)
	labels := make([]string, nlabels)
	const alpha = "abcdefghijklmnopqrstuvwxyz0123456789-"
	for i := range labels {
		l := make([]byte, 1+r.Intn(12))
		for j := range l {
			l[j] = alpha[r.Intn(len(alpha)-1)] // avoid '-' heavy labels mattering
		}
		labels[i] = string(l)
	}
	return MustName(strings.Join(labels, "."))
}

func randomRR(r *rand.Rand) RR {
	name := randomName(r)
	ttl := r.Uint32() % 1000000
	switch r.Intn(7) {
	case 0:
		var a [4]byte
		r.Read(a[:])
		return NewRR(name, ttl, &AData{Addr: netip.AddrFrom4(a)})
	case 1:
		return NewRR(name, ttl, &NSData{Host: randomName(r)})
	case 2:
		return NewRR(name, ttl, &CNAMEData{Target: randomName(r)})
	case 3:
		return NewRR(name, ttl, &MXData{Pref: uint16(r.Intn(100)), Host: randomName(r)})
	case 4:
		n := 1 + r.Intn(3)
		strs := make([][]byte, n)
		for i := range strs {
			strs[i] = make([]byte, r.Intn(50))
			r.Read(strs[i])
		}
		return NewRR(name, ttl, &TXTData{Strings: strs})
	case 5:
		var a [16]byte
		r.Read(a[:])
		return NewRR(name, ttl, &AAAAData{Addr: netip.AddrFrom16(a)})
	default:
		return NewRR(name, ttl, &SOAData{
			MName: randomName(r), RName: randomName(r),
			Serial: r.Uint32(), Refresh: r.Uint32(), Retry: r.Uint32(),
			Expire: r.Uint32(), Minimum: r.Uint32(),
		})
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := &Message{
			ID:    uint16(r.Uint32()),
			Flags: Flags{QR: r.Intn(2) == 0, AA: r.Intn(2) == 0, TC: r.Intn(2) == 0, RD: r.Intn(2) == 0, RCode: RCode(r.Intn(6))},
		}
		for i := 0; i < r.Intn(3); i++ {
			m.Questions = append(m.Questions, Question{Name: randomName(r), Type: TypeA, Class: ClassINET})
		}
		for i := 0; i < r.Intn(5); i++ {
			m.Answers = append(m.Answers, randomRR(r))
		}
		for i := 0; i < r.Intn(3); i++ {
			m.Authority = append(m.Authority, randomRR(r))
		}
		for i := 0; i < r.Intn(3); i++ {
			m.Additional = append(m.Additional, randomRR(r))
		}
		b, err := m.Pack()
		if err != nil {
			t.Logf("Pack(%d): %v", seed, err)
			return false
		}
		got, err := Unpack(b)
		if err != nil {
			t.Logf("Unpack(%d): %v", seed, err)
			return false
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyUnpackNeverPanicsOnMutatedInput(t *testing.T) {
	base, _ := sampleMessage().Pack()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := append([]byte(nil), base...)
		for i := 0; i < 1+r.Intn(8); i++ {
			b[r.Intn(len(b))] ^= byte(1 << r.Intn(8))
		}
		// Must not panic; errors are fine.
		_, _ = Unpack(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameScanner(t *testing.T) {
	m1, _ := NewQuery(1, MustName("a.com"), TypeA).Pack()
	m2, _ := NewQuery(2, MustName("b.com"), TypeNS).Pack()
	var stream []byte
	var err error
	if stream, err = AppendTCPFrame(stream, m1); err != nil {
		t.Fatal(err)
	}
	if stream, err = AppendTCPFrame(stream, m2); err != nil {
		t.Fatal(err)
	}
	var sc FrameScanner
	// Feed byte by byte to exercise partial reads.
	var got [][]byte
	for _, by := range stream {
		sc.Add([]byte{by})
		for {
			msg, ok, err := sc.Next()
			if err != nil {
				t.Fatalf("Next: %v", err)
			}
			if !ok {
				break
			}
			got = append(got, msg)
		}
	}
	if len(got) != 2 {
		t.Fatalf("got %d messages, want 2", len(got))
	}
	d1, err := Unpack(got[0])
	if err != nil || d1.ID != 1 {
		t.Fatalf("first frame: %v %v", d1, err)
	}
	d2, err := Unpack(got[1])
	if err != nil || d2.ID != 2 {
		t.Fatalf("second frame: %v %v", d2, err)
	}
}

func TestFrameScannerRejectsRunt(t *testing.T) {
	var sc FrameScanner
	sc.Add([]byte{0, 3, 1, 2, 3})
	if _, _, err := sc.Next(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}
