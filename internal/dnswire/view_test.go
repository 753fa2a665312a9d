package dnswire

import (
	"bytes"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestViewAgreesWithUnpack checks the accept-subset contract: every message
// ParseView accepts with the fast-path shape (one question, nothing else,
// End at the datagram edge) must Unpack to the same ID, flags, and
// question.
func TestViewAgreesWithUnpack(t *testing.T) {
	cases := []*Message{
		NewQuery(0x1234, MustName("www.foo.com"), TypeA),
		NewQuery(0, MustName("pr0a1b2c3dwww.foo.com"), TypeNS),
		NewQuery(0xFFFF, Root, TypeANY),
		NewQuery(7, MustName("a.b.c.d.e.foo.com"), TypeTXT),
	}
	for _, m := range cases {
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		v, ok := ParseView(wire)
		if !ok {
			t.Fatalf("ParseView rejected %v", m.Questions[0])
		}
		ref, err := Unpack(wire)
		if err != nil {
			t.Fatal(err)
		}
		if v.ID() != ref.ID || unpackFlags(v.RawFlags()) != ref.Flags {
			t.Errorf("view header %d/%#x disagrees with Unpack %d/%+v", v.ID(), v.RawFlags(), ref.ID, ref.Flags)
		}
		if v.QDCount() != 1 || v.ANCount() != 0 || v.NSCount() != 0 || v.ARCount() != 0 {
			t.Errorf("view counts %d/%d/%d/%d, want 1/0/0/0", v.QDCount(), v.ANCount(), v.NSCount(), v.ARCount())
		}
		if v.End() != len(wire) {
			t.Errorf("End() = %d, want %d", v.End(), len(wire))
		}
		q, _, err := UnpackQuestion(v.QuestionWire())
		if err != nil || q != ref.Questions[0] {
			t.Errorf("view question %+v (%v) disagrees with Unpack %+v", q, err, ref.Questions[0])
		}
	}
}

// TestViewCasePreserved: the view hands out raw wire bytes; ASCII-lowercasing
// them must equal the canonical Name that Unpack produces.
func TestViewCasePreserved(t *testing.T) {
	wire, err := NewQuery(9, MustName("www.foo.com"), TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	// Uppercase the first qname label in place (offset 12 is the length 3,
	// 13..15 the label "www").
	copy(wire[13:16], "WWW")
	v, ok := ParseView(wire)
	if !ok {
		t.Fatal("ParseView rejected mixed-case name")
	}
	if got := string(v.FirstLabel()); got != "WWW" {
		t.Errorf("FirstLabel = %q, want raw wire bytes WWW", got)
	}
	if got := strings.ToLower(string(v.FirstLabel())); got != "www" {
		t.Errorf("folded first label = %q", got)
	}
	ref, err := Unpack(wire)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Questions[0].Name != MustName("www.foo.com") {
		t.Errorf("Unpack canonicalized to %v", ref.Questions[0].Name)
	}
}

// TestSameQuestion: two question spans are one question to SameQuestion
// exactly when UnpackQuestion makes one Question of both. The names differ in
// case, in a byte next to the letters ('@', '[', '`', '{') or at or above
// 0x80, in a length octet; type and class differ by a bit that would fold.
func TestSameQuestion(t *testing.T) {
	spans := [][]byte{
		[]byte("\x03www\x03foo\x03com\x00\x00\x01\x00\x01"),
		[]byte("\x03WwW\x03FOO\x03cOm\x00\x00\x01\x00\x01"),
		[]byte("\x03www\x03foo\x03com\x00\x00\x21\x00\x01"),
		[]byte("\x03www\x03foo\x03com\x00\x00\x01\x00\x21"),
		[]byte("\x03w@w\x03foo\x03com\x00\x00\x01\x00\x01"),
		[]byte("\x03w`w\x03foo\x03com\x00\x00\x01\x00\x01"),
		[]byte("\x03w[w\x03foo\x03com\x00\x00\x01\x00\x01"),
		[]byte("\x03w{w\x03foo\x03com\x00\x00\x01\x00\x01"),
		[]byte("\x03w\xc1w\x03foo\x03com\x00\x00\x01\x00\x01"),
		[]byte("\x03w\xe1w\x03foo\x03com\x00\x00\x01\x00\x01"),
		[]byte("\x07www#foo\x03com\x00\x00\x01\x00\x01"),
		[]byte("\x07www\x03foo\x03com\x00\x00\x01\x00\x01"),
	}
	for _, a := range spans {
		for _, b := range spans {
			qa, _, errA := UnpackQuestion(a)
			qb, _, errB := UnpackQuestion(b)
			if errA != nil || errB != nil {
				t.Fatalf("UnpackQuestion(%q): %v; (%q): %v", a, errA, b, errB)
			}
			if got, want := SameQuestion(a, b), qa == qb; got != want {
				t.Errorf("SameQuestion(%q, %q) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// TestViewRejects pins the not-viewable cases: each must fall back to the
// materializing path rather than mis-parse.
func TestViewRejects(t *testing.T) {
	base, err := NewQuery(1, MustName("www.foo.com"), TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), base...)
		return f(b)
	}
	cases := map[string][]byte{
		"short header":   base[:11],
		"qdcount zero":   mutate(func(b []byte) []byte { b[4], b[5] = 0, 0; return b }),
		"truncated name": base[:14],
		"truncated type": base[:len(base)-3],
		"compressed name": mutate(func(b []byte) []byte {
			// Replace the qname with a pointer to itself-ish; compression
			// is never viewable regardless of target.
			return append(b[:12], 0xC0, 0x0C, 0, 1, 0, 1)
		}),
		"dotted label": mutate(func(b []byte) []byte { b[13] = '.'; return b }),
	}
	for name, wire := range cases {
		if _, ok := ParseView(wire); ok {
			t.Errorf("%s: ParseView accepted", name)
		}
	}
	// A response with RRs is viewable (header + first question parse fine):
	// the caller's count checks are what gate the fast path.
	resp := NewQuery(2, MustName("www.foo.com"), TypeA).Response()
	resp.Answers = []RR{NewRR(MustName("www.foo.com"), 60, &AData{Addr: netip.MustParseAddr("10.0.0.1")})}
	wire, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	v, ok := ParseView(wire)
	if !ok {
		t.Fatal("ParseView rejected a response with answers")
	}
	if v.ANCount() != 1 || v.End() >= len(wire) {
		t.Errorf("ANCount=%d End=%d len=%d", v.ANCount(), v.End(), len(wire))
	}
}

// TestViewZeroAlloc pins the whole view path — parse plus every accessor —
// at zero allocations.
func TestViewZeroAlloc(t *testing.T) {
	wire, err := NewQuery(3, MustName("pr00aabbccwww.foo.com"), TypeNS).Pack()
	if err != nil {
		t.Fatal(err)
	}
	var sink uint64
	if n := testing.AllocsPerRun(200, func() {
		v, ok := ParseView(wire)
		if !ok {
			t.Fatal("rejected")
		}
		sink += uint64(v.ID()) + uint64(v.RawFlags()) + uint64(v.QDCount()) + uint64(v.End()) +
			uint64(len(v.FirstLabel())) + uint64(len(v.QuestionWire()))
	}); n != 0 {
		t.Errorf("ParseView+accessors allocate %.1f/op, want 0", n)
	}
	_ = sink
}

// TestUnpackQuestion round-trips a question span through the flat decoder.
func TestUnpackQuestion(t *testing.T) {
	m := NewQuery(4, MustName("sub.example.org"), TypeTXT)
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	v, ok := ParseView(wire)
	if !ok {
		t.Fatal("rejected")
	}
	span := append([]byte(nil), v.QuestionWire()...)
	span = append(span, 0xDE, 0xAD) // trailing bytes must be left alone
	q, n, err := UnpackQuestion(span)
	if err != nil {
		t.Fatal(err)
	}
	if q != m.Questions[0] {
		t.Errorf("UnpackQuestion = %+v, want %+v", q, m.Questions[0])
	}
	if n != len(span)-2 || !bytes.Equal(span[n:], []byte{0xDE, 0xAD}) {
		t.Errorf("consumed %d of %d bytes", n, len(span))
	}
	if _, _, err := UnpackQuestion(span[:3]); err == nil {
		t.Error("truncated question did not error")
	}
}

// FuzzViewAgreement cross-checks ParseView against Unpack on arbitrary
// bytes: whenever the view accepts a single-question message whose End is
// the buffer edge, Unpack must accept it too and agree on every field the
// view exposes.
func FuzzViewAgreement(f *testing.F) {
	seed, _ := NewQuery(0x55AA, MustName("www.foo.com"), TypeA).Pack()
	f.Add(seed)
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 'a', 0, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, b []byte) {
		v, ok := ParseView(b)
		if !ok {
			return
		}
		if v.QDCount() != 1 || v.ANCount() != 0 || v.NSCount() != 0 || v.ARCount() != 0 || v.End() != len(b) {
			return
		}
		m, err := Unpack(b)
		if err != nil {
			t.Fatalf("view accepted fast-path shape but Unpack rejects: %v", err)
		}
		if v.ID() != m.ID || unpackFlags(v.RawFlags()) != m.Flags {
			t.Fatalf("header disagreement: view %d/%#x unpack %d/%+v", v.ID(), v.RawFlags(), m.ID, m.Flags)
		}
		q, _, err := UnpackQuestion(v.QuestionWire())
		if err != nil || q != m.Questions[0] {
			t.Fatalf("question disagreement: view %+v (%v) unpack %+v", q, err, m.Questions[0])
		}
	})
}

// checkWalkAgreement is the walk's contract with Unpack on one input, both
// ways. If the walk vouches for b, Unpack accepts it, with the same section
// counts and, record by record, the same section, type, TTL, the owner's
// length written out — so the root where Unpack reads the root — and, for an
// A record, address. That the walk vouches at all says it ended where b does,
// which is where Unpack must. The extents tile b from the question on; and a
// record owned by the octet 00 of a type the codec does not interpret is,
// repacked alone, the bytes of its extent. If the walk refuses a message
// ParseView takes with one question, Unpack refuses it too: what the walk
// refuses is malformed.
func checkWalkAgreement(t *testing.T, b []byte) (walked bool) {
	t.Helper()
	v, ok := ParseView(b)
	if !ok {
		return false
	}
	var recs []Record
	walked = v.Records(func(r Record) { recs = append(recs, r) })
	m, err := Unpack(b)
	if !walked {
		if err == nil && v.QDCount() == 1 {
			t.Fatalf("the walk refuses a message of one question Unpack accepts\n%x", b)
		}
		return false
	}
	if err != nil {
		t.Fatalf("the walk vouches for a message Unpack rejects: %v\n%x", err, b)
	}
	sections := [][]RR{m.Answers, m.Authority, m.Additional}
	if len(m.Questions) != 1 || len(sections[0]) != int(v.ANCount()) ||
		len(sections[1]) != int(v.NSCount()) || len(sections[2]) != int(v.ARCount()) {
		t.Fatalf("section counts: view 1/%d/%d/%d, Unpack %d/%d/%d/%d", v.ANCount(), v.NSCount(), v.ARCount(),
			len(m.Questions), len(sections[0]), len(sections[1]), len(sections[2]))
	}
	i, at := 0, v.End()
	for sec, rrs := range sections {
		for _, rr := range rrs {
			r := recs[i]
			i++
			if r.Section != sec || r.Type != rr.Type || r.TTL != rr.TTL {
				t.Fatalf("record %d: walk %+v, Unpack section %d %v", i, r, sec, rr)
			}
			if r.Off != at || r.End != r.Off+len(r.Owner)+10+len(r.RData) || !bytes.Equal(b[r.Off:r.Off+len(r.Owner)], r.Owner) {
				t.Fatalf("record %d: extent %d..%d with a %d-byte owner and %d of rdata, after a record ending at %d", i, r.Off, r.End, len(r.Owner), len(r.RData), at)
			}
			at = r.End
			if r.OwnerLen != rr.Name.WireLen() {
				t.Fatalf("record %d: owner %x is %d octets written out, Unpack reads %q", i, r.Owner, r.OwnerLen, rr.Name)
			}
			if _, opaque := rr.Data.(*Raw); opaque && r.Owner[0] == 0 {
				alone, err := (&Message{Additional: []RR{rr}}).Pack()
				if err != nil || !bytes.Equal(alone[headerLen:], b[r.Off:r.End]) {
					t.Fatalf("record %d: %x as it lies, %x repacked (%v)", i, b[r.Off:r.End], alone, err)
				}
			}
			if a, ok := rr.Data.(*AData); ok && (len(r.RData) != 4 || a.Addr != netip.AddrFrom4([4]byte(r.RData))) {
				t.Fatalf("record %d: walk address %x, Unpack %v", i, r.RData, a.Addr)
			}
		}
	}
	if i != len(recs) || at != len(b) {
		t.Fatalf("the walk yielded %d records ending at %d of %d, Unpack %d", len(recs), at, len(b), i)
	}
	return true
}

// TestRecordWalk: the walk vouches for every capture of a well-formed
// message with one question — the shapes servers send — agrees with Unpack
// on each, allocates nothing, and refuses what its rules do not cover.
func TestRecordWalk(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.bin"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no captures: %v", err)
	}
	refused := map[string]bool{"referral_raw_rdlength_short.bin": true}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if got := checkWalkAgreement(t, b); got == refused[filepath.Base(p)] {
			t.Errorf("%s: walked = %v", p, got)
		}
		var ttls uint32
		if n := testing.AllocsPerRun(50, func() {
			if v, ok := ParseView(b); ok {
				v.Records(func(r Record) { ttls += r.TTL })
			}
		}); n != 0 {
			t.Errorf("%s: the walk allocates %.1f/op, want 0", p, n)
		}
	}

	ref, err := os.ReadFile(filepath.Join("testdata", "referral_bench_zone.bin"))
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), ref...)) }
	// The NS record is at 28, its rdlength at 38 and rdata at 40; the glue
	// record is at 45, its rdlength at 55 and address at 57.
	cases := map[string][]byte{
		"two questions":           mutate(func(b []byte) []byte { b[5] = 2; return b }),
		"trailing byte":           append(append([]byte(nil), ref...), 0),
		"last record cut short":   ref[:len(ref)-1],
		"arcount one over":        mutate(func(b []byte) []byte { b[11]++; return b }),
		"arcount one under":       mutate(func(b []byte) []byte { b[11]--; return b }),
		"ns rdlength one long":    mutate(func(b []byte) []byte { b[39]++; return b }),
		"a rdlength 5":            mutate(func(b []byte) []byte { b[56] = 5; return append(b, 0) }),
		"owner points forward":    mutate(func(b []byte) []byte { b[46] = 0x39; return b }),
		"owner points at itself":  mutate(func(b []byte) []byte { b[46] = 45; return b }),
		"dotted ns target":        mutate(func(b []byte) []byte { b[41] = '.'; return b }),
		"reserved label type":     mutate(func(b []byte) []byte { b[40] = 0x42; return b }),
		"txt string past rdata":   mutate(func(b []byte) []byte { b[47], b[48], b[57] = 0, byte(TypeTXT), 4; return b }),
		"soa without its numbers": mutate(func(b []byte) []byte { b[30], b[31] = 0, byte(TypeSOA); return b }),
	}
	for name, b := range cases {
		if checkWalkAgreement(t, b) {
			t.Errorf("%s: the walk vouches for it", name)
		}
	}
	// What the refusals above must not be mistaken for: shapes the walk does
	// cover. A TXT whose strings tile the rdata, a pointer into a header, and
	// a name octet that is no ASCII letter, which Unpack keeps as it is.
	for name, b := range map[string][]byte{
		"txt strings tile":    mutate(func(b []byte) []byte { b[47], b[48], b[57] = 0, byte(TypeTXT), 3; return b }),
		"owner in header":     mutate(func(b []byte) []byte { b[46] = 4; return b }),
		"non-ascii ns target": mutate(func(b []byte) []byte { b[41] = 0xE9; return b }),
	} {
		if !checkWalkAgreement(t, b) {
			t.Errorf("%s: the walk refuses it", name)
		}
	}
}

// FuzzWalkAgreement holds the record walk to its contract on arbitrary
// bytes: whatever it vouches for, Unpack accepts and reads the same, and
// whatever of one question it refuses, Unpack refuses.
func FuzzWalkAgreement(f *testing.F) {
	addWireSeeds(f, func(b []byte) { f.Add(b) })
	f.Fuzz(func(t *testing.T, b []byte) { checkWalkAgreement(t, b) })
}
