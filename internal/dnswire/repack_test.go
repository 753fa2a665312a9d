package dnswire

import (
	"bytes"
	"strings"
	"testing"
)

// rawRR is one record as bytes, owner and rdata written as given, class IN.
func rawRR(owner string, t Type, rdata string) string {
	return owner + string([]byte{byte(t >> 8), byte(t), 0, 1, 0, 0, 0x0e, 0x10, byte(len(rdata) >> 8), byte(len(rdata))}) + rdata
}

// rawMessage is a response with one question, name as given, and the records
// counted per section as an, ns and ar say.
func rawMessage(flags uint16, qname string, an, ns, ar int, records ...string) []byte {
	b := []byte{0xAB, 0xCD, byte(flags >> 8), byte(flags), 0, 1, 0, byte(an), 0, byte(ns), 0, byte(ar)}
	b = append(append(b, qname...), 0, 1, 0, 1)
	return append(b, strings.Join(records, "")...)
}

// longName is a name of 127 one-octet labels, 255 octets on the wire, in
// mixed case: the most labels a name can have.
var longName = strings.Repeat("\x01a\x01B", 63) + "\x01c\x00"

// repackCases are messages that are not how Pack writes them, each with
// whether Repack is to take it at a limit of 512. The question www.foo.com puts foo.com at 16,
// com at 20, the name's end at 24 and the first record at 29.
func repackCases() map[string]struct {
	wire []byte
	ok   bool
} {
	const q = "\x03www\x03foo\x03com\x00"
	pad := func(n int) []byte {
		// 29 octets of message, 36 of NS record that pack into 18, 11 of
		// opaque record: n of rdata make 58+n packed.
		return rawMessage(0x8000, q, 0, 1, 1, rawRR(q, TypeNS, "\x03ns1\x03foo\x03com\x00"), rawRR("\x00", 99, strings.Repeat("p", n)))
	}
	// The longest name fills the table to one short of full.
	many := func(target string) []byte {
		return rawMessage(0x8000, longName, 1, 0, 0, rawRR("\xc0\x0c", TypeCNAME, target))
	}
	twoQuestions := append(rawMessage(0x8000, q, 0, 0, 0), "\xc0\x0c\x00\x01\x00\x01"...)
	twoQuestions[5] = 2
	pathological := make([]string, 14)
	for i := range pathological {
		pathological[i] = rawRR(strings.ToUpper(longName), 99, "")
	}
	// Twenty suffixes of the question's 127 labels, of 64 labels down to 45:
	// each is the 64th entry of the table or a later one.
	suffixes := make([]string, 20)
	for i := range suffixes {
		suffixes[i] = rawRR(strings.ToUpper(longName[2*(63+i):]), 99, "")
	}
	// Seven names of 18 labels that differ in the last fill the table, but for
	// two entries, with seven of each length; ten more records are the seventh's.
	oneLength := func(i int) string { return strings.Repeat("\x01a", 17) + "\x01" + string(rune('b'+i)) + "\x00" }
	sameLength := make([]string, 16)
	for i := range sameLength {
		sameLength[i] = rawRR(strings.ToUpper(oneLength(min(i+1, 6))), 99, "")
	}
	return map[string]struct {
		wire []byte
		ok   bool
	}{
		"repeated names uncompressed": {rawMessage(0x8000, q, 0, 2, 2,
			rawRR(q, TypeNS, "\x03ns1\x03foo\x03com\x00"), rawRR(q, TypeNS, "\x03ns2\x03foo\x03com\x00"),
			rawRR("\x03ns1\x03foo\x03com\x00", TypeA, "\xc6\x33\x64\x07"), rawRR("\x03ns2\x03foo\x03com\x00", TypeAAAA, "\x20\x01\x0d\xb8\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x08")), true},
		// The owner at 29 spells www.foo.com again (foo.com at 33); ns1 at 52
		// points at that second foo.com, with the pointer itself at 56; the
		// second record points at the second www.foo.com and, from ns2 at 70,
		// at the pointer at 56.
		"pointers at second occurrences and at pointers": {rawMessage(0x8000, q, 0, 2, 2,
			rawRR(q, TypeNS, "\x03ns1\xc0\x21"), rawRR("\xc0\x1d", TypeNS, "\x03ns2\xc0\x38"),
			rawRR("\xc0\x34", TypeA, "\xc6\x33\x64\x07"), rawRR("\xc0\x46", TypeA, "\xc6\x33\x64\x08")), true},
		"mixed case": {rawMessage(0x8470, "\x03WwW\x03fOO\x03com\x00", 0, 1, 1,
			rawRR("\x03www\x03FOO\xc0\x14", TypeNS, "\x03NS1\x03Foo\x03COM\x00"), rawRR("\x03ns1\x03foo\x03CoM\x00", TypeA, "\xc6\x33\x64\x07")), true},
		// mail at 43 is the MX target and owns the TXT; the letters in TXT,
		// OPT and type-99 rdata are not a name's and keep their case.
		"soa, mx, cname, txt, ptr, opt, unknown": {rawMessage(0x8403, q, 3, 1, 3,
			rawRR("\xc0\x0c", TypeMX, "\x00\x0a\x04MAIL\xc0\x10"),
			rawRR("\xc0\x2b", TypeTXT, "\x05Hello\x00\x03FOO"),
			rawRR("\x04MAIL\x03foo\x03com\x00", TypeCNAME, "\x03WWW\xc0\x10"),
			rawRR("\x03FOO\x03com\x00", TypeSOA, "\x03ns1\x03foo\x03COM\x00\x04HOST\xc0\x10\x00\x00\x00\x07\x00\x00\x0e\x10\x00\x00\x02\x58\x00\x01\x51\x80\x00\x00\x00\x3c"),
			rawRR("\x01A\x03foo\x03com\x00", TypePTR, "\x03WWW\xc0\x10"),
			rawRR("\x03FOO\xc0\x14", TypeOPT, "\x00\x0a\x00\x04ABCD"),
			rawRR("\x00", 99, "\x03WWW\xc0\x10")), true},
		"a name under the root, then the root": {rawMessage(0x8000, "\x00", 1, 0, 1,
			rawRR("\x03COM\x00", TypeNS, "\x00"), rawRR("\xc0\x0c", TypeNS, "\x01a\xc0\x11")), true},
		"a pointer into the header": {rawMessage(0x8000, q, 1, 0, 0, rawRR("\xc0\x04", TypeA, "\xc6\x33\x64\x07")), true},
		"packs into 512":            {pad(454), true},
		"packs into 513":            {pad(455), false},
		"ipv4-mapped aaaa":          {rawMessage(0x8000, q, 1, 0, 0, rawRR("\xc0\x0c", TypeAAAA, "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xc6\x33\x64\x07")), true},
		"128 labels written out":    {many("\x01x\x00"), true},
		"129 labels written out":    {many("\x01x\x01y\x00"), false},
		"two questions":             {twoQuestions, false},
		"a trailing octet":          {append(rawMessage(0x8000, q, 0, 0, 0), 0), false},
		// 3981 octets, every one of the records' a name's: fourteen times the
		// longest name there is, spelled out, where Pack writes a pointer.
		"pathological": {rawMessage(0x8000, longName, 14, 0, 0, pathological...), true},
		// It matches the first entry every time. These two search the table.
		"table scan":          {rawMessage(0x8000, longName, 20, 0, 0, suffixes...), true},
		"names of one length": {rawMessage(0x8000, oneLength(0), 16, 0, 0, sameLength...), true},
	}
}

// checkRepackAgreement holds Repack to its one statement on b: where it
// reports ok, Unpack accepts b and Pack writes those octets — PackUDP(512)
// too, when they fit — behind whatever dst held; ok at a limit is ok at the
// result's own length and not one under; and nothing is written past a limit.
// It returns what Repack reports at a limit of 512.
func checkRepackAgreement(t *testing.T, b []byte) (ok bool) {
	t.Helper()
	v, viewable := ParseView(b)
	if !viewable {
		return false
	}
	const guard = 0xA5
	buf, dirty := bytes.Repeat([]byte{guard}, 3+MaxMessageSize+1), 3
	repack := func(limit int) ([]byte, bool) {
		for i := 3; i < dirty; i++ {
			buf[i] = guard
		}
		out, ok := v.Repack(buf[:3], limit)
		if dirty = len(out); dirty > 3+limit || buf[3+limit] != guard || !bytes.Equal(buf[:3], []byte{guard, guard, guard}) {
			t.Fatalf("Repack with limit %d wrote %d octets, or outside them\n%.256x", limit, dirty-3, b)
		}
		return out[3:], ok
	}
	got, ok := repack(MaxMessageSize)
	got = append([]byte(nil), got...)
	m, err := Unpack(b)
	if !ok {
		if _, ok := repack(MaxUDPSize); ok {
			t.Fatalf("Repack refuses at 65535 octets and not at 512\n%.256x", b)
		}
		return false
	}
	if err != nil {
		t.Fatalf("Repack takes a message Unpack rejects: %v\n%.256x", err, b)
	}
	want, err := m.Pack()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Repack and Unpack → Pack disagree (%v):\nrepack %.256x\npack   %.256x\nof     %.256x", err, got, want, b)
	}
	if at, ok := repack(len(want)); !ok || !bytes.Equal(at, want) {
		t.Fatalf("Repack refuses its own %d octets as the limit\n%.256x", len(want), b)
	}
	if _, ok := repack(len(want) - 1); ok {
		t.Fatalf("Repack fits %d octets in %d\n%.256x", len(want), len(want)-1, b)
	}
	if len(want) <= MaxUDPSize {
		if udp, err := m.PackUDP(MaxUDPSize); err != nil || !bytes.Equal(udp, want) {
			t.Fatalf("PackUDP(512) of %d octets: %.256x (%v)", len(want), udp, err)
		}
	}
	return len(want) <= MaxUDPSize
}

// TestRepack: the hand-built cases are taken or refused as listed and agree
// with the codec; so does every seed of the fuzz corpus; and none allocates,
// taken or refused, given room for the limit.
func TestRepack(t *testing.T) {
	for name, c := range repackCases() {
		if got := checkRepackAgreement(t, c.wire); got != c.ok {
			t.Errorf("%s: Repack ok = %v, want %v", name, got, c.ok)
		}
	}
	dst := make([]byte, 0, MaxUDPSize)
	taken := 0
	var seeds [][]byte
	addRepackSeeds(t, func(b []byte) { seeds = append(seeds, b) })
	for _, b := range seeds {
		if checkRepackAgreement(t, b) {
			taken++
		}
		v, ok := ParseView(b)
		if n := testing.AllocsPerRun(20, func() {
			if ok {
				v.Repack(dst, MaxUDPSize)
			}
		}); n != 0 {
			t.Errorf("Repack allocates %.1f/op, want 0, on %.64x", n, b)
		}
	}
	if taken < len(seeds)/2 {
		t.Errorf("Repack takes %d of %d seeds", taken, len(seeds))
	}
}

// TestRepackWorstCase: on captures that are all names, each walked, folded and
// looked up whole, what Repack does beyond one pass over its input — table
// entries looked at and octets compared against names already written, which
// the encoder counts — is bounded by its output, not by what it is sent: 32
// per octet of the limit. The first capture finds every name at the table's
// first entry (9 793), the second behind 63 to 82 entries that its length
// rules out (10 561), the third behind six of its own length that differ in
// the last label, the worst a lookup by length can be made to do (13 816).
// Without the lengths — every entry written before the name compared, which
// is as correct — the last two cost 42 195 and 62 623, six times the codec by
// the clock: the bound is what the second table buys.
func TestRepackWorstCase(t *testing.T) {
	for _, name := range []string{"pathological", "table scan", "names of one length"} {
		b := repackCases()[name].wire
		v, _ := ParseView(b)
		p := v.repack(make([]byte, 0, MaxUDPSize), MaxUDPSize)
		if !p.ok {
			t.Fatalf("%s: refused", name)
		}
		t.Logf("%s, %d octets in, %d out: %d looked at or compared", name, len(b), len(p.dst), p.work)
		if p.work > 32*MaxUDPSize {
			t.Errorf("%s: Repack looks at or compares %d entries and octets, want <= %d", name, p.work, 32*MaxUDPSize)
		}
	}
}

// addRepackSeeds adds every capture and guard shape, and the hand-built cases.
func addRepackSeeds(tb testing.TB, add func([]byte)) {
	addWireSeeds(tb, add)
	for _, c := range repackCases() {
		add(c.wire)
	}
}

// FuzzRepackAgreement holds Repack to checkRepackAgreement on arbitrary bytes.
func FuzzRepackAgreement(f *testing.F) {
	addRepackSeeds(f, func(b []byte) { f.Add(b) })
	f.Fuzz(func(t *testing.T, b []byte) { checkRepackAgreement(t, b) })
}
