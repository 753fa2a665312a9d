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
	// The longest name, and a name of it and target, which the table held
	// whole when it had 128 entries and 129 did not fit.
	many := func(target string) []byte {
		return rawMessage(0x8000, longName, 1, 0, 0, rawRR("\xc0\x0c", TypeCNAME, target))
	}
	// The longest name twice over, and target: 254 labels and target's. Past
	// 256 the table is full, where at 512 the second name is already cut.
	manyMore := func(target string) []byte {
		return rawMessage(0x8000, longName, 2, 0, 0, rawRR("\xc0\x0c", TypeCNAME, strings.Repeat("\x01d", 127)+"\x00"), rawRR("\xc0\x0c", TypeCNAME, target))
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
	// Four names of 97 labels that differ in the last: of every length of
	// names alike but for it, the one whose lookups cost the most before 512
	// octets are written.
	longLength := func(i int) string {
		return strings.ToUpper(strings.Repeat("\x01a", 96) + "\x01" + string(rune('b'+i)) + "\x00")
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
		"packs into 513":            {pad(455), true},
		"ipv4-mapped aaaa":          {rawMessage(0x8000, q, 1, 0, 0, rawRR("\xc0\x0c", TypeAAAA, "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xc6\x33\x64\x07")), true},
		"128 labels written out":    {many("\x01x\x00"), true},
		"129 labels written out":    {many("\x01x\x01y\x00"), true},
		"256 labels written out":    {manyMore("\x01x\x01y\x00"), true},
		"257 labels written out":    {manyMore("\x01x\x01y\x01z\x00"), true},
		"two questions":             {twoQuestions, false},
		"a trailing octet":          {append(rawMessage(0x8000, q, 0, 0, 0), 0), false},
		// 3981 octets, every one of the records' a name's: fourteen times the
		// longest name there is, spelled out, where Pack writes a pointer.
		"pathological": {rawMessage(0x8000, longName, 14, 0, 0, pathological...), true},
		// It matches the first entry every time. These two search the table.
		"table scan":          {rawMessage(0x8000, longName, 20, 0, 0, suffixes...), true},
		"names of one length": {rawMessage(0x8000, oneLength(0), 16, 0, 0, sameLength...), true},
		"long names of one length": {rawMessage(0x8000, longLength(0), 3, 0, 0,
			rawRR(longLength(1), 99, ""), rawRR(longLength(2), 99, ""), rawRR(longLength(3), 99, "")), true},
		// The longest name, then 127 labels none of its suffixes matches: every
		// lookup looks at every entry, and the table grows to 246.
		"a full table scanned": {rawMessage(0x8000, longName, 1, 0, 0, rawRR(strings.Repeat("\x01c", 127)+"\x00", 99, "")), true},
	}
}

// checkRepackAgreement holds Repack to its one statement on b: it takes what
// the walk vouches for and nothing else, and what it writes at a limit is
// what Unpack → PackUDP write at that limit — the whole message, or one cut
// short with TC set — behind whatever dst held, writing nothing past the
// limit. It may refuse where PackUDP does, the question alone over the limit,
// and over 512 octets where its table of names fills; at 512 it may not. It
// returns what Repack reports at a limit of 512.
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
		if len(out) > 3+limit || buf[3+limit] != guard || !bytes.Equal(buf[:3], []byte{guard, guard, guard}) {
			t.Fatalf("Repack with limit %d wrote %d octets, or outside them\n%.256x", limit, len(out)-3, b)
		}
		dirty = 3 + limit // a record cut short was written up to the limit

		return out[3:], ok
	}
	walked := v.Records(func(Record) {})
	m, err := Unpack(b)
	if walked && err != nil {
		t.Fatalf("the walk vouches for a message Unpack rejects: %v\n%.256x", err, b)
	}
	limits := []int{MaxMessageSize, MaxUDPSize}
	if walked {
		if whole, err := m.Pack(); err == nil {
			limits = append(limits, len(whole), len(whole)-1, len(whole)-len(whole)/3, 12+len(v.QuestionWire()))
		}
	}
	for _, limit := range limits {
		got, ok := repack(limit)
		if !walked {
			if ok {
				t.Fatalf("Repack takes at %d octets a message the walk refuses\n%.256x", limit, b)
			}
			continue
		}
		want, err := m.PackUDP(limit)
		switch {
		case ok && err != nil:
			t.Fatalf("Repack writes in %d octets what PackUDP refuses (%v):\nrepack %.256x\nof     %.256x", limit, err, got, b)
		case ok && !bytes.Equal(got, want):
			t.Fatalf("Repack and Unpack → PackUDP disagree at %d octets:\nrepack  %.256x\npackudp %.256x\nof      %.256x", limit, got, want, b)
		case !ok && err == nil && limit <= MaxUDPSize:
			t.Fatalf("Repack refuses at %d octets what PackUDP writes:\npackudp %.256x\nof      %.256x", limit, want, b)
		}
	}
	return walked
}

// TestRepack: the hand-built cases are taken or refused as listed and agree
// with the codec at every limit tried; so does every seed of the fuzz corpus;
// and none allocates, taken or refused, given room for the limit.
func TestRepack(t *testing.T) {
	for name, c := range repackCases() {
		if got := checkRepackAgreement(t, c.wire); got != c.ok {
			t.Errorf("%s: Repack ok = %v, want %v", name, got, c.ok)
		}
	}
	// Past 512 octets the table of names can fill, and then Repack refuses.
	for name, ok := range map[string]bool{"256 labels written out": true, "257 labels written out": false} {
		v, _ := ParseView(repackCases()[name].wire)
		if _, got := v.Repack(nil, MaxMessageSize); got != ok {
			t.Errorf("%s: Repack ok = %v at %d octets, want %v", name, got, MaxMessageSize, ok)
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
// the encoder counts — is bounded by its output, not by what it is sent: 96
// per octet of the limit. The first capture finds every name at the table's
// first entry (9 793), the second behind 63 to 82 entries that its length
// rules out (10 561), the third behind six of its own length that differ in
// the last label (13 816). The table holds every label start 512 octets can
// hold, up to 250, so the last two grow it that far: the fourth looks at every
// entry for each label it writes (30 749), and the fifth, of names of 97
// labels that differ in the last, is the worst of every such length (41 310).
// Lookups are at most 250, each looks at no more entries than it follows,
// and compares only those of its own length: the bound holds with room. Without
// the lengths — every entry written before the name compared, which is as
// correct — the second and third cost 42 195 and 62 623 in a table of 128,
// six times the codec by the clock: the bound is what the second table buys.
func TestRepackWorstCase(t *testing.T) {
	for _, name := range []string{"pathological", "table scan", "names of one length", "a full table scanned", "long names of one length"} {
		b := repackCases()[name].wire
		v, _ := ParseView(b)
		p := v.repack(make([]byte, 0, MaxUDPSize), v.ID(), v.RawFlags(), v.QuestionWire(), nil, MaxUDPSize)
		if !p.ok {
			t.Fatalf("%s: refused", name)
		}
		t.Logf("%s, %d octets in, %d out: %d looked at or compared", name, len(b), len(p.dst), p.work)
		if p.work > 96*MaxUDPSize {
			t.Errorf("%s: Repack looks at or compares %d entries and octets, want <= %d", name, p.work, 96*MaxUDPSize)
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
