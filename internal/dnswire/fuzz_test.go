package dnswire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// addWireSeeds feeds every wire capture under testdata/ to add — a fuzzer's
// f.Add — so mutation starts from realistic message shapes (queries, CNAME
// chains, referrals with glue, TXT cookies, negative responses) rather than
// random bytes. Regenerate the captures with `go run internal/dnswire/testdata/gen.go`.
func addWireSeeds(f testing.TB, add func([]byte)) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.bin"))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no wire-capture seeds under testdata/; run go run internal/dnswire/testdata/gen.go")
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		add(b)
	}
	// Every datagram the guard's shape table feeds its pipeline, in hex, one
	// per line (internal/guard's TestPipelineShapes keeps the file current).
	shapes, err := os.ReadFile(filepath.Join("testdata", "guard_shapes.hex"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Fields(shapes) {
		b, err := hex.DecodeString(string(line))
		if err != nil {
			f.Fatal(err)
		}
		add(b)
	}
}

// decodeErrClassifiable reports whether err belongs to the documented decode
// error family. Unpack promises hostile input is rejected with an error that
// is classifiable by a single errors.Is check against these sentinels.
func decodeErrClassifiable(err error) bool {
	return errors.Is(err, ErrMalformed) ||
		errors.Is(err, ErrPointerLoop) ||
		errors.Is(err, ErrForwardPointer) ||
		errors.Is(err, ErrNameTooLong) ||
		errors.Is(err, ErrMessageTooLarge)
}

// FuzzDecode throws arbitrary bytes at Unpack and checks the decoder's safety
// contract: no panic, every failure wraps a documented sentinel error, and
// any message that decodes successfully survives a Pack/Unpack round trip
// with its header and section structure intact.
func FuzzDecode(f *testing.F) {
	addWireSeeds(f, func(b []byte) { f.Add(b) })
	// A few adversarial shapes the captures don't cover: empty input, bare
	// header, self-pointing compression, pointer chain, reserved label type.
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x0C, 0, 1, 0, 1})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 0x00, 0, 1, 0, 1})
	f.Add([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x80, 0x01, 0, 1, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			if !decodeErrClassifiable(err) {
				t.Fatalf("Unpack error outside the documented family: %v", err)
			}
			return
		}
		// Accepted input must re-encode. Names decoded from the wire can
		// only shrink label-wise, so Pack may fail solely on the size cap —
		// and a decoded message is never larger than its wire form.
		wire, err := m.Pack()
		if err != nil {
			t.Fatalf("Pack failed on a message Unpack accepted: %v", err)
		}
		m2, err := Unpack(wire)
		if err != nil {
			t.Fatalf("re-Unpack of packed message failed: %v\nwire: %x", err, wire)
		}
		if m2.ID != m.ID || m2.Flags != m.Flags {
			t.Fatalf("header changed across round trip: %+v vs %+v", m2, m)
		}
		if len(m2.Questions) != len(m.Questions) || len(m2.Answers) != len(m.Answers) ||
			len(m2.Authority) != len(m.Authority) || len(m2.Additional) != len(m.Additional) {
			t.Fatalf("section counts changed across round trip: %+v vs %+v", m2, m)
		}
		// Canonical fixed point: packing the re-decoded message must be
		// byte-identical — our encoder's output is stable under re-encode.
		wire2, err := m2.Pack()
		if err != nil {
			t.Fatalf("second Pack failed: %v", err)
		}
		if !bytes.Equal(wire, wire2) {
			t.Fatalf("encoding not a fixed point:\n first: %x\nsecond: %x", wire, wire2)
		}
	})
}

// FuzzNameRoundTrip checks that any string ParseName accepts survives a full
// encode/decode cycle unchanged: the canonical Name packs into a question and
// unpacks back to the identical Name (ParseName already lowercased it, and
// the wire decoder lowercases too, so canonicalization is a fixed point).
func FuzzNameRoundTrip(f *testing.F) {
	for _, s := range []string{
		"", ".", "com", "www.foo.com", "WWW.FOO.COM", "a.b.c.d.e.f.g",
		"xn--nxasmq6b.example", "_cookie.foo.com", "ns1.foo.com.",
		"123.456.789.com", "with-dash.and_underscore.example",
	} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, s string) {
		n, err := ParseName(s)
		if err != nil {
			// Rejection is fine; the error just has to be a documented one.
			if !errors.Is(err, ErrNameTooLong) && !errors.Is(err, ErrLabelTooLong) &&
				!errors.Is(err, ErrEmptyLabel) {
				t.Fatalf("ParseName(%q) error outside the documented family: %v", s, err)
			}
			return
		}
		if n.WireLen() > MaxNameWireLen {
			t.Fatalf("ParseName(%q) accepted a name with wire length %d", s, n.WireLen())
		}
		// Canonicalization must be idempotent.
		again, err := ParseName(string(n))
		if err != nil {
			t.Fatalf("ParseName not idempotent: re-parse of %q failed: %v", n, err)
		}
		if again != n {
			t.Fatalf("ParseName not idempotent: %q -> %q -> %q", s, n, again)
		}
		// Wire round trip through a real message.
		wire, err := NewQuery(0x7357, n, TypeA).Pack()
		if err != nil {
			t.Fatalf("Pack of query for %q failed: %v", n, err)
		}
		m, err := Unpack(wire)
		if err != nil {
			t.Fatalf("Unpack of query for %q failed: %v", n, err)
		}
		if len(m.Questions) != 1 || m.Questions[0].Name != n {
			t.Fatalf("name changed across wire round trip: %q -> %v", n, m.Questions)
		}
	})
}
