package guard

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dnsguard/internal/dnswire"
)

// answerFor is message 5 for name: an A record per TTL given, as an ANS
// packs it, and the question the guard asked.
func answerFor(t testing.TB, name string, ttls ...uint32) (dnswire.View, []byte) {
	t.Helper()
	m := dnswire.NewQuery(1, dnswire.MustName(name), dnswire.TypeA).Response()
	for i, ttl := range ttls {
		m.Answers = append(m.Answers, dnswire.NewRR(m.Questions[0].Name, ttl, &dnswire.AData{Addr: mustAddr(fmt.Sprintf("198.51.100.%d", i+1))}))
	}
	v, ok := dnswire.ParseView(mustPack(t, m))
	if !ok {
		t.Fatal("message 5 not viewable")
	}
	return v, v.QuestionWire()
}

// TestAnswerTableRules: the table keeps resolver.Cache's rules on wire. No
// entry when a TTL, capped, is 0; a hit is the answers under the query's
// header and question, each TTL capped and aged by whole seconds, until the
// least of them runs out; a full table drops the expired entries, or else
// the one soonest to expire.
func TestAnswerTableRules(t *testing.T) {
	tab := newAnswerTable(10 * time.Second)
	const at = 100 * time.Second
	v, q := answerFor(t, "zero.foo.com", 300, 0)
	tab.put(at, q, v)
	if _, ok := tab.reply(nil, at, q, 7, 0x8400); ok {
		t.Error("an answer with a TTL of 0 was kept")
	}

	v, q = answerFor(t, "www.foo.com", 300, 5)
	tab.put(at, q, v)
	asked := append([]byte(nil), q...)
	copy(asked[1:], "WWW") // the query's case is its own, the key's folded
	wire, ok := tab.reply([]byte("slab"), at+3500*time.Millisecond, asked, 0x1234, 0x8500)
	if !ok {
		t.Fatal("no hit within the least TTL")
	}
	m, err := dnswire.Unpack(wire[4:])
	if err != nil || string(wire[:4]) != "slab" {
		t.Fatalf("the reply is not appended to dst as a message: %v %q", err, wire)
	}
	if m.ID != 0x1234 || !m.Flags.QR || !m.Flags.AA || !m.Flags.RD || m.Flags.TC || len(m.Answers) != 2 ||
		m.Answers[0].TTL != 7 || m.Answers[1].TTL != 2 || m.Questions[0].Name != "www.foo.com" {
		t.Errorf("message 7 from the table: %v", m)
	}
	if _, ok := tab.reply(nil, at+5*time.Second, q, 1, 0x8400); ok {
		t.Error("a hit after the least TTL ran out")
	}
	if len(tab.entries) != 0 {
		t.Errorf("the expired entry stayed: %d entries", len(tab.entries))
	}

	// Full: the first entry lives a second, the others 2 to 9.
	for i := 0; i < answerEntries; i++ {
		v, q := answerFor(t, fmt.Sprintf("n%d.foo.com", i), uint32(1+min(i, 1)+i%8))
		tab.put(at, q, v)
	}
	first := "\x02n0\x03foo\x03com\x00\x00\x01"
	v, q = answerFor(t, "new.foo.com", 9)
	tab.put(at, q, v)
	if len(tab.entries) != answerEntries || tab.entries[first] != nil {
		t.Errorf("full with none expired: %d entries, the soonest to expire kept: %v", len(tab.entries), tab.entries[first] != nil)
	}
	const later = at + 3*time.Second
	expired := 0
	for _, e := range tab.entries {
		if later >= e.expires {
			expired++
		}
	}
	v, q = answerFor(t, "later.foo.com", 9)
	tab.put(later, q, v)
	if want := answerEntries - expired + 1; expired == 0 || len(tab.entries) != want {
		t.Errorf("full with %d expired: %d entries, want %d", expired, len(tab.entries), want)
	}
}

// TestAnswerTableShared: message 6 fills the table on one shard's upstream
// loop while message 7 reads it on another's worker; run it under -race.
func TestAnswerTableShared(t *testing.T) {
	tab := newAnswerTable(10 * time.Second)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		v, q := answerFor(t, fmt.Sprintf("w%d.foo.com", w%2), 60, 30)
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]byte, 0, dnswire.MaxUDPSize)
			for i := 0; i < 500; i++ {
				tab.put(time.Duration(i)*time.Millisecond, q, v)
				if out, ok := tab.reply(dst[:0], time.Duration(i)*time.Millisecond, q, 1, 0x8400); ok {
					if _, err := dnswire.Unpack(out); err != nil {
						t.Errorf("a reply that does not parse: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
