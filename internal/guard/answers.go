package guard

// The answer table: message 5's answers, kept for message 7 (§III-B.2). A
// requester that was handed an IP cookie in message 6 asks the cookie
// address the question it asked; while the ANS's answer to it is fresh, the
// guard answers from here instead of asking again. Entries are wire: each is
// the answer section as a message of its own, written by the re-encoder into
// a buffer the entry owns, and a hit is that message re-encoded under the
// query's header and question. The table is guard-wide, under one mutex:
// message 6 is written on one shard's upstream loop and message 7 may reach
// another shard.

import (
	"sync"
	"time"

	"dnsguard/internal/dnswire"
)

// answerEntries bounds the table, as it bounded the codec-built cache it
// replaces.
const answerEntries = 4096

type answerTable struct {
	mu      sync.Mutex
	cap     uint32                  // seconds: no TTL is served above it, and 0 keeps nothing
	entries map[string]*answerEntry // by name, folded, and type, as a question carries them
	key     []byte                  // scratch for the key being looked up
}

type answerEntry struct {
	key             string
	wire            []byte // the answers, TTLs as the ANS sent them, under the question it answered, 512 octets at most
	stored, expires time.Duration
}

func newAnswerTable(ttl time.Duration) *answerTable {
	return &answerTable{cap: uint32(max(ttl, 0) / time.Second), entries: make(map[string]*answerEntry)}
}

// put keeps v's answer section, message 5's, for q, the question the guard
// asked it. An answer whose least TTL, capped, is 0 is not kept; a kept one
// expires when that TTL runs out. A full table first drops what has expired,
// or else the entry soonest to expire. Past 512 octets the answers are cut
// as PackUDP cuts them, TC set: a reply from the entry is cut there anyway.
func (t *answerTable) put(now time.Duration, q []byte, v dnswire.View) {
	least := t.cap
	v.Records(func(r dnswire.Record) {
		if r.Section == dnswire.SectionAnswer {
			least = min(least, r.TTL)
		}
	})
	if least == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.key = appendFolded(t.key[:0], q[:len(q)-2])
	e := t.entries[string(t.key)]
	if e == nil {
		if len(t.entries) >= answerEntries {
			t.evict(now)
		}
		e = &answerEntry{key: string(t.key)}
		t.entries[e.key] = e
	}
	e.wire, _ = v.RepackAs(e.wire[:0], 0, 0, q, func(r dnswire.Record) bool {
		return r.Section == dnswire.SectionAnswer
	}, dnswire.MaxUDPSize)
	e.stored, e.expires = now, now+time.Duration(least)*time.Second
}

// evict makes room: every expired entry goes, or if none has, the one
// soonest to expire.
func (t *answerTable) evict(now time.Duration) {
	var soonest *answerEntry
	for k, e := range t.entries {
		if now >= e.expires {
			delete(t.entries, k)
		} else if soonest == nil || e.expires < soonest.expires {
			soonest = e
		}
	}
	if len(t.entries) >= answerEntries {
		delete(t.entries, soonest.key)
	}
}

// reply appends to dst message 7's answer from the entry for q, the question
// as the query asked it, and reports whether there was a fresh one: what
// PackUDP writes for the query's ID and flags word, q with its name folded,
// and the kept answers, each TTL capped and aged by the whole seconds the
// entry has been kept. An entry that has expired goes.
func (t *answerTable) reply(dst []byte, now time.Duration, q []byte, id, flags uint16) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.key = appendFolded(t.key[:0], q[:len(q)-2])
	e := t.entries[string(t.key)]
	if e == nil || now >= e.expires {
		if e != nil {
			delete(t.entries, e.key)
		}
		return dst, false
	}
	// The entry is a message the walk vouches for, under a question of q's
	// length: re-encoded at 512 octets it cannot be refused, and where it was
	// cut the reply is cut too.
	v, _ := dnswire.ParseView(e.wire)
	start := len(dst)
	dst, _ = v.RepackAs(dst, id, flags|uint16(e.wire[2]&2)<<8, q, nil, dnswire.MaxUDPSize)
	elapsed := uint32((now - e.stored) / time.Second)
	msg := dst[start:]
	v, _ = dnswire.ParseView(msg)
	v.Records(func(r dnswire.Record) {
		ttl := min(r.TTL, t.cap)
		ttl -= min(ttl, elapsed)
		at := r.Off + len(r.Owner) + 4
		msg[at], msg[at+1], msg[at+2], msg[at+3] = byte(ttl>>24), byte(ttl>>16), byte(ttl>>8), byte(ttl)
	})
	return dst, true
}
