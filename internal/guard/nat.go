package guard

// The NAT half of the pipeline: every query the guard sends to the ANS is
// registered in its shard's pending table under a fresh transaction ID, and
// every datagram the ANS sends back is matched against that table before it
// becomes a reply. An entry holds questions the way the wire does — as spans
// of bytes it owns. A response is read only as dnswire's view and record walk
// read it, and one they refuse is malformed; what the guard sends on of it —
// a response relayed whole, message 6's authority records — dnswire's
// re-encoder writes from wire to wire as the codec would, and the rest
// of message 6 is written by splice. Nothing here builds a Message or, once
// warm, allocates.

import (
	"errors"
	"net/netip"
	"sync/atomic"
	"time"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
)

type pendKind uint8

const (
	pendRelay pendKind = iota + 1 // passthrough or verified request (messages 5/8); answer relayed whole
	pendChild                     // rewritten cookie query (message 4); answer fabricates message 6
	pendProbe                     // guard-minted half-open health probe; consumed internally
)

// pendEntry is one in-flight upstream query. qwire and fwdWire are buffers the
// entry's slot owns, reused across its lives.
type pendEntry struct {
	kind      pendKind
	origID    uint16
	clientSrc netip.AddrPort
	replyFrom netip.AddrPort // source address for our reply (public or cookie IP)
	upstream  netip.AddrPort // where the query went; the response must come from here
	expires   time.Duration
	qwire     []byte // pendChild: the client's question span, name in canonical case — message 6's question
	fwdWire   []byte // the forwarded question span, canonical; responses must echo it
}

// maxPending bounds each shard's NAT table (the pre-engine global bound,
// now per shard).
const maxPending = 4096

// flagsZMask covers the reserved Z bits, the one part of the flags word that
// the codec does not round-trip (it writes them as zero).
const flagsZMask = 0x0070

// pendChunk is how many slots the table grows by: what a shard that never
// has more queries in flight pays for, 11 KiB, of the 0.7 MiB a full table is.
const pendChunk = 64

// pendSlot is an entry where it lives. Its ID is its index, so it is on
// exactly one of: the in-flight list (live), the free stack, or loan to
// whoever took it off the list and has yet to release it.
type pendSlot struct {
	pendEntry
	next, prev uint16 // neighbours in flight; next alone, the slot below on the free stack
	live       bool
}

// pendTable is a shard's NAT state: the transaction ID the guard writes on a
// forward is the index of the slot that holds the entry. IDs are issued 1, 2,
// 3 …, the last released first, so a table that drains to empty stays in the
// slots it has touched; a slot is first written when first issued, in a chunk
// allocated then, so a guard whose ANS answers never pays for maxPending.
// Slot 0, never issued (an ID of 0 reads as "unset" in too many places),
// closes the ring of in-flight entries, oldest first, which is soonest to
// expire first — every entry of a guard lives pendingTimeout, stamped under
// the lock that lists it — so finding the expired is looking at the head.
// Nothing here depends on what a peer sends but the index in lookup, which is
// bounds-checked; the caller's mutex guards all of it.
type pendTable struct {
	chunks []*[pendChunk]pendSlot
	mark   uint16 // high-water: IDs 1..mark have been issued
	free   uint16 // top of the released stack, 0 when empty
	live   int    // entries in flight
	steps  uint64 // slots reap has looked at: the tests' guard for O(expired)
}

func (t *pendTable) slot(id uint16) *pendSlot { return &t.chunks[id/pendChunk][id%pendChunk] }

// insert issues an ID and lists its slot as the newest in flight; the caller
// fills the entry in. With at most maxPending in flight and one slot on loan
// to the upstream loop the mark stays far below 65535.
func (t *pendTable) insert() (uint16, *pendEntry) {
	id := t.free
	if id != 0 {
		t.free = t.slot(id).next
	} else {
		t.mark++
		if id = t.mark; int(id/pendChunk) == len(t.chunks) {
			t.chunks = append(t.chunks, new([pendChunk]pendSlot))
		}
	}
	e, ring := t.slot(id), t.slot(0)
	e.prev, e.next, e.live = ring.prev, 0, true
	t.slot(ring.prev).next, ring.prev = id, id
	t.live++
	return id, &e.pendEntry
}

// lookup returns the entry in flight under id, or nil.
func (t *pendTable) lookup(id uint16) *pendEntry {
	if id == 0 || id > t.mark || !t.slot(id).live {
		return nil
	}
	return &t.slot(id).pendEntry
}

// take unlists the entry in flight under id. Its slot, and so its ID, are the
// caller's until release, which puts the ID on top of the free stack.
func (t *pendTable) take(id uint16) {
	e := t.slot(id)
	t.slot(e.prev).next, t.slot(e.next).prev = e.next, e.prev
	e.live = false
	t.live--
}

func (t *pendTable) release(id uint16) {
	t.slot(id).next = t.free
	t.free = id
}

// reap frees the oldest entry in flight if it has expired by now and returns
// it for the caller's accounting, readable until the lock is dropped; nil
// when the oldest, and so every entry, has time left. Called until nil it
// costs one step per expired entry and one more.
func (t *pendTable) reap(now time.Duration) *pendEntry {
	t.steps++
	if t.live == 0 {
		return nil
	}
	id := t.slot(0).next
	if now < t.slot(id).expires {
		return nil
	}
	t.take(id)
	t.release(id)
	return &t.slot(id).pendEntry
}

// reapPending frees, oldest first, every entry in flight that has expired by
// now, and with all — a drain, a shard restart — every other too. Whoever
// reaps it, an entry ends by one rule: any but a health probe is reaped, a
// client query dropped, and one that expired is an upstream timeout, counted
// and, under health tracking, counted against its upstream, for the upstream
// loop's next sweep to feed to the breaker. A slot on loan stays its holder's
// to release. The caller holds s.mu.
func (s *remoteShard) reapPending(now time.Duration, all bool) {
	until := now
	if all {
		until = 1<<63 - 1
	}
	for e := s.pend.reap(until); e != nil; e = s.pend.reap(until) {
		if e.kind != pendProbe {
			atomic.AddUint64(&s.tally.reaped, 1)
		}
		if now >= e.expires {
			atomic.AddUint64(&s.tally.timeouts, 1)
			if s.health != nil {
				s.health.countTimeout(e.upstream)
			}
		}
	}
}

// sweepPending reaps what has expired by now, as the upstream loop's sweep
// does; emptyPending reaps every entry in flight, whatever time it has left.
func (s *remoteShard) sweepPending(now time.Duration) { s.sweep(now, false) }
func (s *remoteShard) emptyPending()                  { s.sweep(s.g.now(), true) }

func (s *remoteShard) sweep(now time.Duration, all bool) {
	s.mu.Lock()
	s.reapPending(now, all)
	s.mu.Unlock()
}

// appendFolded appends b to dst with ASCII uppercase folded to lowercase.
// Length octets (< 64) and the terminator pass through unchanged, so folding
// a whole name span yields the canonical wire encoding dnswire.Pack emits.
func appendFolded(dst, b []byte) []byte {
	for _, c := range b {
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// firstQuestion returns the question span of wire, a query this guard wrote:
// one question, its name uncompressed.
func firstQuestion(wire []byte) []byte {
	n := 13
	for wire[n-1] != 0 {
		n += 1 + int(wire[n-1])
	}
	return wire[12 : n+4]
}

// forward sends wire, a packed query, to the current upstream — the
// configured ANS, or whatever the shard's circuit breaker selects when
// health tracking is on; a probe names its own — under a fresh transaction
// ID, which it writes into wire, and registers a pending entry for the
// response. entry is the template — the caller's kind, client, reply address
// and original ID — and clientQ, for pendChild, the client's question span
// in any case, which is copied, folded, into the registered entry. It reports
// whether the entry was registered and the query sent.
func (s *remoteShard) forward(entry pendEntry, wire, clientQ []byte) bool {
	g := s.g
	if entry.kind != pendProbe {
		entry.upstream = g.cfg.ANSAddr
		if s.health != nil {
			up, ok := s.health.pick()
			if !ok {
				// Every breaker open and the policy is fail-closed: shed.
				atomic.AddUint64(&s.tally.failClosed, 1)
				return false
			}
			if up != g.cfg.ANSAddr {
				atomic.AddUint64(&s.tally.failovers, 1)
			}
			entry.upstream = up
		}
	}
	s.mu.Lock()
	now := g.now()
	if s.pend.live >= maxPending {
		// At capacity: make room of what has expired, and refuse only if the
		// table is full of live queries. A refused probe is no query dropped:
		// its breaker waits out another cooldown (healthTick).
		s.reapPending(now, false)
		if s.pend.live >= maxPending {
			s.mu.Unlock()
			if entry.kind != pendProbe {
				atomic.AddUint64(&s.tally.pendRefused, 1)
			}
			return false
		}
	}
	entry.expires = now + g.cfg.pendingTimeout
	id, e := s.pend.insert()
	// The entry's buffers are filled before the lock is released: the
	// upstream loop may take it the moment it is.
	entry.qwire, entry.fwdWire = e.qwire[:0], append(e.fwdWire[:0], firstQuestion(wire)...)
	if nameLen := len(clientQ) - 4; nameLen > 0 {
		entry.qwire = append(appendFolded(entry.qwire, clientQ[:nameLen]), clientQ[nameLen:]...)
	}
	*e = entry
	s.mu.Unlock()
	wire[0], wire[1] = byte(id>>8), byte(id)
	if entry.kind == pendProbe {
		atomic.AddUint64(&s.tally.probes, 1)
	} else {
		atomic.AddUint64(&s.tally.forwarded, 1)
	}
	_ = s.upstream.WriteTo(wire, entry.upstream)
	return true
}

// upstreamLoop receives ANS responses for one shard and transforms them per
// the pending entry's kind. Under health tracking it is also the breaker's
// one writer: its read waits at most until the next sweep is due, every half
// an entry's life, and it sweeps (healthTick) between reads. Without, it
// reads with no timeout, so no timer enters a simulated schedule.
func (s *remoteShard) upstreamLoop() {
	g := s.g
	// One slab reused for every read — the one packet buffer the shard owns
	// on the upstream side, a receive slab of Batch slots. On Linux
	// the reads collapse into recvmmsg. With Batch == 1 the slab has a
	// single slot, and a full slab makes ReadBatch exactly one blocking
	// read per call (the zero-timeout drain never runs). handleUpstream only
	// borrows the payload: slab slots are the loop's to overwrite on the
	// next read.
	slab := recvSlab(g.cfg.Batch)
	wait, period := netapi.NoTimeout, g.cfg.pendingTimeout/2
	due := g.now() + period
	for {
		if s.health != nil {
			now := g.now()
			if now >= due {
				s.healthTick(now)
				due = now + period
			}
			wait = due - now
		}
		n, err := s.upstream.ReadBatch(slab, wait)
		if err != nil && !errors.Is(err, netapi.ErrTimeout) {
			return
		}
		for i := 0; i < n; i++ {
			s.handleUpstream(slab[i].Payload(), slab[i].Addr)
		}
	}
}

// handleUpstream validates and relays one ANS datagram. A datagram is
// consumed only when it (a) comes from a configured upstream, (b) is a
// response the view and the record walk take, (c) carries the ID of a pending
// entry, (d) echoes the question the guard forwarded under that ID — ID alone
// is 16 bits of entropy, trivially sweepable by an off-path attacker who
// learns the upstream port — and (e) comes from the upstream that entry was
// sent to. The first check it fails counts it: (b) as malformed, (c) as a
// stray, the others as spoofed. payload is borrowed: it is read within the
// call, never retained. What the checks cost is bounded whatever an upstream
// sends: one walk of at most 4096 bytes, and a re-encode that stops at the
// 512th byte it writes (see View.RepackAs).
func (s *remoteShard) handleUpstream(payload []byte, src netip.AddrPort) {
	g := s.g
	atomic.AddUint64(&s.tally.upRead, 1)
	if !g.isUpstreamAddr(src) {
		// Off-path datagram: only configured upstreams send here.
		atomic.AddUint64(&s.tally.spoofed, 1)
		return
	}
	// A response the walk vouches for — one viewable question, and records,
	// if any, of the shapes Unpack demands — is well-formed; anything else,
	// over the UDP ceiling (a full receive slot) or not a response, is not.
	// In passing the walk notes all message 6 takes from a referral: once an
	// NS record has named servers, their addresses, each as the record giving
	// it to the question's name, class IN whatever the glue's.
	ns, glue := false, s.upBuf[dnswire.MaxUDPSize:dnswire.MaxUDPSize]
	v, ok := dnswire.ParseView(payload)
	if !ok || len(payload) > dnswire.MaxDatagram || !v.QR() || !v.Records(func(r dnswire.Record) {
		switch {
		case r.Section == dnswire.SectionAuthority && r.Type == dnswire.TypeNS:
			ns = true
		case r.Section == dnswire.SectionAdditional && r.Type == dnswire.TypeA && ns && len(glue) < dnswire.MaxUDPSize:
			glue = append(glue, 0xC0, 12, 0, byte(dnswire.TypeA), 0, byte(dnswire.ClassINET),
				byte(r.TTL>>24), byte(r.TTL>>16), byte(r.TTL>>8), byte(r.TTL), 0, 4)
			glue = append(glue, r.RData...)
		}
	}) {
		atomic.AddUint64(&s.tally.upMalformed, 1)
		return
	}
	id := v.ID()
	s.mu.Lock()
	entry := s.pend.lookup(id)
	if entry == nil {
		s.mu.Unlock()
		// Duplicated or long-delayed ANS response whose entry was
		// already consumed — the network, not the ANS, misbehaving.
		atomic.AddUint64(&s.tally.strays, 1)
		return
	}
	if !dnswire.SameQuestion(v.QuestionWire(), entry.fwdWire) || src != entry.upstream {
		// Right ID but wrong question — or right everything from the
		// wrong upstream (one configured ANS cannot vouch for another).
		// Spoofed or corrupted either way; keep the entry so the
		// genuine answer can still land.
		s.mu.Unlock()
		atomic.AddUint64(&s.tally.spoofed, 1)
		return
	}
	expired := g.now() >= entry.expires
	s.pend.take(id)
	s.mu.Unlock()
	if s.health != nil {
		// Only a fully validated response feeds the breaker: source,
		// ID, and question echo all checked above.
		s.health.noteSuccess(src)
	}
	switch {
	case entry.kind == pendProbe:
		// Half-open probe answered, in time or late: the noteSuccess above
		// already closed the breaker. Nothing to relay.
		atomic.AddUint64(&s.tally.probeAnswers, 1)
	case expired:
		atomic.AddUint64(&s.tally.late, 1)
	case entry.kind == pendChild:
		s.spliceChild(entry, v, glue)
	default: // pendRelay: relayed whole under the client's ID
		wire, _ := v.RepackAs(s.upBuf[:0], entry.origID, v.RawFlags()&^flagsZMask, v.QuestionWire(), nil, dnswire.MaxUDPSize)
		s.replyWire(entry.replyFrom, entry.clientSrc, wire)
	}
	s.mu.Lock()
	s.pend.release(id)
	s.mu.Unlock()
}

// spliceChild turns the ANS's answer to the restored child query (message 5)
// into the answer for the fabricated name (message 6): a QR|AA header under
// the client's ID, the client's question with its name folded, and
//   - for NXDOMAIN, the authority section as the re-encoder writes it;
//   - for a referral — no answer, an NS record in the authority section — the
//     real next-level servers' glue addresses as the fabricated name's
//     (§III-B.1), cut at the last that fits in 512 bytes with TC set; without
//     glue, or without answers otherwise, SERVFAIL;
//   - for an answer, the IP cookie (§III-B.2) as the fabricated name's one A
//     record; without a subnet to encode it in, SERVFAIL.
//
// The bytes are the codec's for the message 6 the guard once built as a
// Message.
func (s *remoteShard) spliceChild(entry *pendEntry, v dnswire.View, glue []byte) {
	g := s.g
	if dnswire.RCode(v.RawFlags()&0xF) == dnswire.RCodeNXDomain {
		wire, _ := v.RepackAs(s.upBuf[:0], entry.origID, 0x8400|uint16(dnswire.RCodeNXDomain), entry.qwire,
			func(r dnswire.Record) bool { return r.Section == dnswire.SectionAuthority }, dnswire.MaxUDPSize)
		s.replyWire(entry.replyFrom, entry.clientSrc, wire)
		return
	}
	buf := append(s.upBuf[:0], byte(entry.origID>>8), byte(entry.origID), 0x84, byte(dnswire.RCodeServFail), 0, 1, 0, 0, 0, 0, 0, 0)
	buf = append(buf, entry.qwire...)
	switch {
	case v.ANCount() == 0 && len(glue) > 0:
		n := min(len(glue), dnswire.MaxUDPSize-len(buf)) / 16
		buf[3], buf[7] = byte(dnswire.RCodeNoError), byte(n)
		if 16*n < len(glue) {
			buf[2] |= 2 // TC
		}
		buf = append(buf, glue[:16*n]...)
	case v.ANCount() != 0 && g.cfg.Subnet.IsValid():
		atomic.AddUint64(&s.tally.ipCookies, 1) // second cookie computation
		addr, err := g.ipc.Encode(g.cfg.Auth.Mint(entry.clientSrc.Addr()))
		if err != nil {
			break
		}
		a, ttl := addr.As4(), nsTTL
		buf[3], buf[7] = byte(dnswire.RCodeNoError), 1
		buf = append(buf, 0xC0, 12, 0, byte(dnswire.TypeA), 0, byte(dnswire.ClassINET),
			byte(ttl>>24), byte(ttl>>16), byte(ttl>>8), byte(ttl), 0, 4, a[0], a[1], a[2], a[3])
	}
	s.replyWire(entry.replyFrom, entry.clientSrc, buf)
}

// replyWire emits an already-packed guard response through the shard's
// interface, so it leaves from the socket its query came in on.
func (s *remoteShard) replyWire(from, to netip.AddrPort, wire []byte) {
	atomic.AddUint64(&s.tally.upReplies, 1)
	_ = s.io.WriteFromTo(from, to, wire)
}
