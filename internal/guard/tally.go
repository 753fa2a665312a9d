package guard

import (
	"errors"
	"strconv"
	"sync/atomic"

	"dnsguard/internal/metrics"
)

// RemoteStats counts guard activity; the experiment harness reads these.
// Remote.Stats sums it from the shards' tallies.
type RemoteStats struct {
	Received          uint64 // packets read from the capture interface
	Passthrough       uint64 // relayed while spoof detection inactive
	Malformed         uint64 // queries the view or the record walk refuses, or over MaxDatagram
	NewcomerGrants    uint64 // fabricated NS / TC / cookie responses sent
	RL1Dropped        uint64 // cookie responses suppressed by Rate-Limiter1
	CookieValid       uint64 // requests whose cookie verified
	CookieInvalid     uint64 // spoofed requests dropped
	RL2Dropped        uint64 // verified requests over the nominal rate
	ForwardedToANS    uint64
	RepliesToClient   uint64
	TCRedirects       uint64
	PendingDropped    uint64 // queries refused by a full NAT table, answered late, or reaped unanswered
	UpstreamStrays    uint64 // duplicated/unmatched ANS responses discarded
	UpstreamSpoofed   uint64 // upstream datagrams failing source/question checks
	UpstreamMalformed uint64 // upstream datagrams not a response the view and the walk take, or over MaxDatagram
	KeyRotations      uint64

	// Upstream health / failover (HealthConfig; zero when disabled, but
	// UpstreamTimeouts, which any reap of an expired entry counts).
	UpstreamTimeouts uint64 // pending entries reaped as upstream timeouts
	BreakerOpens     uint64 // breakers tripped by consecutive timeouts
	BreakerCloses    uint64 // breakers restored by a verified response
	ProbesSent       uint64 // half-open synthetic SOA probes emitted
	Failovers        uint64 // forwards diverted to a fallback upstream
	FailClosedDrops  uint64 // forwards shed with every breaker open
}

// RemoteStatsNames names RemoteStats' fields in order (guard_remote_*).
var RemoteStatsNames = []string{
	"received", "passthrough", "malformed", "newcomer_grants", "rl1_dropped",
	"cookie_valid", "cookie_invalid", "rl2_dropped", "forwarded_to_ans",
	"replies_to_client", "tc_redirects", "pending_dropped", "upstream_strays",
	"upstream_spoofed", "upstream_malformed", "key_rotations",
	"upstream_timeouts", "breaker_opens", "breaker_closes", "probes_sent",
	"failovers", "fail_closed_drops",
}

// Work counts what one loop of a shard did, by the kinds of work §IV-D prices
// a request with: datagrams read and written; cookie checks, the MAC each
// presented cookie pays and message 6's IP cookie, the fabricated-IP path's
// second cookie computation; grants, a cookie minted into message 2 or 3;
// truncation replies; and rewrites, message 4's restored question or a
// forward stripped of its cookie record. A health probe is no request's work:
// only its answer's read counts. Remote.Work reads it from the shard's tally;
// the guard_work_* series sum both loops of every shard.
type Work struct {
	Read, Written, Checks, Grants, TCReplies, Rewrites uint64
}

// WorkNames names Work's fields in order (guard_work_*).
var WorkNames = []string{"read", "written", "checks", "grants", "tc_replies", "rewrites"}

// tally is one shard's counts. Each event is written into it once, with an
// atomic add, by the line that decides it — in the shard's worker, its
// upstream loop, or whoever reaps its NAT table — and no other shard writes
// it. RemoteStats, Work and LifecycleStats are views summing the shards'.
type tally struct {
	// Every datagram the worker reads ends in one fate: for another port,
	// malformed, refused by a drain, by Rate-Limiter1, answered with a grant,
	// a TC redirect or REFUSED, its cookie invalid, refused by Rate-Limiter2,
	// shed with every breaker open, refused by a full NAT table, or forwarded.
	read, foreign, malformed, drainDropped, rl1Dropped, grants, tcReplies, refused uint64
	invalid, rl2Dropped, failClosed, pendRefused, forwarded                        uint64
	// On the way there: relayed with detection off, a cookie verified, a
	// query rewritten for the ANS, a forward to a fallback upstream.
	passthrough, valid, rewrites, failovers uint64
	// Every datagram the upstream loop reads ends in one fate: relayed to its
	// client, an answer to an expired entry, a stray, spoofed, malformed, or a
	// probe's answer. Its own: message 6's IP cookies, probes sent, breakers
	// opened and closed.
	upRead, upReplies, late, strays, spoofed, upMalformed, probeAnswers uint64
	ipCookies, probes, breakerOpens, breakerCloses                      uint64
	// Whoever reaps: client entries reaped unanswered, entries reaped expired.
	reaped, timeouts uint64
}

// total sums the shards' tallies, each field read atomically.
func (g *Remote) total() (t tally) {
	for _, s := range g.shards {
		metrics.AddUint64(&t, &s.tally)
	}
	return t
}

// Stats returns the guard's counters, summed over its shards when called.
// Each field is exact; the set is no single cut of a running guard.
func (g *Remote) Stats() RemoteStats {
	t := g.total()
	return RemoteStats{
		Received: t.read, Passthrough: t.passthrough, Malformed: t.malformed,
		NewcomerGrants: t.grants + t.tcReplies, RL1Dropped: t.rl1Dropped,
		CookieValid: t.valid, CookieInvalid: t.invalid, RL2Dropped: t.rl2Dropped,
		ForwardedToANS: t.forwarded + t.probes, RepliesToClient: t.grants + t.tcReplies + t.refused + t.upReplies,
		TCRedirects: t.tcReplies, PendingDropped: t.pendRefused + t.late + t.reaped,
		UpstreamStrays: t.strays, UpstreamSpoofed: t.spoofed, UpstreamMalformed: t.upMalformed,
		KeyRotations: atomic.LoadUint64(&g.ctl.keyRotations), UpstreamTimeouts: t.timeouts,
		BreakerOpens: t.breakerOpens, BreakerCloses: t.breakerCloses, ProbesSent: t.probes,
		Failovers: t.failovers, FailClosedDrops: t.failClosed,
	}
}

// Work returns what shard i's worker and upstream loop have done so far.
func (g *Remote) Work(i int) (worker, upstream Work) {
	t := metrics.SnapshotUint64(&g.shards[i].tally)
	return Work{Read: t.read, Written: t.grants + t.tcReplies + t.refused + t.forwarded, Checks: t.valid + t.invalid,
			Grants: t.grants, TCReplies: t.tcReplies, Rewrites: t.rewrites},
		Work{Read: t.upRead, Written: t.upReplies, Checks: t.ipCookies}
}

// CheckConservation reports whether every shard of g accounts for each packet
// once: each datagram its worker or upstream loop read ended in one fate, and
// each client query it forwarded was answered, answered late, reaped, or is
// in flight. It is exact only at quiescence, with no datagram between a read
// and its fate: a simulation between events, a guard whose loops have nothing
// left to read. It does not hold on a shard tripped under engine.TripPass,
// whose packets passthrough handles unread, nor after a handler panicked
// between a packet's read and its fate.
func CheckConservation(g *Remote) error {
	for i, s := range g.shards {
		t := metrics.SnapshotUint64(&s.tally)
		ended := t.upReplies + t.late + t.reaped
		s.mu.Lock()
		for id, n := uint16(0), s.pend.live; n > 0; n-- {
			if id = s.pend.slot(id).next; s.pend.slot(id).kind != pendProbe {
				ended++ // in flight
			}
		}
		s.mu.Unlock()
		in := t.foreign + t.malformed + t.drainDropped + t.rl1Dropped + t.grants + t.tcReplies + t.refused +
			t.invalid + t.rl2Dropped + t.failClosed + t.pendRefused + t.forwarded
		up := t.upReplies + t.late + t.strays + t.spoofed + t.upMalformed + t.probeAnswers
		if in != t.read || up != t.upRead || ended != t.forwarded {
			n := func(v uint64) string { return strconv.FormatUint(v, 10) }
			return errors.New("guard: shard " + strconv.Itoa(i) + " read " + n(t.read) + " datagrams, " + n(in) + " ended; its upstream loop " +
				n(t.upRead) + ", " + n(up) + " ended; it forwarded " + n(t.forwarded) + " queries, " + n(ended) + " ended or in flight")
		}
	}
	return nil
}
