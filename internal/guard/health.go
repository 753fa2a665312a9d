package guard

// Upstream ANS health and failover. The guard exists because the ANS behind
// it is the fragile component (§IV: an unprotected ANS collapses at ~1.5k
// spoofed qps) — but the paper assumes the ANS stays reachable. In
// deployment it does not: the ANS restarts, its link flaps, an operator
// fat-fingers a firewall rule. Without health tracking every pending entry
// for a dead upstream just times out silently and the guard keeps throwing
// verified traffic into a black hole.
//
// This file adds a per-shard circuit breaker over an ordered upstream list
// (the configured ANSAddr first, then ANSFallbacks):
//
//   - closed:    traffic flows; consecutive timeouts are counted.
//   - open:      3 consecutive timeouts trip the breaker; traffic shifts to
//                the next closed upstream in order.
//   - half-open: 2 s after it opened an upstream receives one synthetic SOA
//                probe (a query the guard mints itself, consumed internally —
//                no client ever sees it). Success closes the breaker, so the
//                primary is restored as soon as it answers; a probe timeout
//                re-opens it for another cooldown.
//
// When every upstream is open the explicit overload policy decides: fail
// open (forward to the primary anyway — maybe the breaker is wrong) or fail
// closed (shed, protecting whatever is left of the ANS). The breaker is
// per shard, matching the engine's no-cross-shard-locks discipline; shards
// discover an outage independently within one threshold of timeouts each.
//
// All of it runs only where there is somewhere to fail over to: without
// RemoteConfig.ANSFallbacks forward short-circuits to the single configured
// ANSAddr and the upstream loop reads without a timeout, preserving the
// deterministic single-shard replay. With it, the shard's upstream loop is
// the breaker's one writer (healthTick); the worker reads only the states.

import (
	"net/netip"
	"sync/atomic"
	"time"

	"dnsguard/internal/dnswire"
)

// HealthConfig parameterizes upstream health tracking and failover, which
// run when RemoteConfig.ANSFallbacks names somewhere to fail over to.
type HealthConfig struct {
	// FailOpen selects the policy when every upstream's breaker is open:
	// true forwards to the primary anyway (fail-open), false sheds the
	// request (fail-closed, the default).
	FailOpen bool

	// Filled by RemoteConfig.resolve; only tests set them first. enabled
	// turns the breaker and the upstream loop's sweep on (tests run them
	// without a fallback); threshold and cooldown replace breakerThreshold
	// and breakerCooldown.
	enabled   bool
	threshold int
	cooldown  time.Duration
}

const (
	// breakerThreshold is how many consecutive upstream timeouts open a
	// breaker.
	breakerThreshold = 3
	// breakerCooldown is how long an open breaker waits before its half-open
	// probe.
	breakerCooldown = 2 * time.Second
)

// An upstream's circuit-breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// upstreamHealth tracks one upstream address within a shard.
type upstreamHealth struct {
	addr     netip.AddrPort
	state    atomic.Int32  // the loop writes it, pick and BreakerState read it
	consec   int           // consecutive timeouts while closed
	openedAt time.Duration // when the breaker last opened, or its probe failed or was refused
	timeouts atomic.Uint32 // counted by countTimeout, not yet fed
}

// shardHealth is one shard's breaker over the ordered upstream list, owned
// by the shard's upstream loop, which counts its transitions in the shard's
// tally.
type shardHealth struct {
	g     *Remote
	tally *tally
	// ups[0] is the primary (RemoteConfig.ANSAddr); the rest are the
	// ordered ANSFallbacks.
	ups []upstreamHealth
}

func newShardHealth(g *Remote, t *tally) *shardHealth {
	h := &shardHealth{g: g, tally: t, ups: make([]upstreamHealth, 1+len(g.cfg.ANSFallbacks))}
	h.ups[0].addr = g.cfg.ANSAddr
	for i, a := range g.cfg.ANSFallbacks {
		h.ups[1+i].addr = a
	}
	return h
}

// pick selects the forward target: the first upstream in order whose breaker
// is closed. With every breaker open the overload policy applies — fail-open
// returns the primary, fail-closed reports no target.
func (h *shardHealth) pick() (netip.AddrPort, bool) {
	for i := range h.ups {
		if h.ups[i].state.Load() == breakerClosed {
			return h.ups[i].addr, true
		}
	}
	if h.g.cfg.Health.FailOpen {
		return h.ups[0].addr, true
	}
	return netip.AddrPort{}, false
}

// countTimeout counts one upstream timeout (an expired pending entry, probe
// or regular) against addr for noteTimeouts. It runs under the shard's NAT
// lock and takes no other: the addresses never change, the count is atomic.
func (h *shardHealth) countTimeout(addr netip.AddrPort) {
	if u := h.find(addr); u != nil {
		u.timeouts.Add(1)
	}
}

// noteTimeouts feeds the timeouts counted since its last call into the
// breaker, as many consecutive timeouts of each upstream.
func (h *shardHealth) noteTimeouts(now time.Duration) {
	for i := range h.ups {
		u := &h.ups[i]
		switch n := int(u.timeouts.Swap(0)); {
		case n == 0:
		case u.state.Load() == breakerClosed:
			u.consec += n
			if u.consec >= h.g.cfg.Health.threshold {
				u.state.Store(breakerOpen)
				u.openedAt = now
				atomic.AddUint64(&h.tally.breakerOpens, 1)
			}
		case u.state.Load() == breakerHalfOpen:
			// The probe died too: back to open for another cooldown.
			u.state.Store(breakerOpen)
			u.openedAt = now
		}
	}
}

// noteSuccess feeds a genuine (source- and question-verified) response from
// addr into the breaker: any state snaps back to closed, restoring the
// upstream's place in the failover order.
func (h *shardHealth) noteSuccess(addr netip.AddrPort) {
	u := h.find(addr)
	if u == nil {
		return
	}
	u.consec = 0
	if u.state.Swap(breakerClosed) != breakerClosed {
		atomic.AddUint64(&h.tally.breakerCloses, 1)
	}
}

func (h *shardHealth) find(addr netip.AddrPort) *upstreamHealth {
	for i := range h.ups {
		if h.ups[i].addr == addr {
			return &h.ups[i]
		}
	}
	return nil
}

// BreakerState reports upstream addr's breaker state on shard (tests and
// the metrics gauge): 0 closed, 1 open, 2 half-open, -1 unknown.
func (g *Remote) BreakerState(shard int, addr netip.AddrPort) int {
	h := g.shards[shard].health
	if h == nil {
		return -1
	}
	u := h.find(addr)
	if u == nil {
		return -1
	}
	return int(u.state.Load())
}

// isUpstreamAddr reports whether src is one of the configured upstreams —
// the only sources whose datagrams the upstream socket may consume.
func (g *Remote) isUpstreamAddr(src netip.AddrPort) bool {
	if src == g.cfg.ANSAddr {
		return true
	}
	for _, a := range g.cfg.ANSFallbacks {
		if src == a {
			return true
		}
	}
	return false
}

// healthTick is the upstream loop's sweep: expired entries become timeout
// signals fed to the breaker, and each open breaker that has cooled down goes
// half-open and gets its probe. A probe the full NAT table refuses leaves its
// breaker open for another cooldown: half-open with nothing in flight, no
// timeout or answer could ever move it.
func (s *remoteShard) healthTick(now time.Duration) {
	h := s.health
	s.sweepPending(now)
	h.noteTimeouts(now)
	for i := range h.ups {
		u := &h.ups[i]
		if u.state.Load() != breakerOpen || now-u.openedAt < s.g.cfg.Health.cooldown {
			continue
		}
		if s.sendProbe(u.addr) {
			u.state.Store(breakerHalfOpen)
		} else {
			u.openedAt = now
		}
	}
}

// sendProbe emits the half-open probe: a synthetic SOA query for the zone
// apex, minted by the guard itself and consumed internally on response. The
// probe rides the ordinary pending table, so the response is held to the
// same source and question-echo checks as real traffic — a spoofed "probe
// answer" cannot close the breaker. It reports whether the table took it;
// forward counts it as sent.
// It is written as the guard writes every query it asks: RD off, class IN,
// in the upstream loop's scratch, which no reply holds between datagrams.
func (s *remoteShard) sendProbe(upstream netip.AddrPort) bool {
	probe := append(append(s.upBuf[:0], 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0), s.g.zoneWire...)
	probe = append(probe, 0, byte(dnswire.TypeSOA), 0, byte(dnswire.ClassINET))
	return s.forward(pendEntry{kind: pendProbe, upstream: upstream}, probe, nil)
}
