package guard

import (
	"net/netip"
	"testing"

	"dnsguard/internal/ratelimit"
)

// macCounter reads how many MACs a shard's worker ran: its count of cookie
// checks.
type macCounter struct{ s *remoteShard }

func (m macCounter) n() uint64 {
	worker, _ := m.s.g.Work(m.s.id)
	return worker.Checks
}

// verifiedQuery is a cookie query from src carrying src's own cookie.
func (h *shardHarness) verifiedQuery(t *testing.T, src netip.Addr) Packet {
	return Packet{Src: netip.AddrPortFrom(src, 5353), Dst: h.g.cfg.PublicAddr, Payload: h.nsQueryWire(t, src, "www.foo.com", 7)}
}

// TestVerifiedRecordEviction: Rate-Limiter2 holds a bucket for each
// verified source, LRU-bounded by RL2.TrackedSources (4 here). Only a request
// whose cookie verified charges a bucket, so only a source that passed a MAC
// evicts one, and what an eviction gives the evicted source is one fresh
// burst: the harness clock stands still, so nothing refills, and a drained
// bucket is never handed on before the table is full.
func TestVerifiedRecordEviction(t *testing.T) {
	const tracked, burst = 4, 3
	h := newShardHarness(t, func(cfg *RemoteConfig) {
		cfg.RL2 = ratelimit.Limiter2Config{PerSourceRate: 1, PerSourceBurst: burst, TrackedSources: tracked}
	})
	macs := macCounter{h.s}
	srcs := make([]netip.Addr, tracked+1)
	for i := range srcs {
		srcs[i] = netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)})
	}
	first := h.verifiedQuery(t, srcs[0])
	// srcs[0] spends its whole burst and is refused once; the others verify
	// after it, so it is the least recently charged.
	for i := 0; i <= burst; i++ {
		h.handle(first)
	}
	for _, src := range srcs[1:tracked] {
		h.handle(h.verifiedQuery(t, src))
	}
	st := h.g.Stats()
	if st.RL2Dropped != 1 || st.CookieValid != burst+tracked || macs.n() != burst+tracked || h.s.rl2.Sources() != tracked {
		t.Fatalf("filling the table: %+v, %d MACs, %d sources", st, macs.n(), h.s.rl2.Sources())
	}

	// A fifth verified source takes the least recent bucket.
	h.handle(h.verifiedQuery(t, srcs[tracked]))
	if n := h.s.rl2.Sources(); n != tracked {
		t.Fatalf("after a fifth source: %d sources, want %d", n, tracked)
	}

	// The evicted source's next burst is whole: burst requests pass, the one
	// after is refused, each with its MAC.
	before, beforeMACs := h.g.Stats(), macs.n()
	for i := 0; i <= burst; i++ {
		h.handle(first)
	}
	st = h.g.Stats()
	if st.CookieValid != before.CookieValid+burst+1 || st.RL2Dropped != before.RL2Dropped+1 || macs.n() != beforeMACs+burst+1 {
		t.Errorf("the evicted source's %d requests: %d valid, %d dropped by Rate-Limiter2, %d MACs; want %d, 1, %d",
			burst+1, st.CookieValid-before.CookieValid, st.RL2Dropped-before.RL2Dropped, macs.n()-beforeMACs, burst+1, burst+1)
	}

	// A forged cookie from an address never seen charges nothing.
	forged := h.verifiedQuery(t, srcs[2])
	forged.Src = netip.AddrPortFrom(netip.MustParseAddr("10.9.9.9"), 5353)
	invalid := h.g.Stats().CookieInvalid
	h.handle(forged)
	if h.g.Stats().CookieInvalid != invalid+1 || h.s.rl2.Sources() != tracked {
		t.Errorf("a forged cookie: CookieInvalid %d → %d, %d sources", invalid, h.g.Stats().CookieInvalid, h.s.rl2.Sources())
	}
}

// TestToggleRestartsBuckets: a strict/normal limiter transition empties
// Rate-Limiter2, so a verified source taken through strict → normal →
// strict restarts at the strict burst, as the limiter epoch of the records
// once had it; each of its requests pays its MAC. The harness clock stands
// still, so nothing refills.
func TestToggleRestartsBuckets(t *testing.T) {
	const strictBurst = 2
	h := newShardHarness(t, func(cfg *RemoteConfig) {
		cfg.RL2 = ratelimit.Limiter2Config{PerSourceRate: 1, PerSourceBurst: strictBurst * strictFactor, TrackedSources: 16}
		cfg.Mitigation.Enabled = true
	})
	macs := macCounter{h.s}
	pkt := h.verifiedQuery(t, netip.MustParseAddr("10.0.0.53"))
	h.g.mit.layer.Store(int32(LayerSourceLimit))
	h.handle(pkt) // verified under strict limits
	for _, rung := range []MitigationLayer{LayerCookies, LayerSourceLimit} {
		h.g.mit.layer.Store(int32(rung))
		h.s.syncLimiters()
	}
	before, beforeMACs := h.g.Stats(), macs.n()
	for i := 0; i <= strictBurst; i++ {
		h.handle(pkt)
	}
	st := h.g.Stats()
	if st.CookieValid != before.CookieValid+strictBurst+1 || st.RL2Dropped != before.RL2Dropped+1 || macs.n() != beforeMACs+strictBurst+1 {
		t.Errorf("%d requests at the strict burst of %d: %d valid, %d dropped by Rate-Limiter2, %d MACs; want %d, 1, %d",
			strictBurst+1, strictBurst, st.CookieValid-before.CookieValid, st.RL2Dropped-before.RL2Dropped, macs.n()-beforeMACs, strictBurst+1, strictBurst+1)
	}
}
