package guard

import (
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/metrics"
	"dnsguard/internal/ratelimit"
)

// fastPath sums the shards' credential counts, as the
// guard_engine_fast_path_* series do.
func (g *Remote) fastPath() (t ratelimit.CredStats) {
	for _, s := range g.shards {
		c := metrics.SnapshotUint64(&s.rl2.Stats)
		t = ratelimit.CredStats{Hits: t.Hits + c.Hits, Misses: t.Misses + c.Misses, Inserts: t.Inserts + c.Inserts,
			Evictions: t.Evictions + c.Evictions, Sources: t.Sources + c.Sources}
	}
	return t
}

// macCounter is a CPUWorker that counts the charges of one cost: with only
// Costs.CookieCheck set, how many MACs the guard ran.
type macCounter struct{ n int }

func (m *macCounter) WorkPreempt(time.Duration) { m.n++ }

// recordHarness is a one-shard guard whose Rate-Limiter2 holds tracked
// records of burst tokens, with every MAC counted in macs.
func recordHarness(t *testing.T, tracked int, burst float64, mitigation bool) (*shardHarness, *macCounter) {
	t.Helper()
	macs := &macCounter{}
	h := newShardHarness(t, func(cfg *RemoteConfig) {
		cfg.FastPathTTL = time.Minute
		cfg.RL2 = ratelimit.Limiter2Config{PerSourceRate: 1, PerSourceBurst: burst, TrackedSources: tracked}
		cfg.CPU, cfg.Costs.CookieCheck = macs, time.Nanosecond
		cfg.Mitigation.Enabled = mitigation
	})
	return h, macs
}

// verifiedQuery is a cookie query from src carrying src's own cookie.
func (h *shardHarness) verifiedQuery(t *testing.T, src netip.Addr) Packet {
	return Packet{Src: netip.AddrPortFrom(src, 5353), Dst: h.g.cfg.PublicAddr, Payload: h.nsQueryWire(t, src, "www.foo.com", 7)}
}

// TestVerifiedRecordEviction: Rate-Limiter2's records are the verified
// sources, LRU-bounded by RL2.TrackedSources (4 here). Only a request whose
// credential verified creates a record, so only a source that passed a MAC
// evicts one, and what an eviction gives the evicted source is one MAC and
// one fresh burst: the harness clock stands still, so nothing refills.
func TestVerifiedRecordEviction(t *testing.T) {
	const tracked, burst = 4, 3
	h, macs := recordHarness(t, tracked, burst, false)
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
	st := h.g.Stats.Load()
	if st.RL2Dropped != 1 || st.CookieValid != burst+tracked || st.FastPathHits != burst || macs.n != tracked {
		t.Fatalf("filling the records: %+v, %d MACs", st, macs.n)
	}

	// A fifth verified source takes the least recent record.
	h.handle(h.verifiedQuery(t, srcs[tracked]))
	if n, fp := h.s.rl2.Sources(), h.g.fastPath(); n != tracked || fp.Evictions != 1 || fp.Inserts != tracked+1 {
		t.Fatalf("after a fifth source: %d records, %+v; want %d, one eviction", n, fp, tracked)
	}
	hits := h.g.Stats.Load().FastPathHits
	h.handle(h.verifiedQuery(t, srcs[1]))
	if got := h.g.Stats.Load().FastPathHits; got != hits+1 {
		t.Errorf("a source more recent than the evicted one lost its credential: FastPathHits %d → %d", hits, got)
	}

	// The evicted source pays one MAC, and its next burst is whole: burst
	// requests pass, the one after is refused.
	before, beforeMACs := h.g.Stats.Load(), macs.n
	for i := 0; i <= burst; i++ {
		h.handle(first)
	}
	st = h.g.Stats.Load()
	if macs.n != beforeMACs+1 || st.FastPathHits != before.FastPathHits+burst {
		t.Errorf("the evicted source: %d MACs and %d fast-path hits, want 1 and %d", macs.n-beforeMACs, st.FastPathHits-before.FastPathHits, burst)
	}
	if st.CookieValid != before.CookieValid+burst+1 || st.RL2Dropped != before.RL2Dropped+1 {
		t.Errorf("the evicted source's %d requests: %d valid, %d dropped by Rate-Limiter2, want %d and 1",
			burst+1, st.CookieValid-before.CookieValid, st.RL2Dropped-before.RL2Dropped, burst+1)
	}

	// A forged credential from an address never seen creates nothing.
	forged := h.verifiedQuery(t, srcs[2])
	forged.Src = netip.AddrPortFrom(netip.MustParseAddr("10.9.9.9"), 5353)
	invalid := h.g.Stats.Load().CookieInvalid
	h.handle(forged)
	if h.g.Stats.Load().CookieInvalid != invalid+1 || h.s.rl2.Sources() != tracked || h.g.fastPath().Evictions != 2 {
		t.Errorf("a forged credential: CookieInvalid %d → %d, %d records, %+v", invalid, h.g.Stats.Load().CookieInvalid, h.s.rl2.Sources(), h.g.fastPath())
	}
}

// TestToggleKeepsCredentials: a strict/normal limiter transition starts a
// Rate-Limiter2 epoch instead of emptying the records, so a verified source
// taken through strict → normal → strict keeps its credential — its next
// request is a fast-path hit and runs no MAC — while its level restarts at
// the strict burst, as an emptied table would have had it.
func TestToggleKeepsCredentials(t *testing.T) {
	h, macs := recordHarness(t, 16, 2*strictFactor, true)
	src := netip.MustParseAddr("10.0.0.53")
	pkt := h.verifiedQuery(t, src)
	for _, rung := range []MitigationLayer{LayerSourceLimit, LayerCookies, LayerSourceLimit} {
		h.g.mit.layer.Store(int32(rung))
		if rung == LayerSourceLimit && h.s.rl2.Sources() == 0 {
			h.handle(pkt) // verified under strict limits: one MAC
			continue
		}
		h.s.syncLimiters()
	}
	if st := h.g.Stats.Load(); st.CookieValid != 1 || st.FastPathHits != 0 || macs.n != 1 {
		t.Fatalf("verifying: %+v, %d MACs", st, macs.n)
	}
	before := h.g.Stats.Load()
	h.handle(pkt)
	st := h.g.Stats.Load()
	if st.CookieValid != before.CookieValid+1 || st.FastPathHits != before.FastPathHits+1 || macs.n != 1 {
		t.Fatalf("after strict → normal → strict: CookieValid +%d, FastPathHits +%d, %d MACs; want +1, +1, 1",
			st.CookieValid-before.CookieValid, st.FastPathHits-before.FastPathHits, macs.n)
	}
	// That request was the first of the new epoch's strict burst of 2.
	const strictBurst = 2
	for i := 1; i <= strictBurst; i++ {
		h.handle(pkt)
	}
	if st := h.g.Stats.Load(); st.RL2Dropped != 1 || st.CookieValid != before.CookieValid+strictBurst+1 || macs.n != 1 {
		t.Errorf("%d requests at the strict burst of %d: %d dropped by Rate-Limiter2, %d MACs; want 1 and 1",
			strictBurst+1, strictBurst, st.RL2Dropped, macs.n)
	}
}
