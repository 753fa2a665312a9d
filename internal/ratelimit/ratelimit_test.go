package ratelimit

import (
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

func TestTokenBucketBasic(t *testing.T) {
	b := NewTokenBucket(10, 5, 0) // 10/s, burst 5, starts full
	now := time.Duration(0)
	for i := 0; i < 5; i++ {
		if !b.Allow(now) {
			t.Fatalf("burst token %d denied", i)
		}
	}
	if b.Allow(now) {
		t.Fatal("6th immediate token allowed beyond burst")
	}
	now += 100 * time.Millisecond // refills 1 token
	if !b.Allow(now) {
		t.Fatal("token after refill denied")
	}
	if b.Allow(now) {
		t.Fatal("second token without refill allowed")
	}
}

func TestTokenBucketCapsAtBurst(t *testing.T) {
	b := NewTokenBucket(1000, 10, 0)
	allowed := 0
	for b.Allow(time.Hour) {
		allowed++
	}
	if allowed != 10 {
		t.Fatalf("an hour idle allows %d at once, want capped at burst 10", allowed)
	}
}

func TestTokenBucketConservationProperty(t *testing.T) {
	// Property: over any schedule of Allow calls, the number allowed never
	// exceeds burst + rate*elapsed.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rate := 1 + float64(r.Intn(1000))
		burst := 1 + float64(r.Intn(50))
		b := NewTokenBucket(rate, burst, 0)
		var now time.Duration
		allowed := 0
		for i := 0; i < 500; i++ {
			now += time.Duration(r.Intn(10_000)) * time.Microsecond
			if b.Allow(now) {
				allowed++
			}
		}
		bound := burst + rate*now.Seconds() + 1e-6
		return float64(allowed) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTokenBucketTimeGoingBackwardIsSafe(t *testing.T) {
	b := NewTokenBucket(10, 1, time.Second)
	if !b.Allow(time.Second) {
		t.Fatal("first denied")
	}
	// Earlier timestamp must not mint tokens.
	if b.Allow(500 * time.Millisecond) {
		t.Fatal("backward time minted tokens")
	}
}

func TestRateEstimator(t *testing.T) {
	e := NewRateEstimator(10, 100*time.Millisecond) // 1s window
	var now time.Duration
	// 1000 events over 1 second = 1000/s.
	for i := 0; i < 1000; i++ {
		e.Observe(now)
		now += time.Millisecond
	}
	got := e.Rate(now)
	if got < 800 || got > 1200 {
		t.Fatalf("rate = %v, want ~1000", got)
	}
}

func TestRateEstimatorDecaysToZero(t *testing.T) {
	e := NewRateEstimator(10, 100*time.Millisecond)
	for i := 0; i < 100; i++ {
		e.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := e.Rate(10 * time.Second); got != 0 {
		t.Fatalf("stale rate = %v, want 0", got)
	}
}

func TestLimiter1ThrottlesPerSource(t *testing.T) {
	cfg := Limiter1Config{PerSourceRate: 10, PerSourceBurst: 2, GlobalRate: 1e6, GlobalBurst: 1e6, TrackedSources: 128}
	l := NewLimiter1(cfg, 0)
	src := netip.MustParseAddr("10.0.0.1")
	allowed := 0
	for i := 0; i < 100; i++ {
		if l.AllowResponse(src, 0) {
			allowed++
		}
	}
	if allowed != 2 {
		t.Fatalf("allowed %d, want burst of 2", allowed)
	}
	// A different source has its own budget.
	if !l.AllowResponse(netip.MustParseAddr("10.0.0.2"), 0) {
		t.Fatal("independent source denied")
	}
}

func TestLimiter1GlobalCeiling(t *testing.T) {
	cfg := Limiter1Config{PerSourceRate: 1e9, PerSourceBurst: 1e9, GlobalRate: 100, GlobalBurst: 10, TrackedSources: 1000}
	l := NewLimiter1(cfg, 0)
	allowed := 0
	for i := 0; i < cfg.TrackedSources; i++ {
		src := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
		if l.AllowResponse(src, 0) {
			allowed++
		}
	}
	if allowed != 10 {
		t.Fatalf("allowed %d spoofed-diverse responses, want global burst 10", allowed)
	}
}

// TestLimiter1TracksTopRequesters: the top requesters are the per-source
// buckets. A heavy requester among a flood of never-seen sources, many more
// than the table holds, stays the most recently used, so it is never
// evicted and its bucket keeps it at its burst.
func TestLimiter1TracksTopRequesters(t *testing.T) {
	cfg := Limiter1Config{PerSourceRate: 100, PerSourceBurst: 20, GlobalRate: 1e9, GlobalBurst: 1e9, TrackedSources: 64}
	l := NewLimiter1(cfg, 0)
	heavy := netip.MustParseAddr("99.9.9.9")
	allowed := 0
	for i := 0; i < 100*cfg.TrackedSources; i++ {
		if l.AllowResponse(heavy, 0) {
			allowed++
		}
		l.AllowResponse(ip(i), 0)
	}
	if allowed != int(cfg.PerSourceBurst) {
		t.Fatalf("heavy requester allowed %d responses, want its burst %v", allowed, cfg.PerSourceBurst)
	}
}

func TestLimiter2NominalRate(t *testing.T) {
	cfg := Limiter2Config{PerSourceRate: 100, PerSourceBurst: 10, TrackedSources: 64}
	l := NewLimiter2(cfg, 0)
	src := netip.MustParseAddr("10.0.0.1")
	allowed := 0
	var now time.Duration
	// Offer 10000/s for one second; only ~100+burst should pass.
	for i := 0; i < 10000; i++ {
		if l.AllowRequest(src, now) {
			allowed++
		}
		now += 100 * time.Microsecond
	}
	if allowed < 100 || allowed > 120 {
		t.Fatalf("allowed %d, want ~110 (rate 100 + burst 10)", allowed)
	}
}

func TestLimiter2LRUBoundsMemory(t *testing.T) {
	cfg := Limiter2Config{PerSourceRate: 1, PerSourceBurst: 1, TrackedSources: 100}
	l := NewLimiter2(cfg, 0)
	for i := 0; i < 10000; i++ {
		src := netip.AddrFrom4([4]byte{byte(i >> 24), byte(i >> 16), byte(i >> 8), byte(i)})
		l.AllowRequest(src, 0)
	}
	if l.Sources() > 100 {
		t.Fatalf("sources = %d, want <= 100 (LRU bound)", l.Sources())
	}
}

func TestLRUEvictionResetsBudget(t *testing.T) {
	// After eviction a source gets a fresh bucket: acceptable (documented)
	// because TrackedSources is sized so active legitimate sources are
	// never evicted under attack-scale spraying.
	cfg := Limiter2Config{PerSourceRate: 0.0001, PerSourceBurst: 1, TrackedSources: 2}
	l := NewLimiter2(cfg, 0)
	a := netip.MustParseAddr("10.0.0.1")
	if !l.AllowRequest(a, 0) {
		t.Fatal("first denied")
	}
	if l.AllowRequest(a, 0) {
		t.Fatal("second allowed")
	}
	// Push a out of the LRU.
	l.AllowRequest(netip.MustParseAddr("10.0.0.2"), 0)
	l.AllowRequest(netip.MustParseAddr("10.0.0.3"), 0)
	if !l.AllowRequest(a, 0) {
		t.Fatal("evicted source should restart with fresh burst")
	}
}

func TestRateEstimatorOutOfOrderTimestamps(t *testing.T) {
	e := NewRateEstimator(10, 100*time.Millisecond) // 1s window
	var now time.Duration
	// Steady 1000/s, but every 10th packet carries a timestamp 150ms in the
	// past (more than a bucket behind), as happens when capture queues drain
	// out of order or the clock is stepped. The regressed events must fold
	// into the current bucket instead of stamping a fresh bucket with an old
	// slot, which would corrupt the whole window.
	for i := 0; i < 1000; i++ {
		ts := now
		if i%10 == 9 {
			ts -= 150 * time.Millisecond
		}
		e.Observe(ts)
		now += time.Millisecond
	}
	got := e.Rate(now)
	if got < 800 || got > 1200 {
		t.Fatalf("rate with out-of-order timestamps = %v, want ~1000", got)
	}
}

func TestRateEstimatorRegressionDoesNotAdvanceWindow(t *testing.T) {
	e := NewRateEstimator(4, 100*time.Millisecond)
	e.Observe(time.Second)
	// A far-past timestamp must not rotate the ring: before the fix this
	// claimed a new bucket with slot 0 and the window double-counted time.
	e.Observe(0)
	e.Observe(time.Second)
	// All three events live in the 1s bucket; the window is 400ms.
	if got, want := e.Rate(time.Second), 3.0/0.4; got != want {
		t.Fatalf("rate = %v, want %v", got, want)
	}
}

// ip is test source number i.
func ip(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
}

// TestLRUColdGetAllocs: once the table is full, a never-seen source — every
// spoofed packet of a flood — takes over the least recently used entry, so
// the cold path allocates nothing, and the bucket it gets is as fresh as a
// newly built one.
func TestLRUColdGetAllocs(t *testing.T) {
	const tracked = 256
	var l Buckets
	l.Reset(100, 20, tracked)
	next := 0
	cold := func() netip.Addr { next++; return ip(next) }
	for i := 0; i < tracked; i++ {
		l.Allow(cold(), 0)
	}
	if n := testing.AllocsPerRun(10*tracked, func() { l.Allow(cold(), time.Second) }); n != 0 {
		t.Errorf("at-capacity charge of an unseen source allocates %.1f/op, want 0", n)
	}
	if l.tab.Len() != tracked {
		t.Errorf("table holds %d sources, want %d", l.tab.Len(), tracked)
	}
	// A recycled entry's bucket is as fresh as a newly built one: it gives
	// the whole burst and not one token more.
	src := cold()
	for i := 0; i < 20; i++ {
		if !l.Allow(src, 2*time.Second) {
			t.Fatalf("recycled entry denied charge %d of a burst of 20", i+1)
		}
	}
	if l.Allow(src, 2*time.Second) {
		t.Error("recycled entry allowed 21 charges on a burst of 20")
	}
}

// TestLimiterResetInPlace: Reset leaves a limiter as NewLimiter builds it —
// tables empty, the new rates in force — and allocates
// nothing while the tracked-source bound is unchanged, which is what a
// strict/normal mitigation toggle and a supervised shard restart rely on.
func TestLimiterResetInPlace(t *testing.T) {
	c1, c2 := DefaultLimiter1Config(), DefaultLimiter2Config()
	s1, s2 := c1, c2
	s1.PerSourceBurst, s2.PerSourceBurst = 1, 1
	l1, l2 := NewLimiter1(c1, 0), NewLimiter2(c2, 0)
	for i := 0; i < 3*c2.TrackedSources; i++ {
		l1.AllowResponse(ip(i), 0)
		l2.AllowRequest(ip(i), 0)
	}
	if n := testing.AllocsPerRun(10, func() {
		l1.Reset(s1, time.Second)
		l2.Reset(s2)
		l1.Reset(c1, time.Second)
		l2.Reset(c2)
	}); n != 0 {
		t.Errorf("strict/normal toggle allocates %.1f times, want 0", n)
	}
	l1.Reset(s1, time.Second)
	l2.Reset(s2)
	if l2.Sources() != 0 || l1.perSrc.tab.Len() != 0 {
		t.Fatalf("after Reset: rl1 sources %d, rl2 sources %d, want 0", l1.perSrc.tab.Len(), l2.Sources())
	}
	src := ip(7)
	if !l1.AllowResponse(src, time.Second) || l1.AllowResponse(src, time.Second) {
		t.Error("rl1 after Reset to burst 1: want exactly one response allowed")
	}
	if !l2.AllowRequest(src, time.Second) || l2.AllowRequest(src, time.Second) {
		t.Error("rl2 after Reset to burst 1: want exactly one request allowed")
	}
}

// TestTablesBuiltAtFirstCharge: a limiter builds its source table at its
// first charge, not at construction; Reset keeps a built table while the
// bound holds and drops it when the bound changes, for the next charge to
// build at the new bound.
func TestTablesBuiltAtFirstCharge(t *testing.T) {
	c1, c2 := DefaultLimiter1Config(), DefaultLimiter2Config()
	l1, l2 := NewLimiter1(c1, 0), NewLimiter2(c2, 0)
	if l1.perSrc.tab != nil || l2.perSrc.tab != nil || l2.Sources() != 0 {
		t.Fatal("a new limiter built its source table")
	}
	l1.Reset(c1, 0)
	l2.Reset(c2)
	if l1.perSrc.tab != nil || l2.perSrc.tab != nil {
		t.Fatal("Reset built a source table")
	}
	l1.AllowResponse(ip(1), 0)
	l2.AllowRequest(ip(1), 0)
	built := l2.perSrc.tab
	if l1.perSrc.tab == nil || built == nil || l2.Sources() != 1 {
		t.Fatalf("after one charge: rl1 table %v, rl2 table %v with %d sources", l1.perSrc.tab != nil, built != nil, l2.Sources())
	}
	l2.Reset(c2)
	if l2.perSrc.tab != built || l2.Sources() != 0 {
		t.Fatal("Reset at the same bound did not empty the built table in place")
	}
	c2.TrackedSources /= 2
	l2.Reset(c2)
	if l2.perSrc.tab != nil {
		t.Fatal("Reset to a new bound kept the table")
	}
	l2.AllowRequest(ip(1), 0)
	if l2.perSrc.tab.Cap() != c2.TrackedSources {
		t.Errorf("rebuilt table holds %d sources, want %d", l2.perSrc.tab.Cap(), c2.TrackedSources)
	}
}
