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
	if got := b.Tokens(time.Hour); got != 10 {
		t.Fatalf("tokens = %v, want capped at 10", got)
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

func TestTopKExactWhenUnderCapacity(t *testing.T) {
	tk := NewTopK[string](10)
	for i := 0; i < 7; i++ {
		tk.Observe("a")
	}
	for i := 0; i < 3; i++ {
		tk.Observe("b")
	}
	if c, e := tk.Estimate("a"); c != 7 || e != 0 {
		t.Fatalf("a = %d±%d, want 7±0", c, e)
	}
	if c, _ := tk.Estimate("b"); c != 3 {
		t.Fatalf("b = %d, want 3", c)
	}
	if c, _ := tk.Estimate("zzz"); c != 0 {
		t.Fatalf("missing key = %d, want 0", c)
	}
	top := tk.Top(2)
	if len(top) != 2 || top[0] != "a" || top[1] != "b" {
		t.Fatalf("Top = %v", top)
	}
}

func TestTopKHeavyHitterSurvivesNoise(t *testing.T) {
	tk := NewTopK[int](16)
	r := rand.New(rand.NewSource(3))
	// One heavy hitter among a large stream of singletons.
	for i := 0; i < 20000; i++ {
		if i%4 == 0 {
			tk.Observe(-1) // heavy: 25% of stream
		} else {
			tk.Observe(r.Intn(1_000_000))
		}
	}
	if !tk.Contains(-1) {
		t.Fatal("heavy hitter evicted")
	}
	top := tk.Top(1)
	if len(top) != 1 || top[0] != -1 {
		t.Fatalf("Top(1) = %v, want [-1]", top)
	}
}

func TestTopKOverestimateBound(t *testing.T) {
	// Space-saving invariant: estimate >= true count, and
	// estimate - err <= true count.
	tk := NewTopK[int](8)
	truth := map[int]uint64{}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		k := r.Intn(50)
		truth[k]++
		tk.Observe(k)
	}
	for k, tc := range truth {
		est, errB := tk.Estimate(k)
		if est == 0 {
			continue // not tracked
		}
		if est < tc && est != 0 {
			// est may be less than truth only if the key was evicted
			// and re-entered; space-saving still guarantees est >= count
			// since (re)insertion inherits the min. Violation is a bug.
			t.Fatalf("key %d: est %d < true %d", k, est, tc)
		}
		if est-errB > tc {
			t.Fatalf("key %d: est-err %d > true %d", k, est-errB, tc)
		}
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
	cfg := Limiter1Config{PerSourceRate: 1e9, PerSourceBurst: 1e9, GlobalRate: 100, GlobalBurst: 10, TrackedSources: 1 << 16}
	l := NewLimiter1(cfg, 0)
	allowed := 0
	for i := 0; i < 1000; i++ {
		src := netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)})
		if l.AllowResponse(src, 0) {
			allowed++
		}
	}
	if allowed != 10 {
		t.Fatalf("allowed %d spoofed-diverse responses, want global burst 10", allowed)
	}
	a, d := l.Stats()
	if a != 10 || d != 990 {
		t.Fatalf("stats = %d/%d", a, d)
	}
}

func TestLimiter1TracksTopRequesters(t *testing.T) {
	l := NewLimiter1(DefaultLimiter1Config(), 0)
	heavy := netip.MustParseAddr("99.9.9.9")
	for i := 0; i < 500; i++ {
		l.AllowResponse(heavy, 0)
		l.AllowResponse(netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), 0)
	}
	top := l.TopRequesters(1)
	if len(top) != 1 || top[0] != heavy {
		t.Fatalf("top = %v, want [99.9.9.9]", top)
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

func TestTopKEvictionsCounter(t *testing.T) {
	tk := NewTopK[int](2)
	tk.Observe(1)
	tk.Observe(2)
	if tk.Evictions() != 0 {
		t.Fatalf("evictions before saturation = %d, want 0", tk.Evictions())
	}
	tk.Observe(3) // third distinct key with k=2: space-saving eviction
	if tk.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", tk.Evictions())
	}
}

// TestLRUColdGetAllocs: once the table is full, a never-seen source — every
// spoofed packet of a flood — takes over the least recently used entry, so
// the cold path allocates nothing, and the bucket it gets is as fresh as a
// newly built one.
func TestLRUColdGetAllocs(t *testing.T) {
	const tracked = 256
	l := newLRUBuckets(100, 20, tracked)
	next := uint32(0)
	cold := func() netip.Addr {
		next++
		return netip.AddrFrom4([4]byte{10, byte(next >> 16), byte(next >> 8), byte(next)})
	}
	for i := 0; i < tracked; i++ {
		l.get(cold(), 0).Allow(0)
	}
	if n := testing.AllocsPerRun(10*tracked, func() { l.get(cold(), time.Second) }); n != 0 {
		t.Errorf("at-capacity get of an unseen source allocates %.1f/op, want 0", n)
	}
	if l.len() != tracked {
		t.Errorf("table holds %d sources, want %d", l.len(), tracked)
	}
	if got, want := *l.get(cold(), 2*time.Second), *NewTokenBucket(100, 20, 2*time.Second); got != want {
		t.Errorf("recycled entry's bucket = %+v, want a fresh %+v", got, want)
	}
}
