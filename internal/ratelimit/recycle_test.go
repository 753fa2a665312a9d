package ratelimit

import (
	"math"
	"math/rand"
	"net/netip"
	"sort"
	"testing"
	"time"

	"dnsguard/internal/srctab"
)

// putBuckets is the rule Buckets replaced, kept as the reference: a source
// not tracked always takes a fresh entry until the table is full, and only
// then the least recently used one, refilled or not. stale counts the
// evictions of a bucket that had not refilled — the only ones after which
// the two rules may decide differently.
type putBuckets struct {
	rate, burst float64
	tab         *srctab.Table[level]
	stale       int
}

func (l *putBuckets) Reset(rate, burst float64, tracked int) {
	l.rate, l.burst = rate, max(burst, 1)
	renew(&l.tab, tracked)
}

func (l *putBuckets) Allow(src netip.Addr, now time.Duration) bool {
	b, found, evicted := l.tab.Put(src.As16())
	if evicted && !b.refilled(l.rate, l.burst, now) {
		l.stale++
	}
	if !found {
		*b = level{l.burst, now}
	}
	return b.allow(l.rate, l.burst, now)
}

// charge is one Allow of a schedule, or a Reset of both tables when reset.
type charge struct {
	at    time.Duration
	src   netip.Addr
	reset bool
}

// schedule is what TestBucketsAgreeWithPutRule drives: one-shot newcomers,
// paced at perSec with a seeded jitter inside each one's slot, and
// repeaters, each of which drains its burst at a seeded time, goes idle for
// a seeded 50–400 ms and charges three times more. Both tables are Reset
// halfway through.
func schedule(seed int64, perSec float64, repeaters int, burst float64, run time.Duration) []charge {
	rng := rand.New(rand.NewSource(seed))
	var cs []charge
	slot := float64(time.Second) / perSec
	for i := 0; perSec > 0; i++ {
		at := time.Duration((float64(i) + rng.Float64()) * slot)
		if at >= run {
			break
		}
		cs = append(cs, charge{at: at, src: ip(1<<16 + i)})
	}
	for r := 0; r < repeaters; r++ {
		at := time.Duration(rng.Int63n(int64(run)))
		for i := 0; i < int(burst)+4; i++ {
			cs = append(cs, charge{at: at + time.Duration(i)*time.Millisecond, src: ip(r)})
		}
		back := at + 50*time.Millisecond + time.Duration(rng.Int63n(int64(350*time.Millisecond)))
		for i := 0; i < 3; i++ {
			cs = append(cs, charge{at: back + time.Duration(i)*time.Millisecond, src: ip(r)})
		}
	}
	cs = append(cs, charge{at: run / 2, reset: true})
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].at < cs[j].at })
	return cs
}

// TestBucketsAgreeWithPutRule drives Buckets and the rule it replaced with
// the same schedules. Wherever the reference never evicted a bucket that had
// not refilled, every Allow agrees: a refilled bucket is a fresh one, so
// handing its entry to a newcomer changes no decision. The 20 480 sources/s
// a shard would need before that first happens — 4096 charged within one
// bucket's refill from empty, burst ÷ rate = 200 ms — is above the
// benchmark's 13 300; the 30 000/s schedule crosses it, and the test checks
// that its reference does evict a bucket still limiting its source.
//
// It also reads the entries Buckets ever wrote (its high-water Len: it
// deletes nothing, so it only grows into a fresh entry). The reference
// writes all 4096 on every schedule here. One-shot newcomers alone hold
// about one entry per newcomer in the 1 ÷ rate = 10 ms a once-charged bucket
// takes to refill. A repeater that drained its burst holds the entry of
// every source charged behind it until it has refilled, up to burst ÷ rate
// later, since only the oldest entry is ever taken over.
func TestBucketsAgreeWithPutRule(t *testing.T) {
	cfg := DefaultLimiter1Config()
	rate, burst, tracked := cfg.PerSourceRate, cfg.PerSourceBurst, cfg.TrackedSources
	for _, c := range []struct {
		name      string
		perSec    float64
		repeaters int
		qualifies bool
	}{
		{"newcomers 4000/s", 4000, 0, true},
		{"newcomers 13300/s", 13300, 0, true},
		{"newcomers 4000/s, repeaters", 4000, 16, true},
		{"newcomers 13300/s, repeaters", 13300, 16, true},
		{"repeaters alone", 0, 64, true},
		{"newcomers 30000/s, repeaters", 30000, 16, false},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			var got Buckets
			var ref putBuckets
			got.Reset(rate, burst, tracked)
			ref.Reset(rate, burst, tracked)
			written, refWritten, differ := 0, 0, 0
			for i, ch := range schedule(seed, c.perSec, c.repeaters, burst, 3*time.Second) {
				if ch.reset {
					got.Reset(rate, burst, tracked)
					ref.Reset(rate, burst, tracked)
					continue
				}
				a, b := got.Allow(ch.src, ch.at), ref.Allow(ch.src, ch.at)
				if a != b && ref.stale == 0 {
					t.Fatalf("%s, seed %d: charge %d (%v at %v): Allow %v, the put rule %v", c.name, seed, i, ch.src, ch.at, a, b)
				}
				if a != b {
					differ++
				}
				written, refWritten = max(written, got.tab.Len()), max(refWritten, ref.tab.Len())
			}
			if qualifies := ref.stale == 0; qualifies != c.qualifies {
				t.Fatalf("%s, seed %d: the put rule evicted %d buckets that had not refilled; qualifying is %v, want %v",
					c.name, seed, ref.stale, qualifies, c.qualifies)
			}
			bound := int(math.Ceil(c.perSec/rate)) + c.repeaters + 8
			if c.repeaters > 0 && c.perSec > 0 {
				bound = int(math.Ceil(c.perSec*burst/rate)) + c.repeaters + 8
			}
			if c.perSec > 0 && refWritten != tracked {
				t.Fatalf("%s, seed %d: the put rule wrote %d entries, want all %d", c.name, seed, refWritten, tracked)
			}
			t.Logf("%s, seed %d: %d entries written (put rule %d, bound %d); %d stale evictions, %d decisions differ",
				c.name, seed, written, refWritten, bound, ref.stale, differ)
			if c.qualifies && written > bound {
				t.Errorf("%s, seed %d: %d entries written, want <= %d", c.name, seed, written, bound)
			}
		}
	}
}

// FuzzBucketsAgree drives Buckets and the put rule with random sources, gaps
// and rates — two bytes a charge: the source, out of a few more than the
// table holds, and the gap since the last charge, a byte of 0 resetting
// both — and compares every Allow until the reference first evicts a bucket
// that had not refilled. Up to there the entries Buckets holds are never
// more than the reference's.
func FuzzBucketsAgree(f *testing.F) {
	f.Add(uint8(4), uint16(100), uint8(20), []byte{1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 1, 200, 6, 1})
	f.Add(uint8(1), uint16(10), uint8(2), []byte{1, 1, 1, 1, 1, 1, 2, 50, 1, 255, 1, 1})
	f.Add(uint8(8), uint16(1000), uint8(1), []byte{1, 3, 2, 3, 3, 3, 9, 0, 1, 3, 4, 30, 5, 30})
	f.Fuzz(func(t *testing.T, tracked uint8, rate uint16, burst uint8, script []byte) {
		var got Buckets
		var ref putBuckets
		space := int(tracked) + 4
		got.Reset(float64(rate), float64(burst), int(tracked))
		ref.Reset(float64(rate), float64(burst), int(tracked))
		var now time.Duration
		for i := 0; i+1 < len(script) && ref.stale == 0; i += 2 {
			src, gap := ip(int(script[i])%space), script[i+1]
			if gap == 0 {
				got.Reset(float64(rate), float64(burst), int(tracked))
				ref.Reset(float64(rate), float64(burst), int(tracked))
				continue
			}
			now += time.Duration(gap-1) * time.Millisecond
			a, b := got.Allow(src, now), ref.Allow(src, now)
			if ref.stale == 0 && a != b {
				t.Fatalf("charge %d (%v at %v): Allow %v, the put rule %v", i/2, src, now, a, b)
			}
			if got.tab.Len() > ref.tab.Len() {
				t.Fatalf("charge %d: Buckets holds %d sources, the put rule %d", i/2, got.tab.Len(), ref.tab.Len())
			}
		}
	})
}
