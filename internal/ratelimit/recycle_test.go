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
// then the least recently used one, refilled or not. Retune is how
// Rate-Limiter2 used to take a new rate and burst: every entry kept in its
// place, each level restarting at the new burst at its next charge. stale
// counts the evictions of a bucket that had not refilled — the only ones
// after which the two rules may decide differently.
type putBuckets struct {
	rate, burst float64
	epoch       int
	tab         *srctab.Table[putLevel]
	stale       int
}

// putLevel is a level and the retune epoch it was charged in.
type putLevel struct {
	level
	epoch int
}

func (l *putBuckets) Reset(rate, burst float64, tracked int) {
	l.rate, l.burst = rate, max(burst, 1)
	l.tab = srctab.New[putLevel](max(tracked, 1), srctab.LRU)
}

func (l *putBuckets) Retune(rate, burst float64) {
	l.rate, l.burst = rate, max(burst, 1)
	l.epoch++
}

func (l *putBuckets) Allow(src netip.Addr, now time.Duration) bool {
	b, found, evicted := l.tab.Put(src.As16())
	current := b.epoch == l.epoch
	if evicted && current && !b.refilled(l.rate, l.burst, now) {
		l.stale++
	}
	if !found || !current {
		*b = putLevel{level{l.burst, now}, l.epoch}
	}
	return b.allow(l.rate, l.burst, now)
}

// strict is cfg at a tenth of its rate and burst, the mitigation ladder's
// source-limit rung.
func strict(cfg Limiter2Config) Limiter2Config {
	cfg.PerSourceRate, cfg.PerSourceBurst = cfg.PerSourceRate/10, cfg.PerSourceBurst/10
	return cfg
}

// agreeRun drives a Limiter2 and the put rule side by side: Reset empties
// both, and a toggle between cfg and strict(cfg) resets the limiter and
// retunes the reference, as the guard's strict/normal transitions did.
type agreeRun struct {
	cfg      Limiter2Config
	got      *Limiter2
	ref      putBuckets
	isStrict bool
}

func newAgreeRun(cfg Limiter2Config) *agreeRun {
	r := &agreeRun{cfg: cfg, got: NewLimiter2(cfg, 0)}
	r.ref.Reset(cfg.PerSourceRate, cfg.PerSourceBurst, cfg.TrackedSources)
	return r
}

func (r *agreeRun) reset() {
	r.got.Reset(r.cfg)
	r.ref.Reset(r.cfg.PerSourceRate, r.cfg.PerSourceBurst, r.cfg.TrackedSources)
	r.isStrict = false
}

func (r *agreeRun) toggle() {
	cfg := r.cfg
	if r.isStrict = !r.isStrict; r.isStrict {
		cfg = strict(cfg)
	}
	r.got.Reset(cfg)
	r.ref.Retune(cfg.PerSourceRate, cfg.PerSourceBurst)
}

// event is one step of a schedule: a charge of src at at, or, with op set,
// a reset or a strict/normal toggle.
type event struct {
	at  time.Duration
	src netip.Addr
	op  byte // 0: charge; 'r': reset; 't': toggle
}

// shape is what a schedule holds: perSec one-shot newcomers a second, paced
// with a seeded jitter inside each one's slot; repeaters, each of which
// drains its burst at ten times the rate at a seeded time, goes idle for a
// seeded 50–400 ms and charges three times more; steady sources charged in
// turn, steadyPerSec charges a second among them. Every schedule resets
// halfway through; with toggle it also turns strict at a third of the run
// and normal again at two thirds.
type shape struct {
	name         string
	perSec       float64
	repeaters    int
	steady       int
	steadyPerSec float64
	toggle       bool
	qualifies    bool
}

func schedule(seed int64, s shape, rate, burst float64, run time.Duration) []event {
	rng := rand.New(rand.NewSource(seed))
	var es []event
	slot := float64(time.Second) / s.perSec
	for i := 0; s.perSec > 0; i++ {
		at := time.Duration((float64(i) + rng.Float64()) * slot)
		if at >= run {
			break
		}
		es = append(es, event{at: at, src: ip(1<<16 + i)})
	}
	drain := time.Duration(float64(time.Second) / (10 * rate))
	for r := 0; r < s.repeaters; r++ {
		at := time.Duration(rng.Int63n(int64(run)))
		for i := 0; i < int(burst)+4; i++ {
			es = append(es, event{at: at + time.Duration(i)*drain, src: ip(r)})
		}
		back := at + 50*time.Millisecond + time.Duration(rng.Int63n(int64(350*time.Millisecond)))
		for i := 0; i < 3; i++ {
			es = append(es, event{at: back + time.Duration(i)*drain, src: ip(r)})
		}
	}
	for i := 0; s.steady > 0; i++ {
		at := time.Duration(float64(i) * float64(time.Second) / s.steadyPerSec)
		if at >= run {
			break
		}
		es = append(es, event{at: at, src: ip(1<<15 + i%s.steady)})
	}
	es = append(es, event{at: run / 2, op: 'r'})
	if s.toggle {
		es = append(es, event{at: run / 3, op: 't'}, event{at: 2 * run / 3, op: 't'})
	}
	sort.SliceStable(es, func(i, j int) bool { return es[i].at < es[j].at })
	return es
}

// TestBucketsAgreeWithPutRule drives Buckets, as Rate-Limiter2 holds it, and
// the rule it replaced with the same schedules, at both limiters' defaults.
// Wherever the reference never evicted a bucket that had not refilled, every
// Allow agrees: a refilled bucket is a fresh one, so handing its entry to a
// newcomer changes no decision, and a retuned level restarts at the new
// burst, as an emptied table's would. The 20 480 sources/s a shard would need
// before that first happens — 4096 charged within one bucket's refill from
// empty, burst ÷ rate = 200 ms at either default — is above the benchmark's
// 13 300; the 30 000/s schedule crosses it, and the test checks that its
// reference does evict a bucket still limiting its source. Rate-Limiter2's
// schedules add the benchmark's own: verified_repeat's 2048 sources at 12 000
// charges/s, newcomer_churn's 4 000 one-shot sources/s, and both with the
// mitigation ladder's strict↔normal toggle.
//
// It also reads the entries Buckets ever wrote (its high-water Len: it
// deletes nothing, so it only grows into a fresh entry). The reference
// writes all 4096 on every newcomer schedule here. One-shot newcomers alone
// hold about one entry per newcomer in the 1 ÷ rate a once-charged bucket
// takes to refill, and so do steady sources that come back only after it:
// verified_repeat's 2048 share about six. A repeater that drained its burst
// holds the entry of every source charged behind it until it has refilled,
// up to burst ÷ rate later, since only the oldest entry is ever taken over.
func TestBucketsAgreeWithPutRule(t *testing.T) {
	l1 := DefaultLimiter1Config()
	for _, c := range []struct {
		cfg    Limiter2Config
		shapes []shape
	}{
		{Limiter2Config{l1.PerSourceRate, l1.PerSourceBurst, l1.TrackedSources}, []shape{
			{name: "newcomers 4000/s", perSec: 4000, qualifies: true},
			{name: "newcomers 13300/s", perSec: 13300, qualifies: true},
			{name: "newcomers 4000/s, repeaters", perSec: 4000, repeaters: 16, qualifies: true},
			{name: "newcomers 13300/s, repeaters", perSec: 13300, repeaters: 16, qualifies: true},
			{name: "repeaters alone", repeaters: 64, qualifies: true},
			{name: "newcomers 30000/s, repeaters", perSec: 30000, repeaters: 16},
		}},
		{DefaultLimiter2Config(), []shape{
			{name: "verified_repeat", steady: 2048, steadyPerSec: 12000, qualifies: true},
			{name: "newcomer_churn", perSec: 4000, qualifies: true},
			{name: "verified_repeat, toggled", steady: 2048, steadyPerSec: 12000, toggle: true, qualifies: true},
			{name: "newcomer_churn, toggled", perSec: 4000, toggle: true, qualifies: true},
			{name: "newcomers 4000/s, repeaters, steady, toggled", perSec: 4000, repeaters: 16, steady: 2048, steadyPerSec: 12000, toggle: true, qualifies: true},
			{name: "newcomers 30000/s, repeaters", perSec: 30000, repeaters: 16},
		}},
	} {
		rate, burst, tracked := c.cfg.PerSourceRate, c.cfg.PerSourceBurst, c.cfg.TrackedSources
		for _, s := range c.shapes {
			name := s.name + " at " + rateName(c.cfg)
			for seed := int64(1); seed <= 3; seed++ {
				r := newAgreeRun(c.cfg)
				written, refWritten, differ, charges := 0, 0, 0, 0
				for i, e := range schedule(seed, s, rate, burst, 3*time.Second) {
					switch e.op {
					case 'r':
						r.reset()
						continue
					case 't':
						r.toggle()
						continue
					}
					charges++
					a, b := r.got.AllowRequest(e.src, e.at), r.ref.Allow(e.src, e.at)
					if a != b && r.ref.stale == 0 {
						t.Fatalf("%s, seed %d: event %d (%v at %v): Allow %v, the put rule %v", name, seed, i, e.src, e.at, a, b)
					}
					if a != b {
						differ++
					}
					written, refWritten = max(written, r.got.perSrc.tab.Len()), max(refWritten, r.ref.tab.Len())
				}
				if qualifies := r.ref.stale == 0; qualifies != s.qualifies {
					t.Fatalf("%s, seed %d: the put rule evicted %d buckets that had not refilled; qualifying is %v, want %v",
						name, seed, r.ref.stale, qualifies, s.qualifies)
				}
				// A steady source back after its bucket refilled is a newcomer.
				fresh, slowest := s.perSec+s.steadyPerSec, rate
				if s.toggle {
					slowest = strict(c.cfg).PerSourceRate
				}
				bound := int(math.Ceil(fresh/slowest)) + s.repeaters + 8
				if s.repeaters > 0 && fresh > 0 {
					bound = int(math.Ceil(fresh*burst/rate)) + s.repeaters + 8
				}
				if s.perSec > 0 && refWritten != tracked {
					t.Fatalf("%s, seed %d: the put rule wrote %d entries, want all %d", name, seed, refWritten, tracked)
				}
				t.Logf("%s, seed %d: %d charges, %d entries written (put rule %d, bound %d); %d stale evictions, %d decisions differ",
					name, seed, charges, written, refWritten, bound, r.ref.stale, differ)
				if s.qualifies && written > bound {
					t.Errorf("%s, seed %d: %d entries written, want <= %d", name, seed, written, bound)
				}
			}
		}
	}
}

func rateName(cfg Limiter2Config) string {
	return time.Duration(float64(time.Second)/cfg.PerSourceRate).String() + " a token"
}

// FuzzBucketsAgree drives Rate-Limiter2 and the put rule with random
// sources, gaps and rates — three bytes an event: the source, two bytes out
// of a few more than the table holds, and the gap since the last charge in
// units of step microseconds, a gap byte of 0 resetting both (an even
// source) or toggling strict/normal (an odd one) — and compares every Allow
// until the reference first evicts a bucket that had not refilled. Up to
// there the entries Limiter2 holds are never more than the reference's. The
// seeds include Rate-Limiter2's defaults under the benchmark's
// verified_repeat and newcomer_churn shapes, with a toggle between.
func FuzzBucketsAgree(f *testing.F) {
	old := func(script ...byte) []byte { // two-byte events: source, gap in ms
		var b []byte
		for i := 0; i+1 < len(script); i += 2 {
			b = append(b, 0, script[i], script[i+1])
		}
		return b
	}
	f.Add(uint16(4), uint16(100), uint16(20), uint16(1000), old(1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 1, 200, 6, 1))
	f.Add(uint16(1), uint16(10), uint16(2), uint16(1000), old(1, 1, 1, 1, 1, 1, 2, 50, 1, 255, 1, 1))
	f.Add(uint16(8), uint16(1000), uint16(1), uint16(1000), old(1, 3, 2, 3, 3, 3, 9, 0, 1, 3, 4, 30, 5, 30))
	d := DefaultLimiter2Config()
	tracked, rate, burst := uint16(d.TrackedSources), uint16(d.PerSourceRate), uint16(d.PerSourceBurst)
	// verified_repeat: 2048 sources in turn at 12 000 charges/s, 83 µs apart.
	var repeat []byte
	for i := 0; i < 6000; i++ {
		repeat = append(repeat, byte(i%2048>>8), byte(i%2048), 2)
	}
	f.Add(tracked, rate, burst, uint16(83), repeat)
	// newcomer_churn: a new source each 250 µs, 4 000 a second.
	var churn []byte
	for i := 0; i < 6000; i++ {
		churn = append(churn, byte(i>>8), byte(i), 2)
	}
	f.Add(tracked, rate, burst, uint16(250), churn)
	// Both, strict between a third and two thirds of the run.
	var toggled []byte
	for i := 0; i < 6000; i++ {
		if i == 2000 || i == 4000 {
			toggled = append(toggled, 0, 1, 0)
		}
		src := 2048 + i // a newcomer every other charge, past the repeaters
		if i%2 == 0 {
			src = i / 2 % 2048
		}
		toggled = append(toggled, byte(src>>8), byte(src), 2)
	}
	f.Add(tracked, rate, burst, uint16(83), toggled)
	f.Fuzz(func(t *testing.T, tracked, rate, burst, step uint16, script []byte) {
		cfg := Limiter2Config{PerSourceRate: float64(rate), PerSourceBurst: float64(burst), TrackedSources: max(int(tracked)%8192, 1)}
		r := newAgreeRun(cfg)
		space := cfg.TrackedSources + 4
		var now time.Duration
		for i := 0; i+2 < len(script) && r.ref.stale == 0; i += 3 {
			n, gap := int(script[i])<<8|int(script[i+1]), script[i+2]
			if gap == 0 {
				if n%2 == 0 {
					r.reset()
				} else {
					r.toggle()
				}
				continue
			}
			src := ip(n % space)
			now += time.Duration(gap-1) * time.Duration(step) * time.Microsecond
			a, b := r.got.AllowRequest(src, now), r.ref.Allow(src, now)
			if r.ref.stale == 0 && a != b {
				t.Fatalf("event %d (%v at %v): Allow %v, the put rule %v", i/3, src, now, a, b)
			}
			if r.got.Sources() > r.ref.tab.Len() {
				t.Fatalf("event %d: Limiter2 holds %d sources, the put rule %d", i/3, r.got.Sources(), r.ref.tab.Len())
			}
		}
	})
}
