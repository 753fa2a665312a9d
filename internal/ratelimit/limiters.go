package ratelimit

import (
	"net/netip"
	"sync/atomic"
	"time"

	"dnsguard/internal/metrics"
)

// lruBuckets is a bounded map of per-source token buckets with
// least-recently-used eviction, so an attacker spraying spoofed sources
// cannot exhaust guard memory.
type lruBuckets struct {
	rate, burst float64
	max         int
	m           map[netip.Addr]*lruEntry
	head, tail  *lruEntry // head = most recent
}

type lruEntry struct {
	key        netip.Addr
	bucket     TokenBucket
	prev, next *lruEntry
}

func newLRUBuckets(rate, burst float64, max int) *lruBuckets {
	if max < 1 {
		max = 1
	}
	return &lruBuckets{rate: rate, burst: burst, max: max, m: make(map[netip.Addr]*lruEntry, max)}
}

func (l *lruBuckets) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *lruBuckets) pushFront(e *lruEntry) {
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

// get returns key's bucket, starting a full one for a source not tracked.
// A full table gives the new source the least recently used entry, so a
// flood of never-seen sources — every spoofed packet, once the table is
// full — costs no allocation.
func (l *lruBuckets) get(key netip.Addr, now time.Duration) *TokenBucket {
	e, ok := l.m[key]
	if ok {
		l.unlink(e)
		l.pushFront(e)
		return &e.bucket
	}
	if len(l.m) >= l.max {
		e = l.tail
		l.unlink(e)
		delete(l.m, e.key)
	} else {
		e = new(lruEntry)
	}
	e.key, e.bucket = key, fullBucket(l.rate, l.burst, now)
	l.m[key] = e
	l.pushFront(e)
	return &e.bucket
}

func (l *lruBuckets) len() int { return len(l.m) }

// Limiter1Config parameterizes Limiter1.
type Limiter1Config struct {
	// PerSourceRate is the cookie-response rate allowed to any single
	// source (responses/sec).
	PerSourceRate float64
	// PerSourceBurst tokens of burst per source.
	PerSourceBurst float64
	// GlobalRate caps total cookie responses/sec, bounding worst-case
	// reflected traffic regardless of source diversity.
	GlobalRate float64
	// GlobalBurst tokens of global burst.
	GlobalBurst float64
	// TrackedSources bounds per-source state (LRU) and the top-k sketch.
	TrackedSources int
}

// DefaultLimiter1Config matches the prototype's tuning.
func DefaultLimiter1Config() Limiter1Config {
	return Limiter1Config{
		PerSourceRate:  100,
		PerSourceBurst: 20,
		GlobalRate:     50000,
		GlobalBurst:    5000,
		TrackedSources: 4096,
	}
}

// Limiter1 polices cookie responses (the guard's replies to unverified
// requesters). Because each such response is triggered by a possibly-spoofed
// request, Limiter1 is what keeps the guard from amplifying or reflecting
// attack traffic: it tracks the top requesters and throttles responses to
// them, plus a global ceiling (§III-F, §III-G).
type Limiter1 struct {
	cfg     Limiter1Config
	global  *TokenBucket
	perSrc  *lruBuckets
	top     *TopK[netip.Addr]
	allowed uint64
	denied  uint64
}

// NewLimiter1 builds a Limiter1 starting at now.
func NewLimiter1(cfg Limiter1Config, now time.Duration) *Limiter1 {
	return &Limiter1{
		cfg:    cfg,
		global: NewTokenBucket(cfg.GlobalRate, cfg.GlobalBurst, now),
		perSrc: newLRUBuckets(cfg.PerSourceRate, cfg.PerSourceBurst, cfg.TrackedSources),
		top:    NewTopK[netip.Addr](cfg.TrackedSources / 4),
	}
}

// AllowResponse reports whether a cookie response to src may be sent at now.
func (l *Limiter1) AllowResponse(src netip.Addr, now time.Duration) bool {
	l.top.Observe(src)
	if !l.perSrc.get(src, now).Allow(now) {
		atomic.AddUint64(&l.denied, 1)
		return false
	}
	if !l.global.Allow(now) {
		atomic.AddUint64(&l.denied, 1)
		return false
	}
	atomic.AddUint64(&l.allowed, 1)
	return true
}

// TopRequesters returns the current heaviest cookie requesters.
func (l *Limiter1) TopRequesters(n int) []netip.Addr { return l.top.Top(n) }

// Stats reports allowed and denied response counts. Safe to call from a
// metrics scraper concurrent with AllowResponse.
func (l *Limiter1) Stats() (allowed, denied uint64) {
	return atomic.LoadUint64(&l.allowed), atomic.LoadUint64(&l.denied)
}

// TopKEvictions reports the top-k sketch's eviction count; callers that
// aggregate several limiters (one per dataplane shard) sum these under a
// single series.
func (l *Limiter1) TopKEvictions() uint64 { return l.top.Evictions() }

// MetricsInto registers the limiter's counters under prefix (e.g.
// "guard_rl1_"): <prefix>allowed, <prefix>denied, <prefix>topk_evictions.
func (l *Limiter1) MetricsInto(r *metrics.Registry, prefix string) {
	r.FuncUint(prefix+"allowed", func() uint64 { return atomic.LoadUint64(&l.allowed) })
	r.FuncUint(prefix+"denied", func() uint64 { return atomic.LoadUint64(&l.denied) })
	r.FuncUint(prefix+"topk_evictions", l.top.Evictions)
}

// Limiter2Config parameterizes Limiter2.
type Limiter2Config struct {
	// PerSourceRate is the nominal request rate allowed per verified host
	// (requests/sec). The paper calls this "a nominal rate, which is
	// usually very low" relative to attack rates.
	PerSourceRate float64
	// PerSourceBurst tokens of burst per source.
	PerSourceBurst float64
	// TrackedSources bounds per-source state (LRU).
	TrackedSources int
}

// DefaultLimiter2Config matches the prototype's tuning: generous enough for
// any legitimate LRS, far below what a DoS needs.
func DefaultLimiter2Config() Limiter2Config {
	return Limiter2Config{
		PerSourceRate:  2000,
		PerSourceBurst: 400,
		TrackedSources: 8192,
	}
}

// Limiter2 polices verified requests per source host, protecting the ANS
// from non-spoofed DoS (attackers who legitimately obtained a cookie, or
// zombie farms using their real addresses).
type Limiter2 struct {
	perSrc  *lruBuckets
	allowed uint64
	denied  uint64
}

// NewLimiter2 builds a Limiter2 starting at now.
func NewLimiter2(cfg Limiter2Config, now time.Duration) *Limiter2 {
	return &Limiter2{perSrc: newLRUBuckets(cfg.PerSourceRate, cfg.PerSourceBurst, cfg.TrackedSources)}
}

// AllowRequest reports whether a verified request from src may be forwarded
// to the ANS at now.
func (l *Limiter2) AllowRequest(src netip.Addr, now time.Duration) bool {
	if !l.perSrc.get(src, now).Allow(now) {
		atomic.AddUint64(&l.denied, 1)
		return false
	}
	atomic.AddUint64(&l.allowed, 1)
	return true
}

// Stats reports allowed and denied request counts. Safe to call from a
// metrics scraper concurrent with AllowRequest.
func (l *Limiter2) Stats() (allowed, denied uint64) {
	return atomic.LoadUint64(&l.allowed), atomic.LoadUint64(&l.denied)
}

// MetricsInto registers the limiter's counters under prefix (e.g.
// "guard_rl2_"): <prefix>allowed, <prefix>denied.
func (l *Limiter2) MetricsInto(r *metrics.Registry, prefix string) {
	r.FuncUint(prefix+"allowed", func() uint64 { return atomic.LoadUint64(&l.allowed) })
	r.FuncUint(prefix+"denied", func() uint64 { return atomic.LoadUint64(&l.denied) })
}

// Sources reports how many per-source buckets are live.
func (l *Limiter2) Sources() int { return l.perSrc.len() }
