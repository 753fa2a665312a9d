package ratelimit

import (
	"net/netip"
	"sync/atomic"
	"time"

	"dnsguard/internal/srctab"
)

// Buckets is a bounded table of per-source token buckets with least-
// recently-used eviction, so an attacker spraying spoofed sources cannot
// exhaust guard memory. A source's entry is its level alone; the rate and
// burst every source shares live here, once. The zero value is unusable
// until Reset; not safe for concurrent use.
type Buckets struct {
	rate, burst float64
	tab         *srctab.Table[level]
}

// Reset empties the table (reusing it when the bound is unchanged) and sets
// the shared rate and burst.
func (l *Buckets) Reset(rate, burst float64, tracked int) {
	l.rate, l.burst = rate, max(burst, 1)
	if tracked = max(tracked, 1); l.tab == nil || l.tab.Cap() != tracked {
		l.tab = srctab.New[level](tracked, srctab.LRU)
	} else {
		l.tab.Reset()
	}
}

// Allow charges src one token, starting a full bucket for a source not
// tracked. A full table gives the new source the least recently used entry,
// so a flood of never-seen sources — every spoofed packet, once the table
// is full — costs no allocation.
func (l *Buckets) Allow(src netip.Addr, now time.Duration) bool {
	b, found, _ := l.tab.Put(src.As16())
	if !found {
		*b = level{l.burst, now}
	}
	return b.allowN(l.rate, l.burst, now, 1)
}

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
	global  TokenBucket
	perSrc  Buckets
	top     TopK
	allowed atomic.Uint64
	denied  atomic.Uint64
}

// NewLimiter1 builds a Limiter1 starting at now.
func NewLimiter1(cfg Limiter1Config, now time.Duration) *Limiter1 {
	l := new(Limiter1)
	l.Reset(cfg, now)
	return l
}

// Reset returns the limiter to what NewLimiter1(cfg, now) builds, counters
// included, in place: its tables are reused unless cfg.TrackedSources
// changed. Not safe concurrently with AllowResponse.
func (l *Limiter1) Reset(cfg Limiter1Config, now time.Duration) {
	l.global = *NewTokenBucket(cfg.GlobalRate, cfg.GlobalBurst, now)
	l.perSrc.Reset(cfg.PerSourceRate, cfg.PerSourceBurst, cfg.TrackedSources)
	l.top.reset(cfg.TrackedSources / 4)
	l.allowed.Store(0)
	l.denied.Store(0)
}

// AllowResponse reports whether a cookie response to src may be sent at now.
func (l *Limiter1) AllowResponse(src netip.Addr, now time.Duration) bool {
	l.top.Observe(src)
	if !l.perSrc.Allow(src, now) || !l.global.Allow(now) {
		l.denied.Add(1)
		return false
	}
	l.allowed.Add(1)
	return true
}

// TopRequesters returns the current heaviest cookie requesters.
func (l *Limiter1) TopRequesters(n int) []netip.Addr { return l.top.Top(n) }

// Stats reports allowed and denied response counts. Safe to call from a
// metrics scraper concurrent with AllowResponse.
func (l *Limiter1) Stats() (allowed, denied uint64) {
	return l.allowed.Load(), l.denied.Load()
}

// TopKEvictions reports the top-k sketch's eviction count; callers that
// aggregate several limiters (one per dataplane shard) sum these under a
// single series.
func (l *Limiter1) TopKEvictions() uint64 { return l.top.Evictions() }

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
	perSrc  Buckets
	allowed atomic.Uint64
	denied  atomic.Uint64
}

// NewLimiter2 builds a Limiter2 starting at now.
func NewLimiter2(cfg Limiter2Config, now time.Duration) *Limiter2 {
	l := new(Limiter2)
	l.Reset(cfg)
	return l
}

// Reset is Limiter1.Reset for Limiter2.
func (l *Limiter2) Reset(cfg Limiter2Config) {
	l.perSrc.Reset(cfg.PerSourceRate, cfg.PerSourceBurst, cfg.TrackedSources)
	l.allowed.Store(0)
	l.denied.Store(0)
}

// AllowRequest reports whether a verified request from src may be forwarded
// to the ANS at now.
func (l *Limiter2) AllowRequest(src netip.Addr, now time.Duration) bool {
	if !l.perSrc.Allow(src, now) {
		l.denied.Add(1)
		return false
	}
	l.allowed.Add(1)
	return true
}

// Stats reports allowed and denied request counts. Safe to call from a
// metrics scraper concurrent with AllowRequest.
func (l *Limiter2) Stats() (allowed, denied uint64) {
	return l.allowed.Load(), l.denied.Load()
}

// Sources reports how many per-source buckets are live.
func (l *Limiter2) Sources() int { return l.perSrc.tab.Len() }
