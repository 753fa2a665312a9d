package ratelimit

import (
	"net/netip"
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
	return b.allow(l.rate, l.burst, now)
}

// Limiter1Config parameterizes Limiter1.
type Limiter1Config struct {
	// PerSourceRate is the cookie-response rate allowed to any single
	// source (responses/sec).
	PerSourceRate float64
	// PerSourceBurst tokens of burst per source.
	PerSourceBurst float64
	// GlobalRate caps the cookie responses/sec of one limiter, bounding
	// worst-case reflected traffic regardless of source diversity. The guard
	// runs one limiter per shard, so the cap is per shard.
	GlobalRate float64
	// GlobalBurst tokens of global burst.
	GlobalBurst float64
	// TrackedSources bounds per-source state (LRU).
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
// attack traffic: a per-source budget plus a global ceiling (§III-F,
// §III-G). The paper's "top requesters" are the per-source buckets: a heavy
// requester is always among the most recently used, so the LRU never evicts
// it and its bucket throttles it.
type Limiter1 struct {
	global TokenBucket
	perSrc Buckets
}

// NewLimiter1 builds a Limiter1 starting at now.
func NewLimiter1(cfg Limiter1Config, now time.Duration) *Limiter1 {
	l := new(Limiter1)
	l.Reset(cfg, now)
	return l
}

// Reset returns the limiter to what NewLimiter1(cfg, now) builds, in place:
// its table is reused unless cfg.TrackedSources changed. Not safe
// concurrently with AllowResponse.
func (l *Limiter1) Reset(cfg Limiter1Config, now time.Duration) {
	l.global = *NewTokenBucket(cfg.GlobalRate, cfg.GlobalBurst, now)
	l.perSrc.Reset(cfg.PerSourceRate, cfg.PerSourceBurst, cfg.TrackedSources)
}

// AllowResponse reports whether a cookie response to src may be sent at now.
func (l *Limiter1) AllowResponse(src netip.Addr, now time.Duration) bool {
	return l.perSrc.Allow(src, now) && l.global.Allow(now)
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
	perSrc Buckets
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
}

// AllowRequest reports whether a verified request from src may be forwarded
// to the ANS at now.
func (l *Limiter2) AllowRequest(src netip.Addr, now time.Duration) bool {
	return l.perSrc.Allow(src, now)
}

// Sources reports how many per-source buckets are live.
func (l *Limiter2) Sources() int { return l.perSrc.tab.Len() }
