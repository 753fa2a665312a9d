package ratelimit

import (
	"net/netip"
	"time"

	"dnsguard/internal/srctab"
)

// Buckets is a bounded table of per-source token buckets with least-
// recently-used eviction, so an attacker spraying spoofed sources cannot
// exhaust guard memory. It keeps a bucket only while the bucket still
// limits its source: one back at its burst decides what an absent one
// would, so the next new source takes its entry. A source's entry is its
// level alone; the rate and burst every source shares live here, once. The
// table is built at the first Allow, so a limiter that never charges a
// source holds none. The zero value is unusable until Reset; not safe for
// concurrent use.
type Buckets struct {
	rate, burst float64
	tracked     int
	tab         *srctab.Table[level]
}

// Reset sets the shared rate and burst and empties the table in place. A
// table built for another bound is dropped; the next Allow builds one.
func (l *Buckets) Reset(rate, burst float64, tracked int) {
	l.rate, l.burst, l.tracked = rate, max(burst, 1), max(tracked, 1)
	if l.tab != nil && l.tab.Cap() == l.tracked {
		l.tab.Reset()
	} else {
		l.tab = nil
	}
}

// Allow charges src one token, starting a full bucket for a source not
// tracked. The new source takes the least recently used entry when that
// entry's bucket has refilled by now, or when the table is full; only while
// the oldest bucket still limits its source does it take a fresh entry. So
// a flood of never-seen sources — every spoofed packet — costs no
// allocation, and one-shot sources rotate through about rate-of-newcomers ÷
// rate entries rather than the whole table.
func (l *Buckets) Allow(src netip.Addr, now time.Duration) bool {
	if l.tab == nil {
		l.tab = srctab.New[level](l.tracked, srctab.LRU)
	}
	reuse := false
	if l.tab.Get(src.As16()) == nil {
		old := l.tab.Oldest()
		reuse = old != nil && old.refilled(l.rate, l.burst, now)
	}
	b, found, _ := l.tab.Keep(reuse)
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
// §III-G). The paper's "top requesters" are the per-source buckets still
// below their burst: a heavy requester is always among the most recently
// used and its bucket is never back at its burst, so neither the LRU nor a
// newcomer takes its entry and its bucket throttles it. A source answered
// once keeps its entry only until its bucket refills.
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
// a table it has built is emptied and kept unless cfg.TrackedSources
// changed. Not safe concurrently with AllowResponse.
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
		TrackedSources: 4096,
	}
}

// Limiter2 polices verified requests per source host, protecting the ANS
// from non-spoofed DoS (attackers who legitimately obtained a cookie, or
// zombie farms using their real addresses). Its per-source buckets are
// Rate-Limiter1's kind: a source charged once holds an entry only until its
// bucket refills, so sources that verify once and never return share a few
// entries. Not safe for concurrent use.
type Limiter2 struct {
	perSrc Buckets
}

// NewLimiter2 builds a Limiter2 starting at now.
func NewLimiter2(cfg Limiter2Config, now time.Duration) *Limiter2 {
	l := new(Limiter2)
	l.Reset(cfg)
	return l
}

// Reset returns the limiter to what NewLimiter2 builds, in place: a table
// it has built is emptied and kept unless cfg.TrackedSources changed. A
// source charged before restarts at the new burst, which is what a
// strict/normal mitigation toggle and a supervised shard restart ask for.
func (l *Limiter2) Reset(cfg Limiter2Config) {
	l.perSrc.Reset(cfg.PerSourceRate, cfg.PerSourceBurst, cfg.TrackedSources)
}

// AllowRequest charges src, whose request passed the cookie check, one
// token and reports whether the request may go on to the ANS at now.
func (l *Limiter2) AllowRequest(src netip.Addr, now time.Duration) bool {
	return l.perSrc.Allow(src, now)
}

// Sources reports how many sources the limiter holds.
func (l *Limiter2) Sources() int {
	if l.perSrc.tab == nil {
		return 0
	}
	return l.perSrc.tab.Len()
}
