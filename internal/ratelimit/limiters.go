package ratelimit

import (
	"crypto/subtle"
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
	renew(&l.tab, tracked)
}

// renew empties *tab in place, or builds an LRU table of tracked sources if
// the bound changed.
func renew[V any](tab **srctab.Table[V], tracked int) {
	if tracked = max(tracked, 1); *tab == nil || (*tab).Cap() != tracked {
		*tab = srctab.New[V](tracked, srctab.LRU)
	} else {
		(*tab).Reset()
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
	// TrackedSources bounds the verified sources a limiter keeps (LRU): one
	// record each, holding both the source's bucket and the credential it
	// last proved, so it is the bound on both.
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

// MaxCred is the longest credential a record holds: "ip:" or "ck:" and 16
// bytes, the longest the guard forms ("ns:" and the NS codec's 10-byte label
// is 13). Stored inline, it leaves a record without a pointer.
const MaxCred = 3 + 16

// record is what the guard keeps of one verified source: its level, charged
// in limiter epoch epoch, and the first n bytes of cred, the credential it
// last proved (none while n is 0), honored until expires.
type record struct {
	level
	expires time.Duration
	epoch   uint8
	n       uint8
	cred    [MaxCred]byte
}

// CredStats counts what a Limiter2's stored credentials did. No reset takes
// a count back; Sources is a gauge.
type CredStats struct {
	Hits      uint64 // a lookup found a live credential, matching or not
	Misses    uint64 // it found none
	Inserts   uint64 // a verified credential stored where none was live
	Evictions uint64 // a record with a live credential evicted for another source
	Sources   uint64 // records holding a credential, expired ones not yet looked up included
}

// Limiter2 polices verified requests per source host, protecting the ANS
// from non-spoofed DoS (attackers who legitimately obtained a cookie, or
// zombie farms using their real addresses). It is also the table of
// verified sources: a source's record holds its bucket and the credential it
// last proved, so Figure 4's cookie check and the charge after it find the
// source once. Not safe for concurrent use but for Stats.
type Limiter2 struct {
	// Stats is written atomically: read it with atomic loads.
	Stats CredStats

	rate, burst float64
	epoch       uint8
	tab         *srctab.Table[record]
	// ttl and match are what the last Lookup was given and found, for the
	// Charge that follows it.
	ttl   time.Duration
	match bool
}

// NewLimiter2 builds a Limiter2 starting at now.
func NewLimiter2(cfg Limiter2Config, now time.Duration) *Limiter2 {
	l := new(Limiter2)
	l.Reset(cfg)
	return l
}

// Reset returns the limiter to what NewLimiter2 builds, in place, but for
// the counts: its table is reused unless cfg.TrackedSources changed.
func (l *Limiter2) Reset(cfg Limiter2Config) {
	l.Retune(cfg)
	renew(&l.tab, cfg.TrackedSources)
	atomic.StoreUint64(&l.Stats.Sources, 0)
}

// Retune sets the rate and burst every source shares and keeps every record
// and credential: a level charged before restarts at the new burst at its
// next charge, as if the table had been emptied, in O(1). The epoch is a
// byte, so a record left uncharged through 256 retunes keeps its level.
func (l *Limiter2) Retune(cfg Limiter2Config) {
	l.rate, l.burst = cfg.PerSourceRate, max(cfg.PerSourceBurst, 1)
	l.epoch++
}

// Lookup finds src's record, creating and reordering nothing: a source that
// never verified costs a probe of index slots. With a ttl it reports whether
// the record holds cred, live, in a constant-time compare (an early exit
// would leak the stored credential to an attacker presenting guesses), and
// drops a credential found expired; with none nothing matches or counts.
// Nothing may use the limiter between a Lookup and its Charge.
func (l *Limiter2) Lookup(src netip.Addr, cred []byte, now, ttl time.Duration) bool {
	r := l.tab.Get(src.As16())
	if l.ttl, l.match = ttl, false; ttl <= 0 {
		return false
	}
	if r != nil && r.n > 0 && r.expires <= now {
		r.n = 0
		atomic.AddUint64(&l.Stats.Sources, ^uint64(0))
	}
	if r == nil || r.n == 0 {
		atomic.AddUint64(&l.Stats.Misses, 1)
		return false
	}
	atomic.AddUint64(&l.Stats.Hits, 1)
	l.match = subtle.ConstantTimeCompare(r.cred[:r.n], cred) == 1
	return l.match
}

// Charge takes one token from the source the last Lookup found, whose
// request passed the cookie check, and reports whether it may go on to the
// ANS at now. A new record — a full table gives it the least recently
// charged one's — and one charged in an earlier epoch start at full burst.
// Unless the Lookup matched, cred is stored for its ttl, if it fits:
// truncated, a shorter credential could match it.
func (l *Limiter2) Charge(cred []byte, now time.Duration) bool {
	r, found, evicted := l.tab.Keep()
	if evicted && r.n > 0 {
		atomic.AddUint64(&l.Stats.Sources, ^uint64(0))
		if r.expires > now {
			atomic.AddUint64(&l.Stats.Evictions, 1)
		}
	}
	if !found {
		*r = record{level: level{l.burst, now}, epoch: l.epoch}
	} else if r.epoch != l.epoch {
		r.level, r.epoch = level{l.burst, now}, l.epoch
	}
	if l.ttl > 0 && !l.match && len(cred) <= MaxCred {
		if r.n == 0 {
			atomic.AddUint64(&l.Stats.Sources, 1)
			atomic.AddUint64(&l.Stats.Inserts, 1)
		}
		r.expires, r.n = now+l.ttl, uint8(copy(r.cred[:], cred))
	}
	return r.allow(l.rate, l.burst, now)
}

// AllowRequest charges src as a source verified by other means.
func (l *Limiter2) AllowRequest(src netip.Addr, now time.Duration) bool {
	l.Lookup(src, nil, now, 0)
	return l.Charge(nil, now)
}

// Sources reports how many records the limiter holds.
func (l *Limiter2) Sources() int { return l.tab.Len() }
