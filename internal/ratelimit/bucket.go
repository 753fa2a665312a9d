// Package ratelimit provides the traffic-policing building blocks the DNS
// Guard uses (§III-F, Figure 4):
//
//   - TokenBucket: classic rate + burst policing on a caller-supplied clock
//     (virtual time in simulations, wall time in daemons);
//   - Limiter1: polices cookie responses so the guarded ANS cannot be used
//     as a traffic reflector (per-source + global budgets);
//   - Limiter2: per-host nominal rate limiting for verified (non-spoofed)
//     requesters, bounding what a cookie-holding attacker or zombie farm can
//     push through the guard, in one record per source that also holds the
//     credential the source last proved.
package ratelimit

import "time"

// TokenBucket enforces an average rate with a burst allowance. The zero value
// is unusable; construct with NewTokenBucket. Time is supplied by the caller
// as a monotonic offset so the same code runs under virtual and real clocks.
type TokenBucket struct {
	rate  float64 // tokens per second
	burst float64
	level
}

// level is the part of a bucket that varies: what a per-source table keeps
// for each source, with the rate and burst held once beside the table.
type level struct {
	tokens float64
	last   time.Duration
}

// NewTokenBucket returns a bucket that starts full.
func NewTokenBucket(ratePerSec, burst float64, now time.Duration) *TokenBucket {
	burst = max(burst, 1)
	return &TokenBucket{rate: ratePerSec, burst: burst, level: level{burst, now}}
}

// at is the tokens the level holds at now, capped at burst: what refill
// leaves, and what refilled compares, in one expression.
func (l *level) at(rate, burst float64, now time.Duration) float64 {
	if now <= l.last {
		return l.tokens
	}
	tokens := l.tokens + rate*(now-l.last).Seconds()
	if tokens > burst {
		tokens = burst
	}
	return tokens
}

func (l *level) refill(rate, burst float64, now time.Duration) {
	if now > l.last {
		l.tokens, l.last = l.at(rate, burst, now), now
	}
}

// refilled reports whether the level is back at burst by now. From then on
// it decides exactly what a new bucket would, so a table may drop it.
func (l *level) refilled(rate, burst float64, now time.Duration) bool {
	return l.at(rate, burst, now) >= burst
}

func (l *level) allow(rate, burst float64, now time.Duration) bool {
	l.refill(rate, burst, now)
	if l.tokens < 1 {
		return false
	}
	l.tokens--
	return true
}

// Allow consumes one token if available and reports whether the event
// conforms to the configured rate.
func (b *TokenBucket) Allow(now time.Duration) bool { return b.allow(b.rate, b.burst, now) }

// RateEstimator measures an aggregate event rate over a sliding window of
// fixed-size buckets. The guard uses it for threshold activation: spoof
// detection engages only when the input rate exceeds the ANS capacity
// (§IV-C).
type RateEstimator struct {
	bucketLen time.Duration
	counts    []uint64
	times     []time.Duration
	idx       int
}

// NewRateEstimator builds an estimator with n buckets of length each; the
// window is n×length.
func NewRateEstimator(n int, length time.Duration) *RateEstimator {
	if n < 2 {
		n = 2
	}
	return &RateEstimator{
		bucketLen: length,
		counts:    make([]uint64, n),
		times:     make([]time.Duration, n),
	}
}

// Observe records one event at now. Timestamps that regress behind the
// current bucket (NTP step, captured packets delivered out of order) are
// folded into the current bucket: advancing on a stale slot would stamp a
// fresh bucket with an old time and corrupt the window's rate for a full
// rotation.
func (e *RateEstimator) Observe(now time.Duration) {
	slot := now / e.bucketLen
	cur := e.times[e.idx]
	switch {
	case slot <= cur:
		e.counts[e.idx]++
	default:
		e.idx = (e.idx + 1) % len(e.counts)
		e.times[e.idx] = slot
		e.counts[e.idx] = 1
	}
}

// Rate returns the estimated events/second at now.
func (e *RateEstimator) Rate(now time.Duration) float64 {
	slot := now / e.bucketLen
	var total uint64
	var valid int
	for i := range e.counts {
		if age := slot - e.times[i]; age >= 0 && age < time.Duration(len(e.counts)) && e.counts[i] > 0 {
			total += e.counts[i]
			valid++
		}
	}
	if valid == 0 {
		return 0
	}
	window := time.Duration(len(e.counts)) * e.bucketLen
	return float64(total) / window.Seconds()
}
