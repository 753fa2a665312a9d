// Package gen is the benchmark's open-loop traffic generator: a fixed-tick
// pacing schedule, the wire builders and reply validators for the four
// workloads, the retry/fail state machine of a legitimate operation, and
// (Linux only) the IP_PKTINFO sendmmsg/recvmmsg sockets that give every
// datagram its own 127/8 source address.
//
// The generator depends on nothing inside the guard: it builds and checks
// DNS wires by hand, so a refactor of internal/dnswire cannot change what
// the daemons are offered or how their replies are judged.
package gen

import "time"

// Tick is the pacing period. Packets are due in micro-bursts on tick
// boundaries; a packet's intended send time is its tick's time, so the
// schedule itself adds no latency and everything past the boundary —
// timer overshoot, a stalled sender, host steal — counts as lateness.
const Tick = 250 * time.Microsecond

// Pacer spreads a per-second rate over ticks with integer arithmetic: after
// tick k (0-based) exactly floor((k+1)·rate·Tick) events have been due, so
// any whole second carries exactly rate events and no drift accumulates.
type Pacer struct {
	rate int64
	sent int64
}

// NewPacer returns a pacer for rate events per second.
func NewPacer(rate int) *Pacer { return &Pacer{rate: int64(rate)} }

// Due reports how many events fall due at tick (callers pass consecutive
// ticks; a skipped tick's events are delivered with the next call).
func (p *Pacer) Due(tick int64) int {
	total := (tick + 1) * p.rate * int64(Tick) / int64(time.Second)
	n := total - p.sent
	if n < 0 {
		n = 0
	}
	p.sent += n
	return int(n)
}

// TickTime is tick k's intended time as an offset from the phase start.
func TickTime(k int64) int64 { return k * int64(Tick) }

// Lateness is how far past its intended time a send actually happened;
// an early wake-up is not negative lateness, it is zero.
func Lateness(intended, actual int64) int64 {
	if actual <= intended {
		return 0
	}
	return actual - intended
}

// Rand is splitmix64: tiny, seedable, and good enough to choose source
// offsets, child names, transaction IDs and attack order.
type Rand struct{ s uint64 }

// NewRand seeds a generator; distinct (seed, stream) pairs give unrelated
// sequences.
func NewRand(seed, stream uint64) *Rand {
	return &Rand{s: seed*0x9E3779B97F4A7C15 + stream*0xD1B54A32D192ED03 + 0x2545F4914F6CDD1D}
}

// Uint64 returns the next value.
func (r *Rand) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Walk enumerates a range of size n without repeating: start + i·stride
// mod n with an odd stride coprime to n visits every element once, which is
// what "a source never seen before" needs without remembering any.
type Walk struct {
	n, pos, stride uint64
}

// NewWalk picks a start and stride from r; n must be a power of two (any odd
// stride is then coprime to it).
func NewWalk(r *Rand, n uint64) *Walk {
	return &Walk{n: n, pos: r.Uint64() % n, stride: (r.Uint64() % n) | 1}
}

// Next returns the next element of the range.
func (w *Walk) Next() uint64 {
	v := w.pos
	w.pos = (w.pos + w.stride) & (w.n - 1)
	return v
}
