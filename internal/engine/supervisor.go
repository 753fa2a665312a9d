package engine

// Shard supervision: the survivability layer for the dataplane. The paper's
// guard sits in front of an ANS precisely because the ANS is fragile under
// attack traffic — which makes a crashing guard worker the attacker's
// cheapest win. One malformed packet that panics a handler must not take
// down the proc owning 1/Nth of all sources. Supervision puts a recover
// boundary around every handler invocation: a panic quarantines the
// offending packet (hex dump + panic value in a bounded ring, so an operator
// can extract a reproducer), restarts the shard with fresh per-packet state,
// and — when one shard keeps dying — trips it into an explicit degraded mode
// (drop or pass-through) instead of burning CPU on a crash loop.
//
// Every packet crosses the one recover boundary in dispatch; Enabled selects
// what a caught panic does. Enabled, it quarantines, restarts and trips as
// above. Disabled, the panic is raised again inside the boundary, so an
// unsupervised dataplane dies as a bare handler call would, with the
// handler's frames in its trace. Neither setting changes what a packet that
// does not panic does, so deterministic simulations replay alike under both.

import (
	"encoding/hex"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnsguard/internal/metrics"
)

// TripPolicy selects what a shard does after exhausting its restart budget.
type TripPolicy int

const (
	// TripDrop blackholes the tripped shard's traffic (fail-closed): its
	// sources lose service but the guard keeps protecting the ANS.
	TripDrop TripPolicy = iota
	// TripPass hands the tripped shard's packets to SupervisorConfig.OnPass
	// (fail-open): the guard stops filtering that shard's sources rather
	// than silencing them. Which failure mode is safer depends on whether
	// the ANS behind the guard can survive unfiltered load.
	TripPass
)

// SupervisorConfig gates and parameterizes shard supervision.
type SupervisorConfig struct {
	// Enabled turns supervision on. The zero value re-raises a handler
	// panic, which crashes the process.
	Enabled bool
	// Trip selects the degraded mode for a shard over its restart budget:
	// more than maxRestarts restarts within restartWindow.
	Trip TripPolicy
	// OnPass delivers a tripped shard's packets under TripPass. It runs in
	// worker context inside its own recover boundary; nil degrades TripPass
	// to dropping.
	OnPass func(shard int, pkt Packet)
}

const (
	// quarantineCap bounds the quarantined-packet ring (oldest evicted first).
	quarantineCap = 32
	// maxRestarts is a shard's restart budget within the rolling
	// restartWindow; exceeding it trips the shard.
	maxRestarts   = 5
	restartWindow = time.Minute
)

// SupervisionStats counts supervision events engine-wide. Fields are written
// atomically; RegisterUint64Fields exports them (e.g. shard_restarts →
// guard_engine_shard_restarts under the guard's prefix).
type SupervisionStats struct {
	ShardRestarts      uint64 // handler panics that led to a shard restart
	PanicsQuarantined  uint64 // packets captured in the quarantine ring
	ShardsTripped      uint64 // shards that exhausted their restart budget
	TrippedDrops       uint64 // packets dropped by a tripped shard
	TrippedPassthrough uint64 // packets handed to OnPass by a tripped shard
}

// SupervisionStatsNames names SupervisionStats' fields in order (<prefix>*).
var SupervisionStatsNames = []string{
	"shard_restarts", "panics_quarantined", "shards_tripped", "tripped_drops",
	"tripped_passthrough",
}

// QuarantinedPacket is one packet that panicked a shard handler, preserved
// for offline analysis. Dump is a hex.Dump of the payload so the record is
// self-contained even after the packet buffer is reused.
type QuarantinedPacket struct {
	Shard      int
	At         time.Duration // Env.Now() when the panic was caught
	Src, Dst   netip.AddrPort
	PanicValue string
	Dump       string
}

// Resetter is an optional Handler capability consumed by supervision: a
// restarting shard calls ResetShard to discard per-packet state (pending
// tables, rate limiters) while keeping resources whose lifetime outlives a
// restart (upstream sockets and the procs reading them). The handler itself
// stays: a restart resets it in place.
type Resetter interface {
	ResetShard()
}

// supShard is one shard's supervision state. recent is touched only by the
// owning worker proc; tripped is read cross-proc (tests, metrics) and so is
// atomic.
type supShard struct {
	recent  []time.Duration
	tripped atomic.Bool
}

// supervisor aggregates the engine's supervision state.
type supervisor struct {
	stats  SupervisionStats
	shards []supShard

	qmu  sync.Mutex
	ring []QuarantinedPacket // bounded by quarantineCap
}

// Supervision returns an atomically-read copy of the supervision counters.
func (e *Engine) Supervision() SupervisionStats {
	return metrics.SnapshotUint64(&e.sup.stats)
}

// ShardTripped reports whether shard i has exhausted its restart budget and
// entered its degraded mode.
func (e *Engine) ShardTripped(i int) bool { return e.sup.shards[i].tripped.Load() }

// Quarantined returns a copy of the quarantine ring, oldest first.
func (e *Engine) Quarantined() []QuarantinedPacket {
	e.sup.qmu.Lock()
	defer e.sup.qmu.Unlock()
	out := make([]QuarantinedPacket, len(e.sup.ring))
	copy(out, e.sup.ring)
	return out
}

// panicText renders a panic value as fmt.Sprint renders the ones handlers
// panic with: an error, a string, or a value with a String method.
func panicText(v any) string {
	switch v := v.(type) {
	case error:
		return v.Error()
	case string:
		return v
	case interface{ String() string }:
		return v.String()
	}
	return "panic value with no text"
}

// quarantinePacket records pkt and the panic value in the bounded ring.
func (e *Engine) quarantinePacket(shard int, pkt Packet, panicVal any) {
	qp := QuarantinedPacket{
		Shard:      shard,
		At:         e.cfg.Env.Now(),
		Src:        pkt.Src,
		Dst:        pkt.Dst,
		PanicValue: panicText(panicVal),
		Dump:       hex.Dump(pkt.Payload),
	}
	e.sup.qmu.Lock()
	if len(e.sup.ring) >= quarantineCap {
		e.sup.ring = e.sup.ring[1:]
	}
	e.sup.ring = append(e.sup.ring, qp)
	e.sup.qmu.Unlock()
	atomic.AddUint64(&e.sup.stats.PanicsQuarantined, 1)
}

// dispatch runs the Observer and then shard's handler h on one packet inside
// the recover boundary. Under supervision a panic is contained to this one
// packet; without it the panic is raised again. The Observer runs inside the
// boundary, which doubles as the panic-injection hook for tests.
func (e *Engine) dispatch(shard int, h Handler, pkt Packet) {
	ss := &e.sup.shards[shard]
	if ss.tripped.Load() {
		e.dispatchTripped(shard, pkt)
		return
	}
	defer func() {
		if r := recover(); r != nil {
			if !e.cfg.Supervisor.Enabled {
				panic(r)
			}
			e.quarantinePacket(shard, pkt, r)
			e.restartShard(shard)
		}
	}()
	if e.cfg.Observer != nil {
		e.cfg.Observer(shard, pkt)
	}
	h.HandlePacket(pkt)
}

// dispatchTripped applies the trip policy to one packet.
func (e *Engine) dispatchTripped(shard int, pkt Packet) {
	sc := &e.cfg.Supervisor
	if sc.Trip == TripPass && sc.OnPass != nil {
		defer func() {
			if recover() != nil {
				atomic.AddUint64(&e.sup.stats.TrippedDrops, 1)
			}
		}()
		sc.OnPass(shard, pkt)
		atomic.AddUint64(&e.sup.stats.TrippedPassthrough, 1)
		return
	}
	atomic.AddUint64(&e.sup.stats.TrippedDrops, 1)
}

// restartShard gives shard its restart: a Resetter handler discards its
// per-packet state in place — a panic mid-update could have left it
// inconsistent. Exhausting the restart budget inside the rolling window trips
// the shard instead. Runs in the owning worker's context, inside the dispatch
// recover.
func (e *Engine) restartShard(shard int) {
	ss := &e.sup.shards[shard]
	now := e.cfg.Env.Now()
	atomic.AddUint64(&e.sup.stats.ShardRestarts, 1)

	// Prune restart times that have aged out of the rolling window.
	keep := ss.recent[:0]
	for _, t := range ss.recent {
		if now-t < restartWindow {
			keep = append(keep, t)
		}
	}
	ss.recent = append(keep, now)
	if len(ss.recent) > maxRestarts {
		e.tripShard(shard)
		return
	}

	// Fresh state. A panic during reset means the handler cannot recover
	// itself; trip rather than crash-loop through resets.
	defer func() {
		if recover() != nil {
			e.tripShard(shard)
		}
	}()
	if r, ok := e.handlers[shard].(Resetter); ok {
		r.ResetShard()
	}
}

func (e *Engine) tripShard(shard int) {
	if e.sup.shards[shard].tripped.CompareAndSwap(false, true) {
		atomic.AddUint64(&e.sup.stats.ShardsTripped, 1)
	}
}
