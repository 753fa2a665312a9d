// Layered auto-mitigation selector. The paper runs one defense statically;
// operational follow-ups (Rizvi et al.'s layered root-DNS defense, Wei &
// Heidemann's multi-phase spoofing campaigns) chain escalating mitigations
// per attack class instead. The selector is that chain for this guard: a
// small state machine sampling the guard's own counters on a fixed period
// and walking a ladder of rungs, each cumulative over the ones below it:
//
//	LayerPassthrough  relay everything; the guard only watches rates
//	LayerThreshold    the configured ActivationThreshold behavior (§IV-C)
//	LayerCookies      spoof detection forced on regardless of input rate
//	LayerTCPFallback  cookies, and newcomers are TC-redirected to TCP
//	LayerSourceLimit  all of the above with limiters tightened strictFactor×
//
// Each attack class has a documented terminal rung — the point past which
// more mitigation costs legitimate traffic without further protecting the
// ANS: a poisoning sweep targets the upstream path, so forcing cookies
// (which shrinks that path to verified queries) is terminal; water torture
// burns CPU on per-name cookie grants, so TC redirection (the cheapest
// possible reply, and one that forces attackers to complete handshakes) is
// terminal; a spoofed flood with source churn defeats per-source state, so
// the tightened global/per-source limiters are terminal.
//
// Escalation and de-escalation are both hysteretic: climb one rung after
// escalateAfter consecutive hot samples, descend one rung after
// DeescalateAfter consecutive confidently-calm samples (every signal below
// calmFactor of its trigger) and only after MinHold at the current rung. A
// re-escalation shortly after a descent is flap evidence: the next hold is
// extended flapHoldFactor×, so an attacker cannot oscillate the guard by
// pulsing its flood.
package guard

import (
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"

	"dnsguard/internal/metrics"
)

// AttackClass is the selector's belief about what is hitting the guard.
type AttackClass int32

// Attack classes, ordered by classification priority.
const (
	// ClassNone: no signal above threshold.
	ClassNone AttackClass = iota
	// ClassSpoofFlood: high cookie-less or invalid-cookie pressure with
	// low question diversity (the paper's Figure 5/6 floods, including
	// catchment churn across spoofed source populations).
	ClassSpoofFlood
	// ClassWaterTorture: high newcomer pressure spread over many distinct
	// question names (random-subdomain floods).
	ClassWaterTorture
	// ClassPoisoning: datagrams failing the upstream source/question
	// validation (Kaminsky-style transaction-ID sweeps).
	ClassPoisoning
)

func (c AttackClass) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassSpoofFlood:
		return "spoof-flood"
	case ClassWaterTorture:
		return "water-torture"
	case ClassPoisoning:
		return "poisoning"
	default:
		return "class(" + strconv.Itoa(int(c)) + ")"
	}
}

// MitigationLayer is a rung on the mitigation ladder. Rungs are cumulative:
// each applies every control below it.
type MitigationLayer int32

// The ladder, bottom to top.
const (
	LayerPassthrough MitigationLayer = iota
	LayerThreshold
	LayerCookies
	LayerTCPFallback
	LayerSourceLimit
)

func (l MitigationLayer) String() string {
	switch l {
	case LayerPassthrough:
		return "passthrough"
	case LayerThreshold:
		return "threshold"
	case LayerCookies:
		return "cookies"
	case LayerTCPFallback:
		return "tcp-fallback"
	case LayerSourceLimit:
		return "source-limit"
	default:
		return "layer(" + strconv.Itoa(int(l)) + ")"
	}
}

// TerminalLayer reports the documented maximum rung for an attack class —
// the point past which further escalation stops paying (see the package
// comment for the per-class rationale).
func TerminalLayer(c AttackClass) MitigationLayer {
	switch c {
	case ClassSpoofFlood:
		return LayerSourceLimit
	case ClassWaterTorture:
		return LayerTCPFallback
	case ClassPoisoning:
		return LayerCookies
	default:
		return LayerPassthrough
	}
}

// MitigationConfig parameterizes the layered auto-mitigation selector.
// Rates are packets/second; every zero field takes the documented default.
type MitigationConfig struct {
	// Enabled arms the selector. Disarmed (the default), the guard keeps
	// the paper's static behavior exactly: the selector never runs and no
	// control override is applied.
	Enabled bool
	// Interval is the sampling period. 0 means 200ms.
	Interval time.Duration
	// FloodRate is the attack-pressure rate (newcomer grants + RL1 drops +
	// invalid cookies, or raw input while the guard is passthrough-blind)
	// that marks a sample hot. 0 means 500/s.
	FloodRate float64
	// PoisonRate is the upstream-validation-failure rate (spoofed + stray
	// datagrams on the ANS-facing socket) that marks poisoning. 0 means 50/s.
	PoisonRate float64
	// DiverseNames is the estimated count of distinct newcomer question
	// names per sample above which hot flood pressure classifies as water
	// torture rather than a spoofed flood. 0 means 64.
	DiverseNames float64
	// DeescalateAfter is the consecutive calm samples required to descend
	// one rung. 0 means 5.
	DeescalateAfter int
	// MinHold is the minimum dwell at a rung before descending. 0 means 2s.
	MinHold time.Duration
	// FlapWindow: a re-escalation within this of the last descent counts as
	// a flap and extends the next hold flapHoldFactor×. 0 means 10s.
	FlapWindow time.Duration
}

const (
	// calmFactor scales every threshold for the de-escalation check: a
	// sample is confidently calm only when all signals sit below
	// calmFactor×threshold. Samples in the gray zone between hold the
	// current rung.
	calmFactor = 0.25
	// escalateAfter is the consecutive hot samples required to climb one
	// rung.
	escalateAfter = 2
	// flapHoldFactor multiplies MinHold for the flap-extended hold.
	flapHoldFactor = 4
	// strictFactor divides every limiter rate and burst at LayerSourceLimit.
	strictFactor = 10
)

func (c *MitigationConfig) normalize() {
	if c.Interval <= 0 {
		c.Interval = 200 * time.Millisecond
	}
	if c.FloodRate <= 0 {
		c.FloodRate = 500
	}
	if c.PoisonRate <= 0 {
		c.PoisonRate = 50
	}
	if c.DiverseNames <= 0 {
		c.DiverseNames = 64
	}
	if c.DeescalateAfter <= 0 {
		c.DeescalateAfter = 5
	}
	if c.MinHold <= 0 {
		c.MinHold = 2 * time.Second
	}
	if c.FlapWindow <= 0 {
		c.FlapWindow = 10 * time.Second
	}
}

// MitigationStats counts selector activity. Fields are written atomically.
type MitigationStats struct {
	Samples               uint64 // selector evaluations
	Escalations           uint64 // rungs climbed
	Deescalations         uint64 // rungs descended
	FlapHolds             uint64 // holds extended by flap suppression
	SpoofFloodIntervals   uint64 // samples classified spoof-flood
	WaterTortureIntervals uint64 // samples classified water-torture
	PoisoningIntervals    uint64 // samples classified poisoning
}

// MitigationStatsNames names MitigationStats' fields in order (guard_mitigation_*).
var MitigationStatsNames = []string{
	"samples", "escalations", "deescalations", "flap_holds",
	"spoof_flood_intervals", "water_torture_intervals", "poisoning_intervals",
}

// MitigationState is a read-only snapshot of the selector, exposed through
// Remote.Mitigation.
type MitigationState struct {
	Layer    MitigationLayer
	MaxLayer MitigationLayer // highest rung reached since start
	Class    AttackClass     // last non-none classification (none after full descent)
	Stats    MitigationStats
}

// mitSample is one interval's signal vector, pre-reduced to rates so the
// state machine itself is pure and environment-free (table-driven tests
// feed it directly).
type mitSample struct {
	in      float64 // total ingress: received + engine-shed, pkts/s
	grants  float64 // cookie-less pressure: newcomer grants + RL1 drops, pkts/s
	invalid float64 // failed cookie verifications, pkts/s
	poison  float64 // upstream datagrams failing source/question checks, pkts/s
	names   float64 // estimated distinct newcomer question names this interval
}

// mitigator is the selector state machine. step runs only on the selector
// proc; layer/class/maxLayer are atomics because metrics closures and the
// dataplane read them concurrently under real clocks.
type mitigator struct {
	cfg      MitigationConfig
	layer    atomic.Int32
	class    atomic.Int32
	maxLayer atomic.Int32
	sketch   nameSketch
	stats    MitigationStats

	// step-proc-private transition state.
	hot, calm    int
	lastChange   time.Duration
	lastDescend  time.Duration
	hasDescended bool
	holdUntil    time.Duration
}

func newMitigator(cfg MitigationConfig) *mitigator {
	cfg.normalize()
	return &mitigator{cfg: cfg}
}

// classify maps a sample to an attack class with every threshold scaled by
// f (1 for the hot check, calmFactor for the confidently-calm check).
// Priority: poisoning over water torture over spoofed flood — the rarer,
// more specific signal wins. Raw input volume alone only classifies while
// the guard is passthrough-blind (below LayerCookies nothing populates the
// grant/invalid signals); once cookies are checking, verified volume is
// goodput, not attack evidence.
func (m *mitigator) classify(s mitSample, f float64) AttackClass {
	blind := MitigationLayer(m.layer.Load()) < LayerCookies
	switch {
	case s.poison >= f*m.cfg.PoisonRate:
		return ClassPoisoning
	case s.grants+s.invalid >= f*m.cfg.FloodRate:
		if s.names >= f*m.cfg.DiverseNames {
			return ClassWaterTorture
		}
		return ClassSpoofFlood
	case blind && s.in >= f*m.cfg.FloodRate:
		return ClassSpoofFlood
	}
	return ClassNone
}

// step advances the ladder by at most one rung for one sample.
func (m *mitigator) step(now time.Duration, s mitSample) {
	atomic.AddUint64(&m.stats.Samples, 1)
	class := m.classify(s, 1)
	switch class {
	case ClassSpoofFlood:
		atomic.AddUint64(&m.stats.SpoofFloodIntervals, 1)
	case ClassWaterTorture:
		atomic.AddUint64(&m.stats.WaterTortureIntervals, 1)
	case ClassPoisoning:
		atomic.AddUint64(&m.stats.PoisoningIntervals, 1)
	}
	if class != ClassNone {
		m.class.Store(int32(class))
	}
	layer := MitigationLayer(m.layer.Load())
	term := TerminalLayer(class)
	switch {
	case layer < term:
		m.calm = 0
		m.hot++
		if m.hot >= escalateAfter {
			m.escalate(now)
		}
	case layer > term:
		m.hot = 0
		// Hysteresis: when the sample is merely not-hot (gray zone between
		// calmFactor×threshold and threshold) hold the rung without
		// advancing either counter. A hot sample of a lower-terminal class
		// does count toward descent — the guard is over-mitigated for what
		// it now sees.
		if class == ClassNone && m.classify(s, calmFactor) != ClassNone {
			return
		}
		m.calm++
		if m.calm >= m.cfg.DeescalateAfter && now >= m.holdUntil && now-m.lastChange >= m.cfg.MinHold {
			m.deescalate(now)
		}
	default: // at the terminal rung for the current class
		m.hot, m.calm = 0, 0
	}
}

func (m *mitigator) escalate(now time.Duration) {
	if m.hasDescended && now-m.lastDescend <= m.cfg.FlapWindow {
		// Flap suppression: climbing right after a descent means the
		// attack paused just long enough to lure us down. Extend the next
		// hold so the oscillation cannot continue at the attacker's tempo.
		m.holdUntil = now + flapHoldFactor*m.cfg.MinHold
		atomic.AddUint64(&m.stats.FlapHolds, 1)
	}
	l := m.layer.Add(1)
	m.hot = 0
	m.lastChange = now
	if l > m.maxLayer.Load() {
		m.maxLayer.Store(l)
	}
	atomic.AddUint64(&m.stats.Escalations, 1)
}

func (m *mitigator) deescalate(now time.Duration) {
	l := m.layer.Add(-1)
	m.calm = 0
	m.lastChange = now
	m.lastDescend = now
	m.hasDescended = true
	atomic.AddUint64(&m.stats.Deescalations, 1)
	if MitigationLayer(l) == LayerPassthrough {
		m.class.Store(int32(ClassNone))
	}
}

func (m *mitigator) snapshot() MitigationState {
	return MitigationState{
		Layer:    MitigationLayer(m.layer.Load()),
		MaxLayer: MitigationLayer(m.maxLayer.Load()),
		Class:    AttackClass(m.class.Load()),
		Stats:    metrics.SnapshotUint64(&m.stats),
	}
}

// nameSketch estimates the distinct newcomer question names seen since the
// last drain: a 1024-bit linear-counting bitmap over an FNV-1a hash. Shard
// workers set bits concurrently (one CAS-or per newcomer); the selector
// drains once per sample. The estimate only feeds a threshold compare, so
// the ±few-percent linear-counting error is irrelevant.
type nameSketch struct {
	words [16]atomic.Uint64
}

func fnv1a(h uint64, c byte) uint64 { return (h ^ uint64(c)) * 1099511628211 }

// observe counts name, a canonical wire name (labels and terminator), hashed
// as the dotted name reads.
func (n *nameSketch) observe(name []byte) {
	h := uint64(14695981039346656037)
	if name[0] == 0 {
		h = fnv1a(h, '.') // the root
	}
	for at := 0; name[at] != 0; {
		if at > 0 {
			h = fnv1a(h, '.')
		}
		end := at + 1 + int(name[at])
		for _, c := range name[at+1 : end] {
			h = fnv1a(h, c)
		}
		at = end
	}
	bit := h & 1023
	w := &n.words[bit>>6]
	mask := uint64(1) << (bit & 63)
	for {
		old := w.Load()
		if old&mask != 0 || w.CompareAndSwap(old, old|mask) {
			return
		}
	}
}

// drain returns the linear-counting estimate and clears the bitmap.
func (n *nameSketch) drain() float64 {
	set := 0
	for i := range n.words {
		set += bits.OnesCount64(n.words[i].Swap(0))
	}
	const m = 1024.0
	switch {
	case set == 0:
		return 0
	case set >= int(m):
		return m * 7 // saturated bitmap: report "a lot", avoid ln(0)
	}
	return m * math.Log(m/(m-float64(set)))
}

// Selector-side plumbing on the guard ---------------------------------------

// Mitigation returns a snapshot of the layered auto-mitigation selector
// (zero-valued, layer passthrough, when the selector is disarmed).
func (g *Remote) Mitigation() MitigationState { return g.mit.snapshot() }

// mitigateLoop is the "guard-mitigate" proc: sample the guard counters
// every Interval and advance the ladder. The rung it leaves is the guard's
// whole control state: Active, effectiveFallback and syncLimiters read it.
func (g *Remote) mitigateLoop() {
	prev := g.Stats()
	prevShed := g.shedNew()
	prevT := g.now()
	for !g.closed.Load() {
		g.cfg.Env.Sleep(g.cfg.Mitigation.Interval)
		if g.closed.Load() {
			return
		}
		cur := g.Stats()
		shed := g.shedNew()
		now := g.now()
		dt := (now - prevT).Seconds()
		if dt <= 0 {
			continue
		}
		s := mitSample{
			in:      float64(cur.Received-prev.Received+shed-prevShed) / dt,
			grants:  float64(cur.NewcomerGrants-prev.NewcomerGrants+cur.RL1Dropped-prev.RL1Dropped) / dt,
			invalid: float64(cur.CookieInvalid-prev.CookieInvalid) / dt,
			poison:  float64(cur.UpstreamSpoofed-prev.UpstreamSpoofed+cur.UpstreamStrays-prev.UpstreamStrays) / dt,
			names:   g.mit.sketch.drain(),
		}
		g.mit.step(now, s)
		prev, prevShed, prevT = cur, shed, now
	}
}

// shedNew sums the capture interfaces' tail-drops across shards: packets
// the flood pushed off their receive queues before the guard ever counted
// them as Received.
func (g *Remote) shedNew() uint64 {
	var t uint64
	for i := 0; i < g.eng.Shards(); i++ {
		t += g.eng.Stats(i).ShedNew
	}
	return t
}

// rung is the ladder's rung while the selector is armed. A disarmed guard is
// at LayerThreshold for good: the paper's static behavior, no override.
func (g *Remote) rung() MitigationLayer {
	if !g.cfg.Mitigation.Enabled {
		return LayerThreshold
	}
	return MitigationLayer(g.mit.layer.Load())
}

// effectiveFallback is the configured scheme below LayerTCPFallback and TCP
// from it up.
func (g *Remote) effectiveFallback() Scheme {
	if g.rung() >= LayerTCPFallback {
		return SchemeTCP
	}
	return g.cfg.Fallback
}

// syncLimiters applies LayerSourceLimit's tightened limiters in worker
// context — the limiters are worker-owned, so resetting them from the
// selector proc would race the hot path. One atomic load per packet when
// nothing changed. A transition empties both limiters' tables in place; it
// allocates nothing. What they dropped is in the shard's tally, which no
// transition touches.
func (s *remoteShard) syncLimiters() {
	strict := s.g.rung() >= LayerSourceLimit
	if s.strict == strict {
		return
	}
	s.strict = strict
	rl1, rl2 := s.g.cfg.RL1, s.g.cfg.RL2
	if strict {
		const f = strictFactor
		rl1.PerSourceRate /= f
		rl1.PerSourceBurst /= f
		rl1.GlobalRate /= f
		rl1.GlobalBurst /= f
		rl2.PerSourceRate /= f
		rl2.PerSourceBurst /= f
	}
	s.rl1.Reset(rl1, s.g.now())
	s.rl2.Reset(rl2)
}

// mitMetricsInto registers the guard_mitigation_* series. Registered
// unconditionally: a flat zero from a disarmed selector is more operable
// than series that appear only once an attack starts.
func (g *Remote) mitMetricsInto(r *metrics.Registry) {
	r.FuncUint("guard_mitigation_enabled", func() uint64 {
		if g.cfg.Mitigation.Enabled {
			return 1
		}
		return 0
	})
	r.Func("guard_mitigation_layer", func() float64 { return float64(g.mit.layer.Load()) })
	r.Func("guard_mitigation_max_layer", func() float64 { return float64(g.mit.maxLayer.Load()) })
	r.Func("guard_mitigation_class", func() float64 { return float64(g.mit.class.Load()) })
	metrics.RegisterUint64Fields(r, "guard_mitigation_", MitigationStatsNames, func() MitigationStats { return metrics.SnapshotUint64(&g.mit.stats) })
}
