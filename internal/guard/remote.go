package guard

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/engine"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
	"dnsguard/internal/ratelimit"
	"dnsguard/internal/srctab"
)

// Scheme selects how the guard bootstraps cookie-less requesters.
type Scheme int

// Fallback schemes for requesters that do not speak the cookie extension.
const (
	// SchemeDNS embeds cookies in fabricated NS names (and, for
	// non-referral answers, in a fabricated server address within the
	// guard's subnet) — §III-B.
	SchemeDNS Scheme = iota + 1
	// SchemeTCP redirects the requester to TCP via the truncation flag —
	// §III-C. The TCP side is served by internal/tcpproxy.
	SchemeTCP
)

func (s Scheme) String() string {
	switch s {
	case SchemeDNS:
		return "dns-based"
	case SchemeTCP:
		return "tcp-based"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// RemoteConfig parameterizes the ANS-side guard.
type RemoteConfig struct {
	// Env supplies clock and sockets.
	Env netapi.Env
	// IOs are the capture interfaces for the protected address space,
	// required: a simulated host's tap, or one SocketIO per shard (what
	// netapi.UDPReuseEnv returns where sockets can be steered) or one for
	// all shards; NewRemote refuses any other count. Handing over one per
	// shard asserts that the environment steers every datagram of a source
	// to the same interface; the engine does not check. A shard's replies
	// leave through the interface it reads.
	IOs []PacketIO
	// Shards is the dataplane worker count; every per-source structure
	// (pending NAT table, rate limiters, verifier) is owned by one shard. 0
	// and 1 mean one shard. With one interface per shard, a shard reads its
	// own interface and handles packets in that loop with no queue hop; with
	// one interface for several shards its reader fans out by source hash,
	// which is what netsim gets and what keeps its replays deterministic
	// (engine package comment).
	Shards int
	// Batch is the most datagrams one read may return, on the capture
	// interface and on each shard's upstream socket. 0 and 1 mean one
	// datagram per read. The loops are the same at every value; larger
	// values amortize the read syscall, the shard queue hop, the keyring
	// snapshot, and the egress writes over the packets that were already
	// waiting. Per-packet semantics (admission policy, supervision,
	// observer, all counters) do not depend on it.
	Batch int
	// FastPathTTL is ignored: the guard keeps no verified credentials, and
	// every cookie it is shown pays its MAC.
	//
	// Deprecated: only bench/layers, and the guard's tests that show it
	// ignored, set it. It goes with ROADMAP item 1(a).
	FastPathTTL time.Duration
	// PublicAddr is the ANS's advertised address, which the guard
	// intercepts and answers from.
	PublicAddr netip.AddrPort
	// ANSAddr is where the real ANS actually listens (the guard's private
	// path to it).
	ANSAddr netip.AddrPort
	// ANSFallbacks are ordered secondary ANS addresses (e.g. a hidden
	// replica) tried in sequence when the primary's circuit breaker opens. A
	// non-empty list turns on the per-shard upstream circuit breaker and the
	// pending-table sweeper feeding it; an empty one keeps the historical
	// proc set exactly.
	ANSFallbacks []netip.AddrPort
	// Health selects the breaker's overload policy.
	Health HealthConfig
	// Supervision configures dataplane shard supervision (recover boundary,
	// quarantine, restart budget, trip policy) — see engine.SupervisorConfig.
	// When Trip is engine.TripPass and OnPass is nil, tripped shards relay
	// their packets unfiltered via the guard's passthrough path.
	Supervision engine.SupervisorConfig
	// Zone is the apex of the zone the protected ANS serves.
	Zone dnswire.Name
	// Subnet is the intercepted prefix used for IP cookies (scheme 1b,
	// non-referral answers). Invalid/zero disables the fabricated-IP
	// variant; non-referral first contacts then fail closed.
	Subnet netip.Prefix
	// Fallback is the scheme used for cookie-less requesters.
	Fallback Scheme
	// TCPClients lists source prefixes that are always redirected to TCP
	// regardless of Fallback (the paper's Figure 5 testbed redirects its
	// second LRS to TCP while the first uses UDP cookies).
	TCPClients []netip.Prefix
	// Auth computes cookies; required.
	Auth *cookie.Authenticator
	// RL1 configures Rate-Limiter1 (cookie responses). Zero-value fields
	// take the defaults of ratelimit.DefaultLimiter1Config, each on its own.
	// Each shard runs its own limiter over the sources it owns, so per-source
	// limits are exact and global budgets are split per shard.
	RL1 ratelimit.Limiter1Config
	// RL2 configures Rate-Limiter2 (verified requests); zero-value fields
	// take the defaults of ratelimit.DefaultLimiter2Config likewise.
	RL2 ratelimit.Limiter2Config
	// ActivationThreshold is the input rate (req/s) above which spoof
	// detection engages; 0 means always on (§IV-C uses the ANS capacity). A
	// negative threshold is refused.
	ActivationThreshold float64
	// KeyRotation, when positive, rotates the cookie key on that period
	// (the paper suggests weekly, matching the cookie TTL so each
	// verification still costs one MD5 — §III-E).
	KeyRotation time.Duration
	// ShardHashSeed, when non-zero, fixes the source→shard hash (see
	// engine.Config.HashSeed). Deterministic simulations set it so
	// multi-shard runs replay bit-identically; production keeps 0.
	ShardHashSeed uint64
	// Mitigation arms the layered auto-mitigation selector (see
	// MitigationConfig and mitigate.go). Disabled by default: the guard
	// then keeps the paper's static activation behavior exactly.
	Mitigation MitigationConfig

	// Settings only tests change; every deployment keeps the defaults. They
	// bound each shard's fan-out ingress queue (0 means the engine's 512), set
	// a NAT-table entry's life (0 means 3 s), and hook each packet in its
	// shard's context before it is handled (engine.Config.Observer; nil means
	// none).
	queueDepth     int
	pendingTimeout time.Duration
	observer       func(shard int, pkt Packet)
}

// nsTTL is the TTL (seconds) of fabricated records and wire cookies: one week
// (§III-E). nsPrefix is the fabricated-label prefix the ingress walk matches.
const (
	nsTTL    = uint32(cookie.DefaultTTL / time.Second)
	nsPrefix = cookie.DefaultNSPrefix
)

// resolve is the one pass over a config: it reports the first missing
// required field, then fills every defaulted one in place. NewRemote runs it
// on its own copy and nothing else does.
func (c *RemoteConfig) resolve() error {
	switch {
	case c.Env == nil:
		return errors.New("guard: RemoteConfig.Env is required")
	case len(c.IOs) == 0:
		return errors.New("guard: RemoteConfig.IOs is required")
	case c.Auth == nil:
		return errors.New("guard: RemoteConfig.Auth is required")
	case !c.PublicAddr.IsValid() || !c.ANSAddr.IsValid():
		return errors.New("guard: PublicAddr and ANSAddr are required")
	case c.ActivationThreshold < 0:
		return fmt.Errorf("guard: negative ActivationThreshold %v (0 means always on)", c.ActivationThreshold)
	case math.IsNaN(c.ActivationThreshold) || math.IsInf(c.ActivationThreshold, 0):
		return fmt.Errorf("guard: ActivationThreshold %v is not a rate: no input rate exceeds it", c.ActivationThreshold)
	case c.RL1.TrackedSources > srctab.MaxCap:
		return fmt.Errorf("guard: RL1.TrackedSources %d over srctab.MaxCap %d", c.RL1.TrackedSources, srctab.MaxCap)
	case c.RL2.TrackedSources > srctab.MaxCap:
		return fmt.Errorf("guard: RL2.TrackedSources %d over srctab.MaxCap %d", c.RL2.TrackedSources, srctab.MaxCap)
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	if c.Fallback == 0 {
		c.Fallback = SchemeDNS
	}
	d1, d2 := ratelimit.DefaultLimiter1Config(), ratelimit.DefaultLimiter2Config()
	orDefault(&c.RL1.PerSourceRate, d1.PerSourceRate)
	orDefault(&c.RL1.PerSourceBurst, d1.PerSourceBurst)
	orDefault(&c.RL1.GlobalRate, d1.GlobalRate)
	orDefault(&c.RL1.GlobalBurst, d1.GlobalBurst)
	orDefault(&c.RL1.TrackedSources, d1.TrackedSources)
	orDefault(&c.RL2.PerSourceRate, d2.PerSourceRate)
	orDefault(&c.RL2.PerSourceBurst, d2.PerSourceBurst)
	orDefault(&c.RL2.TrackedSources, d2.TrackedSources)
	if c.pendingTimeout <= 0 {
		c.pendingTimeout = 3 * time.Second
	}
	c.Health.enabled = c.Health.enabled || len(c.ANSFallbacks) > 0
	if c.Health.threshold <= 0 {
		c.Health.threshold = breakerThreshold
	}
	if c.Health.cooldown <= 0 {
		c.Health.cooldown = breakerCooldown
	}
	if c.Mitigation.Enabled {
		c.Mitigation.normalize()
	}
	return nil
}

// orDefault gives a field left at its zero value its default.
func orDefault[T comparable](v *T, d T) {
	var zero T
	if *v == zero {
		*v = d
	}
}

// RemoteStats counts guard activity; the experiment harness reads these.
// Fields are written with atomic operations (shard workers and the upstream
// loops run concurrently under real clocks); read individual fields with
// atomic.LoadUint64, or take a consistent-enough copy via Load. Every
// datagram an upstream socket reads moves exactly one of RepliesToClient,
// PendingDropped, UpstreamStrays, UpstreamSpoofed and UpstreamMalformed, but
// an answered health probe, which moves none.
type RemoteStats struct {
	Received          uint64 // packets read from the capture interface
	Passthrough       uint64 // relayed while spoof detection inactive
	Malformed         uint64 // queries the view or the record walk refuses, or over MaxDatagram
	NewcomerGrants    uint64 // fabricated NS / TC / cookie responses sent
	RL1Dropped        uint64 // cookie responses suppressed by Rate-Limiter1
	CookieValid       uint64 // requests whose cookie verified
	CookieInvalid     uint64 // spoofed requests dropped
	RL2Dropped        uint64 // verified requests over the nominal rate
	ForwardedToANS    uint64
	RepliesToClient   uint64
	TCRedirects       uint64
	PendingDropped    uint64 // NAT table overflow/expiry losses
	UpstreamStrays    uint64 // duplicated/unmatched ANS responses discarded
	UpstreamSpoofed   uint64 // upstream datagrams failing source/question checks
	UpstreamMalformed uint64 // upstream datagrams not a response the view and the walk take, or over MaxDatagram
	KeyRotations      uint64

	// Upstream health / failover (HealthConfig; zero when disabled, but
	// UpstreamTimeouts, which any reap of an expired entry counts).
	UpstreamTimeouts uint64 // pending entries reaped as upstream timeouts
	BreakerOpens     uint64 // breakers tripped by consecutive timeouts
	BreakerCloses    uint64 // breakers restored by a verified response
	ProbesSent       uint64 // half-open synthetic SOA probes emitted
	Failovers        uint64 // forwards diverted to a fallback upstream
	FailClosedDrops  uint64 // forwards shed with every breaker open
}

// Load returns an atomically-field-read copy of the stats. Each field is
// individually exact; the set is not a single consistent cut, which is fine
// for monitoring and for quiesced test assertions.
func (s *RemoteStats) Load() RemoteStats {
	return metrics.SnapshotUint64(s)
}

// MetricsInto registers every counter as a guard_remote_* series reading
// the live fields, so exports track the struct without copying it.
func (s *RemoteStats) MetricsInto(r *metrics.Registry) {
	metrics.RegisterUint64Fields(r, "guard_remote_", s)
}

// Work counts what one loop of a shard did, by the kinds of work §IV-D prices
// a request with: datagrams read and written; cookie checks, the MAC each
// presented cookie pays and message 6's IP cookie, the fabricated-IP path's
// second cookie computation; grants, a cookie minted into message 2 or 3; truncation
// replies; and rewrites, message 4's restored question or a forward stripped
// of its cookie record. A shard's worker and its upstream loop each count
// their own, so every field has one writer; a health probe is no request's
// work and counts nowhere. The guard_work_* series sum them.
type Work struct {
	Read, Written, Checks, Grants, TCReplies, Rewrites uint64
}

// Remote is the ANS-side DNS guard. Its packet pipeline runs on an
// internal/engine dataplane: source addresses hash to shards, and each shard
// owns every per-source structure (rate limiters, pending NAT table,
// transaction-ID pool, upstream socket), so the hot path takes no cross-shard
// locks. With Shards == 1 the engine runs inline and the guard behaves —
// event for event — like the original single-loop implementation.
type Remote struct {
	cfg RemoteConfig
	nsc cookie.NSCodec
	ipc cookie.IPCodec

	// nsPrefixLen is the full cookie label length the NS codec writes;
	// zoneWire is cfg.Zone as a question carries it.
	nsPrefixLen int
	zoneWire    []byte
	eng         *engine.Engine
	shards      []*remoteShard
	rate        *ratelimit.RateEstimator
	rateMu      sync.Mutex // serializes the rate estimator across shard workers
	active      atomic.Bool
	closed      atomic.Bool

	// Planned-change lifecycle (lifecycle.go): the state machine gauge and
	// its counters. Zero value = serving, so guards that never drain are
	// untouched.
	lcState atomic.Int32
	lc      LifecycleStats

	// Layered auto-mitigation selector state (mitigate.go). mit is always
	// non-nil; its rung is the guard's one control state while
	// cfg.Mitigation.Enabled, and read by nothing otherwise (Remote.rung).
	mit *mitigator

	// Stats is updated as the guard runs (atomically; see RemoteStats).
	Stats RemoteStats
}

// remoteShard is the engine handler for one shard: the slice of guard state
// owned by the sources that hash there. Everything except pend is touched
// only by the shard's worker; the NAT table is shared with the shard's
// upstream loop, hence mu.
type remoteShard struct {
	g        *Remote
	id       int
	io       PacketIO // the interface the shard reads (engine.IO); its replies leave through it
	upstream netapi.UDPConn
	health   *shardHealth // nil unless cfg.Health.enabled

	// rl1 and rl2 are the worker's: it alone charges and resets them
	// (ResetShard, syncLimiters).
	rl1 *ratelimit.Limiter1
	rl2 *ratelimit.Limiter2

	// work is the worker's count of its work, upWork the upstream loop's.
	work, upWork Work

	// mu guards the NAT table.
	mu   sync.Mutex
	pend pendTable

	// strict is whether the limiters hold LayerSourceLimit's configuration;
	// syncLimiters compares it with the rung and resets them on transitions.
	strict bool

	// Batch-bracket state, touched only by the shard's worker between
	// BeginBatch and EndBatch (see batch.go): the keyring snapshot, the
	// coalesced-egress reply buffer, and the egress slab, which owns a reply
	// written from spans until the flush.
	bv     *cookie.BatchVerifier
	outbuf []Packet
	egress []byte

	// wireBuf is worker-context scratch for the rewritten or re-encoded
	// forward; upBuf is upstream-loop-context scratch for a fabricated or
	// re-encoded reply, 512 bytes, and behind them the glue gathered for
	// message 6. The two contexts never share a buffer.
	wireBuf []byte
	upBuf   []byte
}

// ResetShard implements engine.Resetter: a supervised shard restart discards
// every per-packet structure (NAT entries, each counted as PendingDropped,
// and rate limiters — any of which the panic may have left mid-update) while
// keeping the upstream socket, its reader proc, and the breaker state, whose
// lifetimes span restarts. Runs in the owning worker's context.
func (s *remoteShard) ResetShard() {
	s.emptyPending()
	s.rl1.Reset(s.g.cfg.RL1, s.g.now())
	s.rl2.Reset(s.g.cfg.RL2)
	// The limiters now hold the normal configuration whatever the ladder
	// says: forget what was applied so the next packet's syncLimiters
	// re-applies the strict one if the selector still asks for it.
	s.strict = false
}

// MetricsInto registers the guard's counters, a live NAT-table-size gauge,
// and the dataplane's guard_engine_* series on r. What the rate limiters
// stopped is RemoteStats.RL1Dropped and RL2Dropped; what Rate-Limiter2
// admitted is CookieValid less RL2Dropped.
func (g *Remote) MetricsInto(r *metrics.Registry) {
	g.Stats.MetricsInto(r)
	r.Func("guard_remote_pending", func() float64 {
		return float64(g.PendingEntries())
	})
	g.mitMetricsInto(r)
	g.lifecycleMetricsInto(r)
	g.eng.MetricsInto(r, "guard_engine_")
	works := make([]*Work, 0, 2*len(g.shards))
	for _, s := range g.shards {
		works = append(works, &s.work, &s.upWork)
	}
	metrics.RegisterUint64Fields(r, "guard_work_", works...)
}

// Work returns the live counts of shard i's worker and upstream loop; read
// their fields atomically.
func (g *Remote) Work(i int) (worker, upstream *Work) { return &g.shards[i].work, &g.shards[i].upWork }

// NewRemote validates cfg and creates the guard (not yet started).
func NewRemote(cfg RemoteConfig) (*Remote, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	now := cfg.Env.Now()
	g := &Remote{
		cfg:  cfg,
		ipc:  cookie.IPCodec{Subnet: cfg.Subnet},
		rate: ratelimit.NewRateEstimator(10, 100*time.Millisecond),
		mit:  newMitigator(cfg.Mitigation),
	}
	g.nsPrefixLen = len(g.nsc.EncodeLabel(cookie.Cookie{}))
	for _, l := range cfg.Zone.Labels() {
		g.zoneWire = append(append(g.zoneWire, byte(len(l))), l...)
	}
	g.zoneWire = append(g.zoneWire, 0)
	g.shards = make([]*remoteShard, cfg.Shards)
	sup := cfg.Supervision
	if sup.Enabled && sup.Trip == engine.TripPass && sup.OnPass == nil {
		// Fail-open trip: a shard that exhausted its restart budget relays
		// its sources' traffic unfiltered instead of silencing them.
		sup.OnPass = func(shard int, pkt Packet) { g.shards[shard].passthrough(pkt) }
	}
	eng, err := engine.New(engine.Config{
		Env:        cfg.Env,
		IOs:        cfg.IOs,
		Shards:     cfg.Shards,
		QueueDepth: cfg.queueDepth,
		Batch:      cfg.Batch,
		Observer:   cfg.observer,
		Supervisor: sup,
		HashSeed:   cfg.ShardHashSeed,
		NewHandler: func(i int) engine.Handler {
			s := &remoteShard{
				g:       g,
				id:      i,
				rl1:     ratelimit.NewLimiter1(cfg.RL1, now),
				rl2:     ratelimit.NewLimiter2(cfg.RL2, now),
				bv:      cookie.NewBatchVerifier(),
				egress:  make([]byte, 0, cfg.Batch*dnswire.MaxUDPSize),
				wireBuf: make([]byte, 0, dnswire.MaxUDPSize),
				upBuf:   make([]byte, 0, 2*dnswire.MaxUDPSize+16),
			}
			if cfg.Health.enabled {
				s.health = newShardHealth(g)
			}
			g.shards[i] = s
			return s
		},
	})
	if err != nil {
		return nil, fmt.Errorf("guard: %w", err)
	}
	g.eng = eng
	for i, s := range g.shards {
		s.io = eng.IO(i)
	}
	return g, nil
}

// Start opens the per-shard upstream sockets and spawns the dataplane.
// With one shard the spawn sequence is exactly the historical one —
// upstream bind, "guard-capture", "guard-upstream", "guard-rotate" — so
// deterministic simulations replay unchanged.
func (g *Remote) Start() error {
	for k, s := range g.shards {
		up, err := g.cfg.Env.ListenUDP(netip.AddrPort{})
		if err != nil {
			for _, bound := range g.shards[:k] {
				_ = bound.upstream.Close()
				bound.upstream = nil
			}
			return fmt.Errorf("guard: binding upstream socket: %w", err)
		}
		// Best-effort: widen the kernel receive buffer where the conn
		// exposes it. ANS replies arrive in bursts while the shard worker is
		// busy with ingress; the distro default (~208 KiB ≈ 128 small
		// datagrams of skb truesize) silently drops the excess, which shows
		// up as upstream timeouts under load the dataplane could handle.
		if rb, ok := up.(interface{ SetReadBuffer(int) error }); ok {
			_ = rb.SetReadBuffer(4 << 20)
		}
		s.upstream = up
	}
	g.eng.Start()
	for _, s := range g.shards {
		s := s
		name := "guard-upstream"
		if len(g.shards) > 1 {
			name = fmt.Sprintf("guard-upstream-%d", s.id)
		}
		g.cfg.Env.Go(name, s.upstreamLoop)
	}
	if g.cfg.Health.enabled {
		for _, s := range g.shards {
			s := s
			name := "guard-health"
			if len(g.shards) > 1 {
				name = fmt.Sprintf("guard-health-%d", s.id)
			}
			g.cfg.Env.Go(name, s.healthLoop)
		}
	}
	if g.cfg.KeyRotation > 0 {
		g.cfg.Env.Go("guard-rotate", g.rotateLoop)
	}
	if g.cfg.Mitigation.Enabled {
		g.cfg.Env.Go("guard-mitigate", g.mitigateLoop)
	}
	return nil
}

// UpstreamAddr reports the local address of shard 0's upstream socket
// (valid after Start). Tests use it to aim spoofed datagrams at the
// ANS-facing path.
func (g *Remote) UpstreamAddr() netip.AddrPort {
	if g.shards[0].upstream == nil {
		return netip.AddrPort{}
	}
	return g.shards[0].upstream.LocalAddr()
}

// PendingEntries reports the NAT-table population summed across shards.
func (g *Remote) PendingEntries() int {
	total := 0
	for _, s := range g.shards {
		s.mu.Lock()
		total += s.pend.live
		s.mu.Unlock()
	}
	return total
}

// Engine exposes the dataplane (shard mapping, backpressure stats).
// Read-only use.
func (g *Remote) Engine() *engine.Engine { return g.eng }

// rotateLoop changes the cookie key every KeyRotation period. Cookies from
// the previous generation stay valid for one more period (the generation
// bit selects the key), so rotation is invisible to live requesters.
func (g *Remote) rotateLoop() {
	for !g.closed.Load() {
		g.cfg.Env.Sleep(g.cfg.KeyRotation)
		if g.closed.Load() {
			return
		}
		if err := g.cfg.Auth.Rotate(); err != nil {
			continue // keep the old key; retry next period
		}
		atomic.AddUint64(&g.Stats.KeyRotations, 1)
	}
}

// AdoptKeys installs a fleet-published keyring state on this guard's
// authenticator (see cookie.Adopt): the fleet controller rotates the shared
// ring once and pushes the result to every site, so any guard verifies a
// cookie minted by any other. Reports whether the state was adopted (a stale
// epoch is ignored); an adoption that advances the epoch counts as a key
// rotation in the guard's stats.
func (g *Remote) AdoptKeys(st cookie.KeyState) bool {
	before := g.cfg.Auth.Epoch()
	if !g.cfg.Auth.Adopt(st) {
		return false
	}
	if g.cfg.Auth.Epoch() != before {
		atomic.AddUint64(&g.Stats.KeyRotations, 1)
	}
	return true
}

// KeyringEpoch reports the cookie keyring's current epoch — the value
// readiness gates compare against the fleet's target epoch.
func (g *Remote) KeyringEpoch() uint64 { return g.cfg.Auth.Epoch() }

// Close stops the guard.
func (g *Remote) Close() {
	if g.closed.Swap(true) {
		return
	}
	g.eng.Close()
	for _, s := range g.shards {
		if s.upstream != nil {
			_ = s.upstream.Close()
		}
	}
}

// Active reports whether spoof detection is currently engaged. The layered
// mitigation selector, when armed, can override the threshold decision in
// either direction: the ladder bottom, where an armed guard starts, relays
// everything, cookie rungs and above force detection on.
func (g *Remote) Active() bool {
	switch r := g.rung(); {
	case r == LayerPassthrough:
		return false
	case r >= LayerCookies:
		return true
	}
	return g.cfg.ActivationThreshold == 0 || g.active.Load()
}

func (g *Remote) now() time.Duration { return g.cfg.Env.Now() }

// HandlePacket runs the Figure 4 pipeline for one intercepted datagram; the
// engine calls it on the worker owning pkt.Src's shard.
func (s *remoteShard) HandlePacket(pkt Packet) {
	g := s.g
	s.syncLimiters()
	atomic.AddUint64(&g.Stats.Received, 1)
	atomic.AddUint64(&s.work.Read, 1)
	g.updateActivation()
	s.handle(pkt)
}

func (g *Remote) updateActivation() {
	if g.cfg.ActivationThreshold <= 0 {
		return
	}
	g.rateMu.Lock()
	defer g.rateMu.Unlock()
	now := g.now()
	g.rate.Observe(now)
	r := g.rate.Rate(now)
	switch {
	case !g.active.Load() && r > g.cfg.ActivationThreshold:
		g.active.Store(true)
	case g.active.Load() && r < 0.8*g.cfg.ActivationThreshold:
		g.active.Store(false)
	}
}

func (s *remoteShard) handle(pkt Packet) {
	g := s.g
	if pkt.Dst.Port() != g.cfg.PublicAddr.Port() {
		return // not DNS traffic for the protected service
	}
	if !g.Active() {
		s.passthrough(pkt)
		return
	}
	if s.oversize(pkt.Payload) {
		return
	}
	// A query is judged and handled from its bytes as they lie, and only if
	// the view takes it and the record walk vouches for it. Anything else is
	// malformed: that includes a count of questions other than one, which RFC
	// 9619 makes a format error and which is dropped rather than answered, as
	// an answer would need Rate-Limiter1's budget like any reply to an
	// unverified source.
	var ck txtCookie
	v, ok := dnswire.ParseView(pkt.Payload)
	if !ok || v.QR() || !ck.walk(v) {
		atomic.AddUint64(&g.Stats.Malformed, 1)
		return
	}
	switch q := v.QuestionWire(); {
	case g.cfg.Subnet.IsValid() && pkt.Dst.Addr() != g.cfg.PublicAddr.Addr() && g.cfg.Subnet.Contains(pkt.Dst.Addr()):
		s.handleIPCookie(pkt, v) // scheme 1b: a query to a cookie IP inside the guard subnet
	case ck.found && !ck.c.IsZero():
		s.handleModified(pkt, v, ck)
	case ck.found:
		s.grantCookie(pkt, q) // message 2: cookie request
	default:
		// No cookie record, so the first label decides: a cookie label is
		// message 3, anything else a newcomer.
		if label, ok := nsLabel(g, v.FirstLabel()); ok {
			s.handleNSCookie(pkt, q, label)
		} else {
			s.handleNewcomer(pkt, q)
		}
	}
}

// oversize reports whether an ingress datagram is over the UDP ceiling,
// counting it malformed. It runs before any parse. A socket's receive slot
// is dnswire.MaxDatagram+1 bytes, so a longer datagram arrives cut to
// exactly that; a tap delivers it whole. Either way it is over the limit.
func (s *remoteShard) oversize(payload []byte) bool {
	if len(payload) <= dnswire.MaxDatagram {
		return false
	}
	atomic.AddUint64(&s.g.Stats.Malformed, 1)
	return true
}

// passthrough relays traffic while spoof detection is inactive. What reaches
// the ANS is what the codec would make of the query — canonical case,
// reserved bits clear, at most 512 bytes — re-encoded from wire to wire,
// whatever records it carries. A query the view or the walk refuses is
// malformed, among them one with no question, whose answer no echo check
// could ever pass.
func (s *remoteShard) passthrough(pkt Packet) {
	g := s.g
	if s.oversize(pkt.Payload) {
		return
	}
	v, ok := dnswire.ParseView(pkt.Payload)
	var wire []byte
	if ok = ok && !v.QR(); ok {
		wire, ok = v.Repack(s.wireBuf[:0], dnswire.MaxUDPSize)
	}
	if !ok {
		atomic.AddUint64(&g.Stats.Malformed, 1)
		return
	}
	atomic.AddUint64(&g.Stats.Passthrough, 1)
	s.forward(pendEntry{kind: pendRelay, clientSrc: pkt.Src, replyFrom: pkt.Dst, origID: v.ID()}, wire, nil)
}

// handleNewcomer boots a cookie-less requester per the fallback scheme. q is
// the query's question as the view found it, its name in any case. The reply
// — grant, TC redirect or REFUSED — is what the codec writes for Response()
// and the grant's NS record: the query's ID and RD bit, q with the name folded,
// the record's owner and target tail as pointers into that name. It is
// appended to the egress slab; nothing here allocates.
func (s *remoteShard) handleNewcomer(pkt Packet, q []byte) {
	g := s.g
	if g.drainGate() {
		// Draining/quiesced: no new cookie exchanges — this instance may not
		// live to answer them. The client retries and lands on a serving
		// site (or this site's replacement).
		atomic.AddUint64(&g.lc.DrainDropped, 1)
		return
	}
	nameLen := len(q) - 4
	// The reply goes up at the slab's end — the ID, QR, RD as asked, the name
	// folded — and is the slab's only once queued: a drop leaves it behind.
	start := len(s.egress)
	b := append(s.egress, pkt.Payload[0], pkt.Payload[1], 0x80|pkt.Payload[2]&1, 0, 0, 1, 0, 0, 0, 0, 0, 0)
	b = appendFolded(b, q[:nameLen])
	name := b[start+12:]
	if g.cfg.Mitigation.Enabled {
		// Feed the selector's name-diversity sketch before the limiter so
		// it reflects offered newcomer load, not the post-RL1 residue.
		g.mit.sketch.observe(name)
	}
	if !s.rl1.AllowResponse(pkt.Src.Addr(), g.now()) {
		atomic.AddUint64(&g.Stats.RL1Dropped, 1)
		return
	}
	// The name is in the zone if the zone's labels end it, from a label
	// boundary on; the label before that boundary opens the child zone.
	zoneAt := nameLen - len(g.zoneWire)
	child, at := 0, 0
	for at < zoneAt {
		child, at = at, at+1+int(name[at])
	}
	switch n := int(name[child]); {
	case at != zoneAt || !bytes.Equal(name[at:], g.zoneWire):
		b[start+3] = byte(dnswire.RCodeRefused)
	case zoneAt == 0 || g.effectiveFallback() == SchemeTCP || g.isTCPClient(pkt.Src.Addr()) ||
		g.nsPrefixLen+n > dnswire.MaxLabelLen || g.nsPrefixLen+nameLen-child > dnswire.MaxNameWireLen:
		// TC redirect: also used for apex queries, which have no child name
		// to fabricate, and for a label or name too long to carry a cookie.
		atomic.AddUint64(&s.work.TCReplies, 1)
		atomic.AddUint64(&g.Stats.NewcomerGrants, 1)
		atomic.AddUint64(&g.Stats.TCRedirects, 1)
		b[start+2] |= 2 // TC
	default:
		// DNS-based: fabricate "child NS <cookie+label>" with a long TTL and
		// no glue, so the LRS must come back through us to resolve it.
		atomic.AddUint64(&s.work.Grants, 1)
		atomic.AddUint64(&g.Stats.NewcomerGrants, 1)
		b[start+9] = 1 // NSCOUNT: the record, below
	}
	b = append(b, q[nameLen:]...)
	if record := len(b); b[start+9] != 0 {
		// One question and one record fit in 512 octets: a name is 255 at
		// most, the record's label 63.
		label, ttl := name[child:child+1+int(name[child])], nsTTL
		b = append(b, 0xC0|byte((12+child)>>8), byte(12+child), 0, byte(dnswire.TypeNS), 0, byte(dnswire.ClassINET),
			byte(ttl>>24), byte(ttl>>16), byte(ttl>>8), byte(ttl), 0, 0, byte(g.nsPrefixLen)+label[0])
		b = append(g.nsc.AppendLabel(b, s.bv.Mint(pkt.Src.Addr())), label[1:]...)
		if len(g.zoneWire) == 1 {
			b = append(b, 0) // the child is a top-level name: its parent is the root
		} else {
			b = append(b, 0xC0|byte((12+zoneAt)>>8), byte(12+zoneAt))
		}
		b[record+11] = byte(len(b) - record - 12) // RDLENGTH
	}
	s.egress = b
	s.queueReply(pkt.Dst, pkt.Src, b[start:len(b):len(b)])
}

// isTCPClient reports whether src is configured for TCP redirection.
func (g *Remote) isTCPClient(src netip.Addr) bool {
	for _, p := range g.cfg.TCPClients {
		if p.Contains(src) {
			return true
		}
	}
	return false
}

// nsLabel reports whether first, a name's first label, opens with a cookie
// label (the codec's prefix and hex digits, in either case, with at least
// one byte of the original label after them — NSCodec.IsCookieLabel's accept
// set) and returns that cookie label as sent.
func nsLabel[T string | []byte](g *Remote, first T) (T, bool) {
	if len(first) <= g.nsPrefixLen {
		return first[:0], false
	}
	for i := 0; i < g.nsPrefixLen; i++ {
		c := first[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if i < len(nsPrefix) && c != nsPrefix[i] ||
			i >= len(nsPrefix) && (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return first[:0], false
		}
	}
	return first[:g.nsPrefixLen], true
}

// admit is the one admission step of a request that presents a cookie
// (Figure 4: the cookie checker, then Rate-Limiter2). The caller has run the
// MAC its cookie's form names, and ok is its verdict: every request pays
// one, as §III-E prices a verification. A request that verified counts
// CookieValid and is charged to its source's Rate-Limiter2 bucket. admit
// reports whether the request goes on; only a request that verified creates
// or reorders a bucket, and nothing here allocates.
//
// The buckets are the handler's own: on a direct engine the shard owning a
// source is the delivering socket's, not the source hash's.
func (s *remoteShard) admit(src netip.Addr, ok bool) bool {
	g := s.g
	atomic.AddUint64(&s.work.Checks, 1)
	if !ok {
		atomic.AddUint64(&g.Stats.CookieInvalid, 1)
		return false
	}
	atomic.AddUint64(&g.Stats.CookieValid, 1)
	if !s.rl2.AllowRequest(src, g.now()) {
		atomic.AddUint64(&g.Stats.RL2Dropped, 1)
		return false
	}
	return true
}

// handleNSCookie processes a query for a fabricated name (message 3): admit,
// restore, forward (message 4). q is the question as sent — name, type,
// class, the name in any case — and label the cookie label nsLabel found
// opening its first label. Nothing here allocates, valid or forged label.
func (s *remoteShard) handleNSCookie(pkt Packet, q, label []byte) {
	src := pkt.Src.Addr()
	if !s.admit(src, s.bv.VerifyLabelBytes(s.g.nsc, src, label)) {
		return
	}
	atomic.AddUint64(&s.work.Rewrites, 1)
	// Message 4: the first label without its cookie.
	wire := s.childQuery(q, len(label))
	s.forward(pendEntry{kind: pendChild, clientSrc: pkt.Src, replyFrom: pkt.Dst, origID: uint16(pkt.Payload[0])<<8 | uint16(pkt.Payload[1])}, wire, q)
}

// childQuery writes into the shard's scratch the query the guard asks the ANS
// for q, a question as sent with its first label's first strip octets cut: as
// the codec writes NewQuery(0, name, qtype) with RD off — the name in
// canonical case, the client's type, class IN whatever the client's class.
func (s *remoteShard) childQuery(q []byte, strip int) []byte {
	nameLen := len(q) - 4
	wire := append(s.wireBuf[:0], 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, q[0]-byte(strip))
	wire = appendFolded(wire, q[1+strip:nameLen])
	wire = append(wire, q[nameLen], q[nameLen+1], 0, 1)
	s.wireBuf = wire[:0]
	return wire
}

// handleIPCookie processes a query addressed to a cookie address (message
// 7): the destination IP is the cookie admit checks. A verified query is
// forwarded as message 4 is, its name whole (message 8), and the ANS's answer
// relayed (messages 9 and 10): the four packets Table III counts for a cache
// hit. Nothing here allocates.
func (s *remoteShard) handleIPCookie(pkt Packet, v dnswire.View) {
	src := pkt.Src.Addr()
	if !s.admit(src, s.bv.VerifyIP(s.g.ipc, src, pkt.Dst.Addr())) {
		return
	}
	s.forward(pendEntry{kind: pendRelay, clientSrc: pkt.Src, replyFrom: pkt.Dst, origID: v.ID()}, s.childQuery(v.QuestionWire(), 0), nil)
}

// grantCookie answers message 2, a query whose cookie record holds the zero
// cookie, with message 3, through Rate-Limiter1. q is the query's question as
// handleNewcomer takes it. The reply is what the codec writes for Response()
// and AttachCookie's record — the query's ID and RD bit, q with the name folded,
// the source's cookie — appended to the egress slab; nothing here allocates.
// Unlike the newcomer's grant it is not drain-gated.
func (s *remoteShard) grantCookie(pkt Packet, q []byte) {
	g := s.g
	if !s.rl1.AllowResponse(pkt.Src.Addr(), g.now()) {
		atomic.AddUint64(&g.Stats.RL1Dropped, 1)
		return
	}
	atomic.AddUint64(&s.work.Grants, 1)
	atomic.AddUint64(&g.Stats.NewcomerGrants, 1)
	start, nameLen, ttl, c := len(s.egress), len(q)-4, nsTTL, s.bv.Mint(pkt.Src.Addr())
	b := append(s.egress, pkt.Payload[0], pkt.Payload[1], 0x80|pkt.Payload[2]&1, 0, 0, 1, 0, 0, 0, 0, 0, 1)
	b = append(appendFolded(b, q[:nameLen]), q[nameLen:]...)
	b = append(b, 0, 0, byte(dnswire.TypeTXT), 0, byte(dnswire.ClassINET),
		byte(ttl>>24), byte(ttl>>16), byte(ttl>>8), byte(ttl), 0, 1+cookie.Size, cookie.Size)
	b = append(b, c[:]...)
	s.egress = b
	s.queueReply(pkt.Dst, pkt.Src, b[start:len(b):len(b)])
}

// handleModified processes a query carrying its cookie in the explicit
// extension (Figure 3): admit, then forward without the cookie record — the
// query re-encoded as the codec wrote it with the record stripped: reserved
// bits clear, every name folded and compressed, cut at 512 bytes with TC set.
// Nothing here allocates, forgery or forward.
func (s *remoteShard) handleModified(pkt Packet, v dnswire.View, ck txtCookie) {
	src := pkt.Src.Addr()
	if !s.admit(src, s.bv.Verify(src, ck.c)) {
		return
	}
	atomic.AddUint64(&s.work.Rewrites, 1)
	wire, _ := v.RepackAs(s.wireBuf[:0], v.ID(), v.RawFlags()&^flagsZMask, v.QuestionWire(),
		func(r dnswire.Record) bool { return r.Off != ck.off }, dnswire.MaxUDPSize)
	s.forward(pendEntry{kind: pendRelay, clientSrc: pkt.Src, replyFrom: pkt.Dst, origID: v.ID()}, wire, nil)
}
