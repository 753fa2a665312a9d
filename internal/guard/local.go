package guard

import (
	"errors"
	"sync"
	"sync/atomic"

	"net/netip"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
)

// LocalConfig parameterizes the LRS-side guard (modified-DNS scheme,
// Figure 3a). The guard sits inline: it sees the LRS's outbound queries
// (gateway) and all traffic addressed to the LRS (interception), so the
// cookie exchange happens with the LRS's own source address — cookies are a
// function of the requester's IP (§III-E).
type LocalConfig struct {
	// Env supplies clock and timers.
	Env netapi.Env
	// IO captures the LRS's traffic in both directions and re-injects
	// toward the network.
	IO PacketIO
	// ClientAddr is the LRS's address, used to tell inbound from
	// outbound and as the source of cookie exchanges.
	ClientAddr netip.Addr
	// Deliver hands an inbound packet on to the real LRS (the guard
	// intercepts its address).
	Deliver func(src, dst netip.AddrPort, payload []byte) error
}

const (
	// exchangePort is the source port the guard uses for cookie exchanges on
	// behalf of the LRS.
	exchangePort = 49876
	// cookieTTLCap bounds how long a learned cookie is cached regardless of
	// the advertised TTL.
	cookieTTLCap = cookie.DefaultTTL
	// notCapableTTL is how long a server that did not answer the cookie
	// exchange is remembered as legacy (queries pass through unmodified).
	notCapableTTL = 60 * time.Second
	// maxHeld bounds queries buffered per destination during an exchange.
	maxHeld = 64
	// exchangeTimeout bounds the cookie exchange (message 2/3) before held
	// queries are released unstamped.
	exchangeTimeout = 500 * time.Millisecond
)

// validate reports the first missing required field. NewLocal runs it and
// nothing else does.
func (c *LocalConfig) validate() error {
	switch {
	case c.Env == nil || c.IO == nil:
		return errors.New("guard: LocalConfig.Env and IO are required")
	case !c.ClientAddr.IsValid():
		return errors.New("guard: LocalConfig.ClientAddr is required")
	case c.Deliver == nil:
		return errors.New("guard: LocalConfig.Deliver is required")
	}
	return nil
}

// LocalStats counts local-guard activity. Fields are written atomically
// (the capture loop and exchange-timeout procs run concurrently under real
// clocks).
type LocalStats struct {
	Intercepted    uint64 // outbound packets seen
	Stamped        uint64 // queries forwarded with a cookie attached
	PassedThrough  uint64 // non-DNS, responses, or legacy servers
	Exchanges      uint64 // cookie requests sent (message 2)
	CookiesLearned uint64
	LateCookies    uint64 // cookies learned after the exchange timed out
	ExchangeStrays uint64 // duplicated/unmatched exchange-port responses
	LegacyServers  uint64 // exchanges that revealed a non-guarded server
	HeldOverflow   uint64
	Delivered      uint64 // inbound packets handed to the LRS
}

// MetricsInto registers every counter as a guard_local_* series reading the
// live fields.
func (s *LocalStats) MetricsInto(r *metrics.Registry) {
	metrics.RegisterUint64Fields(r, "guard_local_", s)
}

type learnedCookie struct {
	c       cookie.Cookie
	expires time.Duration
}

type exchangeState struct {
	id      uint16
	held    []Packet
	started time.Duration
}

// lateExchange remembers a timed-out exchange so that a reordered or
// jitter-delayed message 3 can still teach us the cookie.
type lateExchange struct {
	dst     netip.AddrPort
	expires time.Duration
}

// Local is the LRS-side guard: transparent to the LRS, it stamps outbound
// queries with the destination guard's cookie, performing the cookie
// exchange on first contact and caching per-ANS cookies (one cookie per ANS
// — the storage advantage of the modified scheme, Table I).
type Local struct {
	cfg    LocalConfig
	closed atomic.Bool

	// mu guards the cookie/exchange tables, shared between the capture
	// loop and the exchange-timeout procs under real clocks.
	mu         sync.Mutex
	cookies    map[netip.AddrPort]learnedCookie
	notCapable map[netip.AddrPort]time.Duration
	exchanges  map[netip.AddrPort]*exchangeState
	byID       map[uint16]netip.AddrPort
	late       map[uint16]lateExchange
	nextID     uint16

	// Stats is updated as the guard runs (atomically; see LocalStats).
	Stats LocalStats
}

// MetricsInto registers the local guard's counters (guard_local_*) on r.
func (l *Local) MetricsInto(r *metrics.Registry) { l.Stats.MetricsInto(r) }

// NewLocal validates cfg and creates the guard.
func NewLocal(cfg LocalConfig) (*Local, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Local{
		cfg:        cfg,
		cookies:    make(map[netip.AddrPort]learnedCookie),
		notCapable: make(map[netip.AddrPort]time.Duration),
		exchanges:  make(map[netip.AddrPort]*exchangeState),
		byID:       make(map[uint16]netip.AddrPort),
		late:       make(map[uint16]lateExchange),
	}, nil
}

// Start spawns the guard's capture proc.
func (l *Local) Start() error {
	l.cfg.Env.Go("localguard", l.captureLoop)
	return nil
}

// Close stops the guard.
func (l *Local) Close() {
	if l.closed.Swap(true) {
		return
	}
	_ = l.cfg.IO.Close()
}

func (l *Local) now() time.Duration { return l.cfg.Env.Now() }

func (l *Local) captureLoop() {
	for {
		pkt, err := l.cfg.IO.Read(netapi.NoTimeout)
		if err != nil {
			return
		}
		if pkt.Dst.Addr() == l.cfg.ClientAddr {
			l.handleInbound(pkt)
		} else {
			atomic.AddUint64(&l.Stats.Intercepted, 1)
			l.handleOutbound(pkt)
		}
	}
}

// handleInbound processes traffic addressed to the LRS: cookie-exchange
// responses are consumed, everything else is delivered untouched.
func (l *Local) handleInbound(pkt Packet) {
	if pkt.Dst.Port() == exchangePort {
		l.handleExchangeResponse(pkt)
		return
	}
	atomic.AddUint64(&l.Stats.Delivered, 1)
	_ = l.cfg.Deliver(pkt.Src, pkt.Dst, pkt.Payload)
}

func (l *Local) handleOutbound(pkt Packet) {
	// Only outbound DNS queries are candidates for stamping.
	if pkt.Dst.Port() != 53 {
		l.passthrough(pkt)
		return
	}
	msg, err := dnswire.Unpack(pkt.Payload)
	if err != nil || msg.Flags.QR || len(msg.Questions) == 0 {
		l.passthrough(pkt)
		return
	}
	if _, _, _, has := FindCookie(msg); has {
		// Already stamped (nested guards?): leave it alone.
		l.passthrough(pkt)
		return
	}
	now := l.now()
	dst := pkt.Dst
	l.mu.Lock()
	defer l.mu.Unlock()
	if lc, ok := l.cookies[dst]; ok && now < lc.expires {
		l.stampAndSend(pkt, msg, lc.c)
		return
	}
	if exp, ok := l.notCapable[dst]; ok && now < exp {
		l.passthrough(pkt)
		return
	}
	// First contact: hold the query and run the cookie exchange.
	ex, running := l.exchanges[dst]
	if !running {
		ex = &exchangeState{started: now}
		l.exchanges[dst] = ex
		l.sendCookieRequest(dst, msg, ex)
	}
	if len(ex.held) >= maxHeld {
		atomic.AddUint64(&l.Stats.HeldOverflow, 1)
		l.passthrough(pkt)
		return
	}
	ex.held = append(ex.held, pkt)
}

func (l *Local) passthrough(pkt Packet) {
	atomic.AddUint64(&l.Stats.PassedThrough, 1)
	_ = l.cfg.IO.WriteFromTo(pkt.Src, pkt.Dst, pkt.Payload)
}

func (l *Local) stampAndSend(pkt Packet, msg *dnswire.Message, c cookie.Cookie) {
	AttachCookie(msg, c, 0)
	wire, err := msg.PackUDP(dnswire.MaxUDPSize)
	if err != nil {
		l.passthrough(pkt)
		return
	}
	atomic.AddUint64(&l.Stats.Stamped, 1)
	_ = l.cfg.IO.WriteFromTo(pkt.Src, pkt.Dst, wire)
}

// sendCookieRequest emits message 2: the same question with an all-zero
// cookie, from the LRS's address on the guard's dedicated port so message 3
// comes back to the guard. The caller must hold l.mu.
func (l *Local) sendCookieRequest(dst netip.AddrPort, template *dnswire.Message, ex *exchangeState) {
	l.nextID++
	ex.id = l.nextID
	l.byID[ex.id] = dst
	req := dnswire.NewQuery(ex.id, template.Question().Name, template.Question().Type)
	req.Flags.RD = false
	AttachCookie(req, cookie.Cookie{}, 0)
	wire, err := req.PackUDP(dnswire.MaxUDPSize)
	if err != nil {
		return
	}
	atomic.AddUint64(&l.Stats.Exchanges, 1)
	src := netip.AddrPortFrom(l.cfg.ClientAddr, exchangePort)
	_ = l.cfg.IO.WriteFromTo(src, dst, wire)
	l.cfg.Env.Go("localguard-timeout", func() {
		l.cfg.Env.Sleep(exchangeTimeout)
		l.expireExchange(dst, ex)
	})
}

// expireExchange gives up on a cookie exchange: the server is remembered as
// legacy and held queries are released unstamped. The transaction ID stays
// registered for a grace window so a message 3 delayed past the timeout (by
// jitter or reordering) can still be learned and the legacy verdict undone.
func (l *Local) expireExchange(dst netip.AddrPort, ex *exchangeState) {
	l.mu.Lock()
	defer l.mu.Unlock()
	cur, ok := l.exchanges[dst]
	if !ok || cur != ex {
		return // already resolved
	}
	delete(l.exchanges, dst)
	grace := 4 * exchangeTimeout
	l.late[ex.id] = lateExchange{dst: dst, expires: l.now() + grace}
	l.cfg.Env.Go("localguard-late-reap", func() {
		l.cfg.Env.Sleep(grace)
		l.mu.Lock()
		defer l.mu.Unlock()
		if le, ok := l.late[ex.id]; ok && le.dst == dst {
			delete(l.late, ex.id)
			if d, ok := l.byID[ex.id]; ok && d == dst {
				delete(l.byID, ex.id)
			}
		}
	})
	atomic.AddUint64(&l.Stats.LegacyServers, 1)
	l.notCapable[dst] = l.now() + notCapableTTL
	for _, pkt := range ex.held {
		l.passthrough(pkt)
	}
}

// handleExchangeResponse consumes message 3 (or a legacy server's plain
// answer to the cookie request).
func (l *Local) handleExchangeResponse(pkt Packet) {
	resp, err := dnswire.Unpack(pkt.Payload)
	if err != nil || !resp.Flags.QR {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	dst, ok := l.byID[resp.ID]
	if !ok || dst != pkt.Src {
		atomic.AddUint64(&l.Stats.ExchangeStrays, 1)
		return
	}
	ex, ok := l.exchanges[dst]
	if !ok || ex.id != resp.ID {
		l.handleLateExchangeResponse(dst, resp)
		return
	}
	delete(l.exchanges, dst)
	delete(l.byID, resp.ID)
	c, ttl, _, has := FindCookie(resp)
	if !has || c.IsZero() {
		// A legacy server answered the bare question: it is not
		// cookie-capable.
		atomic.AddUint64(&l.Stats.LegacyServers, 1)
		l.notCapable[dst] = l.now() + notCapableTTL
		for _, held := range ex.held {
			l.passthrough(held)
		}
		return
	}
	life := time.Duration(ttl) * time.Second
	if life <= 0 || life > cookieTTLCap {
		life = cookieTTLCap
	}
	l.cookies[dst] = learnedCookie{c: c, expires: l.now() + life}
	atomic.AddUint64(&l.Stats.CookiesLearned, 1)
	for _, held := range ex.held {
		if msg, err := dnswire.Unpack(held.Payload); err == nil {
			l.stampAndSend(held, msg, c)
		}
	}
}

// handleLateExchangeResponse learns from a message 3 that arrived after its
// exchange timed out: the held queries are long gone (released unstamped),
// but the cookie is still good, and the premature legacy verdict must be
// reversed so the next query is stamped instead of passed through for
// notCapableTTL (up to a minute of degraded service). The caller must hold
// l.mu.
func (l *Local) handleLateExchangeResponse(dst netip.AddrPort, resp *dnswire.Message) {
	le, ok := l.late[resp.ID]
	if !ok || le.dst != dst || l.now() >= le.expires {
		atomic.AddUint64(&l.Stats.ExchangeStrays, 1)
		return
	}
	delete(l.late, resp.ID)
	delete(l.byID, resp.ID)
	c, ttl, _, has := FindCookie(resp)
	if !has || c.IsZero() {
		return // legacy verdict was correct after all
	}
	life := time.Duration(ttl) * time.Second
	if life <= 0 || life > cookieTTLCap {
		life = cookieTTLCap
	}
	l.cookies[dst] = learnedCookie{c: c, expires: l.now() + life}
	delete(l.notCapable, dst)
	atomic.AddUint64(&l.Stats.CookiesLearned, 1)
	atomic.AddUint64(&l.Stats.LateCookies, 1)
}
