package guard

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"

	"net/netip"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
	"dnsguard/internal/srctab"
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
	// queries are released unstamped; lateGrace is how long after that a
	// delayed message 3 is still learned.
	exchangeTimeout = 500 * time.Millisecond
	lateGrace       = 4 * exchangeTimeout
	// maxServers bounds the server records, least recently asked evicted
	// first, as a remote shard's Rate-Limiter2 bounds verified sources. maxExchanges
	// bounds the exchanges in flight, each exchangeTimeout at most: 128 first
	// contacts a second, twice the rate that turns a full server table over
	// in one legacy verdict's life (maxServers / notCapableTTL = 68/s).
	maxServers   = 4096
	maxExchanges = 64
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

// server is what the guard knows of a server, under its address (only
// port-53 queries are stamped). kind says which of the rest holds: a cookie
// until expires, a legacy verdict until expires, or the exchange id in
// flight. A verdict a timeout gave keeps id (no exchange has id 0).
type server struct {
	kind    uint8
	id      uint16
	c       cookie.Cookie
	expires time.Duration
}

const (
	srvCookie uint8 = iota + 1 // 0: a record just made, nothing known yet
	srvLegacy
	srvAsking
)

// exchange is one cookie exchange, in the slot its ID indexes, live from
// message 2 until message 3 or the timeout. It owns copies of the queries it
// holds and lets them go when it ends.
type exchange struct {
	id   uint16
	live bool
	dst  netip.AddrPort
	held []Packet
}

// Local is the LRS-side guard: transparent to the LRS, it stamps outbound
// queries with the destination guard's cookie, performing the cookie
// exchange on first contact and caching per-ANS cookies (one cookie per ANS
// — the storage advantage of the modified scheme, Table I).
type Local struct {
	cfg    LocalConfig
	closed atomic.Bool

	// mu guards the two tables, shared between the capture loop and the
	// exchange-timeout procs under real clocks.
	mu        sync.Mutex
	servers   *srctab.Table[server]
	exchanges [maxExchanges]exchange
	nextID    uint16

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
	return &Local{cfg: cfg, servers: srctab.New[server](maxServers, srctab.LRU)}, nil
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
	l.mu.Lock()
	defer l.mu.Unlock()
	srv, found, _ := l.servers.Put(srctab.Key(pkt.Dst.Addr().As16()))
	if !found {
		*srv = server{} // a full table leaves the record it evicted in place
	}
	switch ex := &l.exchanges[srv.id%maxExchanges]; {
	case srv.kind == srvCookie && now < srv.expires:
		l.stampAndSend(pkt, msg, srv.c)
	case srv.kind == srvLegacy && now < srv.expires:
		l.passthrough(pkt)
	case srv.kind == srvAsking && ex.live && ex.id == srv.id && ex.dst == pkt.Dst:
		l.hold(ex, pkt)
	default:
		// First contact: run the exchange if a slot is free; hold the query.
		if ex = l.newExchange(pkt.Dst); ex != nil {
			*srv = server{kind: srvAsking, id: ex.id}
			l.sendCookieRequest(ex, msg)
		}
		l.hold(ex, pkt)
	}
}

// newExchange issues the next ID but 0 whose slot is free and returns the
// slot for an exchange with dst; nil when every slot is live.
func (l *Local) newExchange(dst netip.AddrPort) *exchange {
	for range maxExchanges {
		if l.nextID++; l.nextID == 0 {
			l.nextID++
		}
		if ex := &l.exchanges[l.nextID%maxExchanges]; !ex.live {
			ex.id, ex.live, ex.dst = l.nextID, true, dst
			return ex
		}
	}
	return nil
}

// hold keeps a copy of pkt until ex ends: pkt.Payload is lent by the read.
// Without a slot (ex nil) or with maxHeld queries held, pkt leaves unstamped.
func (l *Local) hold(ex *exchange, pkt Packet) {
	if ex == nil || len(ex.held) >= maxHeld {
		atomic.AddUint64(&l.Stats.HeldOverflow, 1)
		l.passthrough(pkt)
		return
	}
	ex.held = append(ex.held, Packet{Src: pkt.Src, Dst: pkt.Dst, Payload: bytes.Clone(pkt.Payload)})
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
func (l *Local) sendCookieRequest(ex *exchange, template *dnswire.Message) {
	req := dnswire.NewQuery(ex.id, template.Question().Name, template.Question().Type)
	req.Flags.RD = false
	AttachCookie(req, cookie.Cookie{}, 0)
	if wire, err := req.PackUDP(dnswire.MaxUDPSize); err == nil {
		atomic.AddUint64(&l.Stats.Exchanges, 1)
		_ = l.cfg.IO.WriteFromTo(netip.AddrPortFrom(l.cfg.ClientAddr, exchangePort), ex.dst, wire)
	}
	id := ex.id
	l.cfg.Env.Go("localguard-timeout", func() {
		l.cfg.Env.Sleep(exchangeTimeout)
		l.expire(id)
	})
}

// expire gives up on exchange id if it is still live: the server is
// remembered as legacy, under id for a late message 3, and held queries are
// released unstamped.
func (l *Local) expire(id uint16) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ex := &l.exchanges[id%maxExchanges]
	if !ex.live || ex.id != id {
		return // already resolved
	}
	atomic.AddUint64(&l.Stats.LegacyServers, 1)
	l.settle(ex, server{kind: srvLegacy, id: id, expires: l.now() + notCapableTTL})
}

// handleExchangeResponse consumes message 3, or a legacy server's plain
// answer to the cookie request, for a live exchange or one that timed out
// within lateGrace. A cookie learned late replaces the legacy verdict the
// timeout left, so the next query is stamped instead of passed through for
// notCapableTTL (up to a minute of degraded service); a late answer without
// one confirms it.
func (l *Local) handleExchangeResponse(pkt Packet) {
	resp, err := dnswire.Unpack(pkt.Payload)
	if err != nil || !resp.Flags.QR {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now, ex := l.now(), &l.exchanges[resp.ID%maxExchanges]
	srv := l.servers.Get(srctab.Key(pkt.Src.Addr().As16()))
	late := !ex.live || ex.id != resp.ID || ex.dst != pkt.Src
	// A timeout's verdict keeps its exchange's id and expires notCapableTTL
	// after it.
	if late && (srv == nil || srv.kind != srvLegacy || srv.id == 0 || srv.id != resp.ID ||
		pkt.Src.Port() != 53 || now >= srv.expires-notCapableTTL+lateGrace) {
		atomic.AddUint64(&l.Stats.ExchangeStrays, 1)
		return
	}
	c, ttl, _, has := FindCookie(resp)
	switch {
	case (!has || c.IsZero()) && late:
		srv.id = 0 // the verdict stands
	case !has || c.IsZero():
		// A legacy server answered the bare question: not cookie-capable.
		atomic.AddUint64(&l.Stats.LegacyServers, 1)
		l.settle(ex, server{kind: srvLegacy, expires: now + notCapableTTL})
	default:
		life := min(time.Duration(ttl)*time.Second, cookieTTLCap)
		if life <= 0 {
			life = cookieTTLCap
		}
		atomic.AddUint64(&l.Stats.CookiesLearned, 1)
		rec := server{kind: srvCookie, c: c, expires: now + life}
		if late {
			atomic.AddUint64(&l.Stats.LateCookies, 1)
			*srv = rec
		} else {
			l.settle(ex, rec)
		}
	}
}

// settle ends ex: the server's record becomes rec, and the queries ex held
// leave, stamped with rec's cookie or unstamped. The caller holds l.mu.
func (l *Local) settle(ex *exchange, rec server) {
	ex.live = false
	srv, _, _ := l.servers.Put(srctab.Key(ex.dst.Addr().As16()))
	*srv = rec
	for _, pkt := range ex.held {
		if rec.kind != srvCookie {
			l.passthrough(pkt)
		} else if msg, err := dnswire.Unpack(pkt.Payload); err == nil {
			l.stampAndSend(pkt, msg, rec.c)
		}
	}
	ex.held = nil
}
