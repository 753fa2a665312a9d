package resolver

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
)

// Resolution errors.
var (
	ErrNoServers   = errors.New("resolver: no usable name servers")
	ErrTimeout     = errors.New("resolver: query timed out")
	ErrLoop        = errors.New("resolver: referral loop or depth exceeded")
	ErrServFail    = errors.New("resolver: upstream failure")
	ErrUnreachable = errors.New("resolver: all servers unreachable")
)

// Config parameterizes a Resolver.
type Config struct {
	// Env supplies clock and sockets.
	Env netapi.Env
	// RootHints are the addresses of root name servers (or, for a
	// single-zone deployment, of that zone's servers).
	RootHints []netip.AddrPort
	// Timeout is the per-attempt wait for a response. BIND's classic
	// 2-second timer is the default; the paper's LRS simulator uses 10 ms.
	Timeout time.Duration
	// Retries is how many additional attempts (rotating servers) are made
	// after the first.
	Retries int
	// QueryTimeout bounds the total wall-clock time one upstream query may
	// spend across all retry rounds, server rotations, backoff sleeps, and
	// TCP retries. Zero means only the per-attempt Timeout applies.
	QueryTimeout time.Duration
	// Backoff enables capped exponential backoff between retry rounds: the
	// resolver sleeps a jittered delay starting at Backoff and doubling
	// each round, capped at MaxBackoff. Zero disables backoff, preserving
	// the paper's fixed-interval retry behaviour.
	Backoff time.Duration
	// MaxBackoff caps the backoff delay. Zero means 8×Backoff.
	MaxBackoff time.Duration
	// TCPRetryAfter switches the query to TCP after this many fully-failed
	// UDP retry rounds — the escape hatch when an adversary (or a fault
	// policy) makes UDP unusable but the path still carries streams.
	// Zero disables UDP-failure TCP retry (truncation fallback is always on).
	TCPRetryAfter int
	// Seed makes query-ID generation deterministic in simulations.
	Seed int64
}

const (
	// maxSteps bounds delegation-following iterations per query.
	maxSteps = 24
	// maxDepth bounds sub-resolutions (NS target addresses, CNAME chains).
	maxDepth = 8
	// cacheSize bounds the cache entry count.
	cacheSize = 1 << 16
)

// resolve is the one pass over a config: it reports the first missing
// required field, then fills every defaulted one in place. New runs it on its
// own copy and nothing else does.
func (c *Config) resolve() error {
	if c.Env == nil {
		return errors.New("resolver: Config.Env is required")
	}
	if len(c.RootHints) == 0 {
		return errors.New("resolver: Config.RootHints is required")
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Retries < 0 {
		c.Retries = 0
	} else if c.Retries == 0 {
		c.Retries = 2
	}
	if c.Backoff > 0 && c.MaxBackoff <= 0 {
		c.MaxBackoff = 8 * c.Backoff
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return nil
}

// Stats counts resolver activity. Fields are written atomically (the real
// LRS resolves concurrent queries against one Resolver); read them with
// atomic.LoadUint64 when the resolver may still be running.
type Stats struct {
	Queries      uint64 // client questions asked of this resolver
	Upstream     uint64 // queries sent to authoritative servers
	Retries      uint64
	Timeouts     uint64
	TCPFallbacks uint64 // truncation-driven TCP fallbacks
	TCPRetries   uint64 // TCP retries after repeated UDP failure
	Backoffs     uint64 // inter-round backoff sleeps taken
	CacheAnswers uint64 // questions answered fully from cache
}

// MetricsInto registers every counter as a resolver_* series reading the
// live fields.
func (s *Stats) MetricsInto(r *metrics.Registry) {
	for name, f := range map[string]*uint64{
		"resolver_queries":       &s.Queries,
		"resolver_upstream":      &s.Upstream,
		"resolver_retries":       &s.Retries,
		"resolver_timeouts":      &s.Timeouts,
		"resolver_tcp_fallbacks": &s.TCPFallbacks,
		"resolver_tcp_retries":   &s.TCPRetries,
		"resolver_backoffs":      &s.Backoffs,
		"resolver_cache_answers": &s.CacheAnswers,
	} {
		f := f
		r.FuncUint(name, func() uint64 { return atomic.LoadUint64(f) })
	}
}

// Result is the outcome of one resolution.
type Result struct {
	Answers  []dnswire.RR
	RCode    dnswire.RCode
	Latency  time.Duration
	Upstream int // upstream queries this resolution issued
	CacheHit bool
}

// Resolver is an iterative (recursive-serving) DNS resolver. It is safe for
// concurrent Resolve calls: the cache locks internally, the rng is guarded,
// and stats are atomic.
type Resolver struct {
	cfg   Config
	cache *Cache

	rngMu sync.Mutex
	rng   *rand.Rand

	// Stats is updated during operation (atomically; see Stats).
	Stats Stats
}

// MetricsInto registers the resolver's counters and cache hit/miss series
// (resolver_*) on r.
func (r *Resolver) MetricsInto(reg *metrics.Registry) {
	r.Stats.MetricsInto(reg)
	reg.FuncUint("resolver_cache_hits", func() uint64 { h, _ := r.cache.Stats(); return h })
	reg.FuncUint("resolver_cache_misses", func() uint64 { _, m := r.cache.Stats(); return m })
}

// randUint32 draws from the seeded rng under its lock.
func (r *Resolver) randUint32() uint32 {
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	return r.rng.Uint32()
}

// randInt63n draws from the seeded rng under its lock.
func (r *Resolver) randInt63n(n int64) int64 {
	r.rngMu.Lock()
	defer r.rngMu.Unlock()
	return r.rng.Int63n(n)
}

// New builds a resolver.
func New(cfg Config) (*Resolver, error) {
	if err := cfg.resolve(); err != nil {
		return nil, err
	}
	return &Resolver{
		cfg:   cfg,
		cache: NewCache(cacheSize),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// Config returns the configuration in effect, defaults filled in.
func (r *Resolver) Config() Config { return r.cfg }

// Cache exposes the resolver's cache (for tests and cache-priming).
func (r *Resolver) Cache() *Cache { return r.cache }

// Resolve answers (qname, qtype) by walking the delegation hierarchy.
func (r *Resolver) Resolve(qname dnswire.Name, qtype dnswire.Type) (Result, error) {
	atomic.AddUint64(&r.Stats.Queries, 1)
	start := r.cfg.Env.Now()
	before := atomic.LoadUint64(&r.Stats.Upstream)
	rrs, rcode, err := r.resolve(qname, qtype, 0)
	res := Result{
		Answers: rrs,
		RCode:   rcode,
		Latency: r.cfg.Env.Now() - start,
		// With concurrent resolutions this delta can include other queries'
		// upstream traffic; it is exact when queries are serialized (the
		// simulator and the experiments).
		Upstream: int(atomic.LoadUint64(&r.Stats.Upstream) - before),
	}
	res.CacheHit = res.Upstream == 0 && err == nil
	if res.CacheHit {
		atomic.AddUint64(&r.Stats.CacheAnswers, 1)
	}
	return res, err
}

func (r *Resolver) now() time.Duration { return r.cfg.Env.Now() }

func (r *Resolver) cacheGet(name dnswire.Name, t dnswire.Type) ([]dnswire.RR, dnswire.RCode, bool, bool) {
	return r.cache.Get(r.now(), name, t)
}

func (r *Resolver) cachePut(name dnswire.Name, t dnswire.Type, rrs []dnswire.RR) {
	r.cache.Put(r.now(), name, t, rrs)
}

func (r *Resolver) resolve(qname dnswire.Name, qtype dnswire.Type, depth int) ([]dnswire.RR, dnswire.RCode, error) {
	if depth > maxDepth {
		return nil, dnswire.RCodeServFail, ErrLoop
	}
	// Cache: direct answer.
	if rrs, rcode, neg, ok := r.cacheGet(qname, qtype); ok {
		if neg {
			return nil, rcode, nil
		}
		return rrs, dnswire.RCodeNoError, nil
	}
	// Cache: CNAME indirection.
	if qtype != dnswire.TypeCNAME {
		if cn, _, neg, ok := r.cacheGet(qname, dnswire.TypeCNAME); ok && !neg && len(cn) > 0 {
			target := cn[0].Data.(*dnswire.CNAMEData).Target
			tail, rcode, err := r.resolve(target, qtype, depth+1)
			if err != nil {
				return nil, rcode, err
			}
			return append(cn, tail...), rcode, nil
		}
	}

	zoneName, servers := r.bestServers(qname)
	for step := 0; step < maxSteps; step++ {
		resp, err := r.querySet(servers, qname, qtype, depth)
		if err != nil {
			return nil, dnswire.RCodeServFail, err
		}
		switch kind := classify(resp, qname, qtype); kind {
		case respAnswer:
			return r.acceptAnswer(resp, qname, qtype, depth)
		case respNXDomain:
			r.cache.PutNegative(r.now(), qname, qtype, dnswire.RCodeNXDomain, negativeTTL(resp))
			return nil, dnswire.RCodeNXDomain, nil
		case respNoData:
			r.cache.PutNegative(r.now(), qname, qtype, dnswire.RCodeNoError, negativeTTL(resp))
			return nil, dnswire.RCodeNoError, nil
		case respReferral:
			child, nsset := referralTarget(resp)
			// Progress and sanity: the child zone must enclose qname and
			// be strictly deeper than the zone we just asked; anything
			// else is a bogus or looping referral.
			if !qname.IsSubdomainOf(child) || child.NumLabels() <= zoneName.NumLabels() {
				return nil, dnswire.RCodeServFail, fmt.Errorf("%w: referral to %s from zone %s", ErrLoop, child, zoneName)
			}
			r.cachePut(child, dnswire.TypeNS, nsset)
			for _, glue := range resp.Additional {
				if glue.Type == dnswire.TypeA || glue.Type == dnswire.TypeAAAA {
					r.cachePut(glue.Name, glue.Type, []dnswire.RR{glue})
				}
			}
			zoneName = child
			// Attach glue addresses directly so they are used even when
			// the cache is disabled (and without re-resolution).
			servers = nsNamesWithGlue(nsset, resp.Additional)
		default:
			return nil, resp.Flags.RCode, fmt.Errorf("%w: rcode %v from zone %s", ErrServFail, resp.Flags.RCode, zoneName)
		}
	}
	return nil, dnswire.RCodeServFail, fmt.Errorf("%w: exceeded %d steps", ErrLoop, maxSteps)
}

// acceptAnswer caches the answer rrsets and follows a dangling CNAME chain.
func (r *Resolver) acceptAnswer(resp *dnswire.Message, qname dnswire.Name, qtype dnswire.Type, depth int) ([]dnswire.RR, dnswire.RCode, error) {
	// Group rrsets by (owner, type) and cache each.
	groups := map[cacheKey][]dnswire.RR{}
	for _, rr := range resp.Answers {
		k := cacheKey{rr.Name, rr.Type}
		groups[k] = append(groups[k], rr)
	}
	for k, rrs := range groups {
		r.cachePut(k.name, k.rtype, rrs)
	}
	chain := append([]dnswire.RR(nil), resp.Answers...)
	// Does the chain already contain a record of qtype?
	for _, rr := range chain {
		if rr.Type == qtype || qtype == dnswire.TypeANY {
			return chain, dnswire.RCodeNoError, nil
		}
	}
	// Dangling CNAME: follow the last target.
	last := chain[len(chain)-1]
	if cn, ok := last.Data.(*dnswire.CNAMEData); ok && qtype != dnswire.TypeCNAME {
		tail, rcode, err := r.resolve(cn.Target, qtype, depth+1)
		if err != nil {
			return nil, rcode, err
		}
		return append(chain, tail...), rcode, nil
	}
	return chain, dnswire.RCodeNoError, nil
}

// serverRef names a candidate server: either by name (address resolved
// lazily) or by literal address (root hints).
type serverRef struct {
	name dnswire.Name
	addr netip.AddrPort
}

// bestServers finds the deepest cached zone cut enclosing qname; falls back
// to root hints.
func (r *Resolver) bestServers(qname dnswire.Name) (dnswire.Name, []serverRef) {
	for z := qname; ; z = z.Parent() {
		if rrs, _, neg, ok := r.cacheGet(z, dnswire.TypeNS); ok && !neg && len(rrs) > 0 {
			return z, nsNames(rrs)
		}
		if z.IsRoot() {
			break
		}
	}
	refs := make([]serverRef, len(r.cfg.RootHints))
	for i, a := range r.cfg.RootHints {
		refs[i] = serverRef{addr: a}
	}
	return dnswire.Root, refs
}

func nsNames(nsset []dnswire.RR) []serverRef {
	return nsNamesWithGlue(nsset, nil)
}

func nsNamesWithGlue(nsset, glue []dnswire.RR) []serverRef {
	refs := make([]serverRef, 0, len(nsset))
	for _, rr := range nsset {
		d, ok := rr.Data.(*dnswire.NSData)
		if !ok {
			continue
		}
		ref := serverRef{name: d.Host}
		for _, g := range glue {
			if g.Name == d.Host && g.Type == dnswire.TypeA {
				ref.addr = netip.AddrPortFrom(g.Data.(*dnswire.AData).Addr, 53)
				break
			}
		}
		refs = append(refs, ref)
	}
	return refs
}

// querySet tries each server (with retries) until one responds. Retry rounds
// back off exponentially with jitter when Backoff is set, the whole effort is
// bounded by QueryTimeout when set, and after TCPRetryAfter fully-failed UDP
// rounds the query is retried over TCP.
func (r *Resolver) querySet(servers []serverRef, qname dnswire.Name, qtype dnswire.Type, depth int) (*dnswire.Message, error) {
	if len(servers) == 0 {
		return nil, ErrNoServers
	}
	var deadline time.Duration // 0 = unbounded
	if r.cfg.QueryTimeout > 0 {
		deadline = r.now() + r.cfg.QueryTimeout
	}
	var lastErr error = ErrUnreachable
	backoff := r.cfg.Backoff
	tcpTried := false
	attempts := r.cfg.Retries + 1
	for a := 0; a < attempts; a++ {
		if a > 0 && backoff > 0 {
			d := backoff/2 + time.Duration(r.randInt63n(int64(backoff/2)+1))
			if deadline > 0 && r.now()+d >= deadline {
				break
			}
			atomic.AddUint64(&r.Stats.Backoffs, 1)
			r.cfg.Env.Sleep(d)
			if backoff *= 2; backoff > r.cfg.MaxBackoff {
				backoff = r.cfg.MaxBackoff
			}
		}
		for _, ref := range servers {
			addr := ref.addr
			if !addr.IsValid() {
				ip, err := r.serverAddr(ref.name, depth)
				if err != nil {
					lastErr = err
					continue
				}
				addr = netip.AddrPortFrom(ip, 53)
			}
			timeout, ok := r.attemptTimeout(deadline)
			if !ok {
				return nil, lastErr
			}
			resp, err := r.exchange(addr, qname, qtype, timeout)
			if err != nil {
				lastErr = err
				if a > 0 {
					atomic.AddUint64(&r.Stats.Retries, 1)
				}
				continue
			}
			return resp, nil
		}
		if r.cfg.TCPRetryAfter > 0 && !tcpTried && a+1 >= r.cfg.TCPRetryAfter {
			tcpTried = true
			if resp, err := r.querySetTCP(servers, qname, qtype, deadline); err == nil {
				return resp, nil
			} else {
				lastErr = err
			}
		}
	}
	if r.cfg.TCPRetryAfter > 0 && !tcpTried {
		if resp, err := r.querySetTCP(servers, qname, qtype, deadline); err == nil {
			return resp, nil
		}
	}
	return nil, lastErr
}

// querySetTCP retries the query over TCP against every server that already
// has a resolved address (re-resolving over a broken UDP path would defeat
// the point).
func (r *Resolver) querySetTCP(servers []serverRef, qname dnswire.Name, qtype dnswire.Type, deadline time.Duration) (*dnswire.Message, error) {
	var lastErr error = ErrUnreachable
	for _, ref := range servers {
		if !ref.addr.IsValid() {
			continue
		}
		timeout, ok := r.attemptTimeout(deadline)
		if !ok {
			return nil, lastErr
		}
		atomic.AddUint64(&r.Stats.TCPRetries, 1)
		resp, err := r.exchangeTCP(ref.addr, qname, qtype, timeout)
		if err != nil {
			lastErr = err
			continue
		}
		return resp, nil
	}
	return nil, lastErr
}

// attemptTimeout returns the per-attempt timeout, clipped to the remaining
// query deadline; ok is false when the deadline has already passed.
func (r *Resolver) attemptTimeout(deadline time.Duration) (time.Duration, bool) {
	timeout := r.cfg.Timeout
	if deadline > 0 {
		remain := deadline - r.now()
		if remain <= 0 {
			return 0, false
		}
		if remain < timeout {
			timeout = remain
		}
	}
	return timeout, true
}

// serverAddr resolves a name server's address, from glue/cache or by
// sub-resolution (this is the path that resolves fabricated cookie names).
func (r *Resolver) serverAddr(host dnswire.Name, depth int) (netip.Addr, error) {
	if rrs, _, neg, ok := r.cacheGet(host, dnswire.TypeA); ok && !neg && len(rrs) > 0 {
		return rrs[0].Data.(*dnswire.AData).Addr, nil
	}
	rrs, _, err := r.resolve(host, dnswire.TypeA, depth+1)
	if err != nil {
		return netip.Addr{}, fmt.Errorf("resolving server %s: %w", host, err)
	}
	for _, rr := range rrs {
		if a, ok := rr.Data.(*dnswire.AData); ok {
			return a.Addr, nil
		}
	}
	return netip.Addr{}, fmt.Errorf("%w: no address for server %s", ErrNoServers, host)
}

// exchange performs one UDP query/response with TCP fallback on truncation.
func (r *Resolver) exchange(server netip.AddrPort, qname dnswire.Name, qtype dnswire.Type, timeout time.Duration) (*dnswire.Message, error) {
	resp, err := r.ask(server, qname, qtype, timeout, false)
	if err == nil && resp.Flags.TC {
		atomic.AddUint64(&r.Stats.TCPFallbacks, 1)
		return r.exchangeTCP(server, qname, qtype, timeout)
	}
	return resp, err
}

// exchangeTCP retries the query over a fresh TCP connection.
func (r *Resolver) exchangeTCP(server netip.AddrPort, qname dnswire.Name, qtype dnswire.Type, timeout time.Duration) (*dnswire.Message, error) {
	return r.ask(server, qname, qtype, timeout, true)
}

// ask sends one iterative query under a fresh random ID, over UDP or TCP,
// and takes the answer dnswire's exchange takes (RFC 5452 §9.1). The
// server's silence counts as a timeout and is reported as ErrTimeout; a dial
// that timed out comes wrapped and is not counted.
func (r *Resolver) ask(server netip.AddrPort, qname dnswire.Name, qtype dnswire.Type, timeout time.Duration, tcp bool) (*dnswire.Message, error) {
	q := dnswire.NewQuery(uint16(r.randUint32()), qname, qtype)
	q.Flags.RD = false // iterative
	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}
	atomic.AddUint64(&r.Stats.Upstream, 1)
	var resp *dnswire.Message
	if tcp {
		resp, _, err = dnswire.ExchangeTCP(r.cfg.Env, server, wire, timeout, nil)
	} else {
		resp, _, err = dnswire.ExchangeUDP(r.cfg.Env, server, wire, timeout)
	}
	if err == netapi.ErrTimeout {
		atomic.AddUint64(&r.Stats.Timeouts, 1)
		return nil, ErrTimeout
	}
	return resp, err
}

// Response classification --------------------------------------------------

type respKind int

const (
	respAnswer respKind = iota + 1
	respReferral
	respNXDomain
	respNoData
	respError
)

func classify(resp *dnswire.Message, qname dnswire.Name, qtype dnswire.Type) respKind {
	switch {
	case resp.Flags.RCode == dnswire.RCodeNXDomain:
		return respNXDomain
	case resp.Flags.RCode != dnswire.RCodeNoError:
		return respError
	case len(resp.Answers) > 0:
		return respAnswer
	default:
		// Referral: NS records in authority, not authoritative.
		for _, rr := range resp.Authority {
			if rr.Type == dnswire.TypeNS {
				return respReferral
			}
		}
		return respNoData
	}
}

func referralTarget(resp *dnswire.Message) (dnswire.Name, []dnswire.RR) {
	var nsset []dnswire.RR
	var child dnswire.Name
	for _, rr := range resp.Authority {
		if rr.Type == dnswire.TypeNS {
			child = rr.Name
			nsset = append(nsset, rr)
		}
	}
	return child, nsset
}

func negativeTTL(resp *dnswire.Message) time.Duration {
	for _, rr := range resp.Authority {
		if soa, ok := rr.Data.(*dnswire.SOAData); ok {
			ttl := soa.Minimum
			if rr.TTL < ttl {
				ttl = rr.TTL
			}
			return time.Duration(ttl) * time.Second
		}
	}
	return 30 * time.Second
}
