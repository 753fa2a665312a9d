// Package tcpproxy implements the DNS guard's kernel-level TCP proxy
// (§III-C): it terminates TCP connections addressed to the protected ANS
// (whose address the guard intercepts — the paper uses Linux DNAT), converts
// each DNS-over-TCP request to UDP toward the real ANS, and converts the
// response back. TCP's three-way handshake proves the requester's source
// address; SYN cookies (in the TCP stack underneath) keep the handshake
// itself stateless.
//
// Per the paper, the proxy defends its own resources: connections living
// longer than 5×RTT are torn down, and per-client token buckets bound the
// rate of new connections.
package tcpproxy

import (
	"errors"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/errs"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
	"dnsguard/internal/ratelimit"
)

// Config parameterizes a Proxy.
type Config struct {
	// Env supplies clock and sockets.
	Env netapi.Env
	// Listen is the TCP service address (the protected ANS's public
	// address, port 53).
	Listen netip.AddrPort
	// ANSAddr is the real ANS's UDP address.
	ANSAddr netip.AddrPort
	// RTT is the estimated client round-trip time; the connection
	// duration cap is 5×RTT (§III-C). 0 means 200ms.
	RTT time.Duration
	// MaxDuration overrides the 5×RTT duration cap when positive.
	MaxDuration time.Duration
	// ConnRate and ConnBurst bound per-client new-connection rates.
	// Zero means 50/s with burst 20.
	ConnRate  float64
	ConnBurst float64
	// MaxConcurrent bounds simultaneous proxied connections. 0 means
	// 8192.
	MaxConcurrent int
}

// upstreamTimeout bounds the ANS's answer time.
const upstreamTimeout = 2 * time.Second

func (c *Config) fillDefaults() error {
	if c.Env == nil {
		return errors.New("tcpproxy: Config.Env is required")
	}
	if !c.Listen.IsValid() || !c.ANSAddr.IsValid() {
		return errors.New("tcpproxy: Listen and ANSAddr are required")
	}
	if c.RTT <= 0 {
		c.RTT = 200 * time.Millisecond
	}
	if c.MaxDuration <= 0 {
		c.MaxDuration = 5 * c.RTT
	}
	if c.ConnRate <= 0 {
		c.ConnRate = 50
	}
	if c.ConnBurst <= 0 {
		c.ConnBurst = 20
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8192
	}
	return nil
}

// Stats counts proxy activity. Fields are written atomically (the accept
// loop and per-connection procs run concurrently under real clocks).
type Stats struct {
	Accepted      uint64
	RateRejected  uint64 // closed immediately by per-client token bucket
	FullRejected  uint64 // closed due to MaxConcurrent
	Requests      uint64 // DNS requests proxied to UDP
	Responses     uint64
	DurationKills uint64 // connections torn down at the 5×RTT cap
	UpstreamDrops uint64 // ANS did not answer in time
}

// MetricsInto registers every counter as a tcpproxy_* series reading the
// live fields.
func (s *Stats) MetricsInto(r *metrics.Registry) {
	for name, f := range map[string]*uint64{
		"tcpproxy_accepted":       &s.Accepted,
		"tcpproxy_rate_rejected":  &s.RateRejected,
		"tcpproxy_full_rejected":  &s.FullRejected,
		"tcpproxy_requests":       &s.Requests,
		"tcpproxy_responses":      &s.Responses,
		"tcpproxy_duration_kills": &s.DurationKills,
		"tcpproxy_upstream_drops": &s.UpstreamDrops,
	} {
		f := f
		r.FuncUint(name, func() uint64 { return atomic.LoadUint64(f) })
	}
}

// Proxy is a running TCP→UDP DNS proxy.
type Proxy struct {
	cfg      Config
	listener netapi.Listener
	buckets  ratelimit.Buckets // per-client new-connection rate; acceptLoop's alone
	live     atomic.Int64      // mutated by acceptLoop and every conn proc
	closed   bool

	// Stats is updated as the proxy runs (atomically; see Stats).
	Stats Stats
}

// MetricsInto registers the proxy's counters and a live-connection gauge
// (tcpproxy_*) on r.
func (p *Proxy) MetricsInto(r *metrics.Registry) {
	p.Stats.MetricsInto(r)
	r.Func("tcpproxy_live", func() float64 { return float64(p.live.Load()) })
}

// clientsTracked bounds the per-client token buckets, least recently seen
// evicted first: the limiters' default. A spray of client addresses costs no
// memory, and resets nobody's bucket but the idlest client's; a client whose
// bucket is back at its burst gives its entry to the next new one.
const clientsTracked = 4096

// New validates cfg and creates a proxy (not yet started).
func New(cfg Config) (*Proxy, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	p := &Proxy{cfg: cfg}
	p.buckets.Reset(cfg.ConnRate, cfg.ConnBurst, clientsTracked)
	return p, nil
}

// Start binds the listener and spawns the accept proc.
func (p *Proxy) Start() error {
	l, err := p.cfg.Env.ListenTCP(p.cfg.Listen)
	if err != nil {
		return errs.Wrap("tcpproxy: listen "+p.cfg.Listen.String()+": "+err.Error(), err)
	}
	p.listener = l
	p.cfg.Env.Go("tcpproxy-accept", p.acceptLoop)
	return nil
}

// Close stops the proxy.
func (p *Proxy) Close() {
	if p.closed {
		return
	}
	p.closed = true
	if p.listener != nil {
		_ = p.listener.Close()
	}
}

// Live reports currently proxied connections.
func (p *Proxy) Live() int { return int(p.live.Load()) }

func (p *Proxy) acceptLoop() {
	for {
		conn, err := p.listener.Accept(netapi.NoTimeout)
		if err != nil {
			return
		}
		now := p.cfg.Env.Now()
		if !p.buckets.Allow(conn.RemoteAddr().Addr(), now) {
			atomic.AddUint64(&p.Stats.RateRejected, 1)
			_ = conn.Close()
			continue
		}
		if p.live.Load() >= int64(p.cfg.MaxConcurrent) {
			atomic.AddUint64(&p.Stats.FullRejected, 1)
			_ = conn.Close()
			continue
		}
		atomic.AddUint64(&p.Stats.Accepted, 1)
		p.live.Add(1)
		p.cfg.Env.Go("tcpproxy-conn", func() {
			defer p.live.Add(-1)
			p.serve(conn)
		})
	}
}

// readBufPool recycles the 4 KiB buffers serve reads a connection into: a
// read is copied into the frame scanner before anything else runs, so a
// buffer is free again once its connection ends.
var readBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 4096)
		return &b
	},
}

// serve relays one TCP connection until it closes, errors, or exceeds the
// duration cap.
func (p *Proxy) serve(conn netapi.Conn) {
	defer conn.Close()
	opened := p.cfg.Env.Now()
	var sc dnswire.FrameScanner
	bufp := readBufPool.Get().(*[]byte)
	defer readBufPool.Put(bufp)
	buf := *bufp
	for {
		remain := p.cfg.MaxDuration - (p.cfg.Env.Now() - opened)
		if remain <= 0 {
			atomic.AddUint64(&p.Stats.DurationKills, 1)
			return
		}
		n, err := conn.Read(buf, remain)
		if err != nil {
			if errors.Is(err, netapi.ErrTimeout) {
				atomic.AddUint64(&p.Stats.DurationKills, 1)
			}
			return
		}
		sc.Add(buf[:n])
		for {
			frame, ok, err := sc.Next()
			if err != nil {
				return
			}
			if !ok {
				break
			}
			if !p.relay(conn, frame) {
				return
			}
		}
	}
}

// relay forwards one request frame to the ANS over UDP and writes the
// response back on the TCP connection: the request's own bytes go up, and the
// answer dnswire.ExchangeUDP takes (RFC 5452 §9.1) comes back as it arrived.
// A request is a query of one question that the view and the record walk
// take, so what Unpack would accept; anything else ends the connection
// before it counts.
func (p *Proxy) relay(conn netapi.Conn, frame []byte) bool {
	if req, ok := dnswire.ParseView(frame); !ok || req.QR() || !req.Records(func(dnswire.Record) {}) {
		return false
	}
	atomic.AddUint64(&p.Stats.Requests, 1)
	_, payload, err := dnswire.ExchangeUDP(p.cfg.Env, p.cfg.ANSAddr, frame, upstreamTimeout)
	if err != nil {
		atomic.AddUint64(&p.Stats.UpstreamDrops, 1)
		return false
	}
	out, err := dnswire.AppendTCPFrame(nil, payload)
	if err != nil {
		return false
	}
	if _, err := conn.Write(out); err != nil {
		return false
	}
	atomic.AddUint64(&p.Stats.Responses, 1)
	return true
}
