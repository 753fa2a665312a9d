// Package ans implements an authoritative DNS name server over a netapi.Env:
// UDP with RFC 1035 truncation and DNS-over-TCP with length framing. It
// serves a zone.Zone and models the paper's protected ANS (BIND 9.3.1 on the
// testbed).
package ans

import (
	"errors"
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
	"dnsguard/internal/zone"
)

// Config parameterizes a Server.
type Config struct {
	// Env supplies clock and sockets.
	Env netapi.Env
	// Addr is the UDP (and TCP) service address, typically port 53.
	Addr netip.AddrPort
	// Zone is the authoritative data to serve. Exactly one of Zone and
	// Zones must be set.
	Zone *zone.Zone
	// Zones serves multiple zones from one server (longest-apex match).
	Zones *ZoneSet
	// TTLOverride, when non-nil, replaces every response TTL. The paper's
	// Figure 5 experiment sets it to 0 to disable caching.
	TTLOverride *uint32
	// EnableTCP also serves DNS over TCP.
	EnableTCP bool
}

// Stats counts server activity. Fields are written atomically (the UDP
// serving proc and per-TCP-connection procs run concurrently under real
// clocks).
type Stats struct {
	UDPQueries uint64
	TCPQueries uint64
	Malformed  uint64
	Responses  uint64
	Truncated  uint64
}

// MetricsInto registers every counter as an ans_* series reading the live
// fields.
func (s *Stats) MetricsInto(r *metrics.Registry) {
	for name, f := range map[string]*uint64{
		"ans_udp_queries": &s.UDPQueries,
		"ans_tcp_queries": &s.TCPQueries,
		"ans_malformed":   &s.Malformed,
		"ans_responses":   &s.Responses,
		"ans_truncated":   &s.Truncated,
	} {
		f := f
		r.FuncUint(name, func() uint64 { return atomic.LoadUint64(f) })
	}
}

// Server is a running authoritative server.
type Server struct {
	cfg  Config
	udp  netapi.UDPConn
	tcpl netapi.Listener

	// Stats is updated as the server runs (atomically; see Stats).
	Stats Stats
}

// New validates cfg and creates a server (not yet started).
func New(cfg Config) (*Server, error) {
	if cfg.Env == nil {
		return nil, errors.New("ans: Config.Env is required")
	}
	switch {
	case cfg.Zone == nil && cfg.Zones == nil:
		return nil, errors.New("ans: Config.Zone or Config.Zones is required")
	case cfg.Zone != nil && cfg.Zones != nil:
		return nil, errors.New("ans: Config.Zone and Config.Zones are mutually exclusive")
	case cfg.Zone != nil:
		if err := cfg.Zone.Validate(); err != nil {
			return nil, fmt.Errorf("ans: invalid zone: %w", err)
		}
		zs, err := NewZoneSet(cfg.Zone)
		if err != nil {
			return nil, err
		}
		cfg.Zones = zs
	}
	return &Server{cfg: cfg}, nil
}

// Start binds sockets and spawns the serving procs.
func (s *Server) Start() error {
	udp, err := s.cfg.Env.ListenUDP(s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("ans: binding UDP %v: %w", s.cfg.Addr, err)
	}
	s.udp = udp
	s.cfg.Env.Go("ans-udp", s.serveUDP)
	if s.cfg.EnableTCP {
		l, err := s.cfg.Env.ListenTCP(s.cfg.Addr)
		if err != nil {
			udp.Close()
			return fmt.Errorf("ans: binding TCP %v: %w", s.cfg.Addr, err)
		}
		s.tcpl = l
		s.cfg.Env.Go("ans-tcp", s.serveTCP)
	}
	return nil
}

// Close shuts the server's sockets; serving procs exit.
func (s *Server) Close() {
	if s.udp != nil {
		_ = s.udp.Close()
	}
	if s.tcpl != nil {
		_ = s.tcpl.Close()
	}
}

// Addr returns the server's bound UDP address.
func (s *Server) Addr() netip.AddrPort {
	if s.udp != nil {
		return s.udp.LocalAddr()
	}
	return s.cfg.Addr
}

// serveUDP answers each query in the one slot it reads into, before its next
// read overwrites it. A full slot is a datagram over dnswire.MaxDatagram, a
// malformed query.
func (s *Server) serveUDP() {
	slot := netapi.NewSlab(1, dnswire.MaxDatagram+1)
	for {
		if _, err := s.udp.ReadBatch(slot, netapi.NoTimeout); err != nil {
			return // closed
		}
		atomic.AddUint64(&s.Stats.UDPQueries, 1)
		if slot[0].N > dnswire.MaxDatagram {
			atomic.AddUint64(&s.Stats.Malformed, 1)
			continue
		}
		src := slot[0].Addr
		resp := s.HandleQuery(slot[0].Payload())
		if resp == nil {
			continue
		}
		wire, err := resp.PackUDP(dnswire.MaxUDPSize)
		if err != nil {
			continue
		}
		if wire[2]&0x02 != 0 { // TC bit, possibly set by PackUDP truncation
			atomic.AddUint64(&s.Stats.Truncated, 1)
		}
		atomic.AddUint64(&s.Stats.Responses, 1)
		_ = s.udp.WriteTo(wire, src)
	}
}

func (s *Server) serveTCP() {
	for {
		conn, err := s.tcpl.Accept(netapi.NoTimeout)
		if err != nil {
			return // closed
		}
		s.cfg.Env.Go("ans-tcp-conn", func() { s.serveConn(conn) })
	}
}

func (s *Server) serveConn(conn netapi.Conn) {
	defer conn.Close()
	var sc dnswire.FrameScanner
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf, 30*time.Second)
		if err != nil {
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
			atomic.AddUint64(&s.Stats.TCPQueries, 1)
			resp := s.HandleQuery(frame)
			if resp == nil {
				return
			}
			wire, err := resp.Pack()
			if err != nil {
				return
			}
			out, err := dnswire.AppendTCPFrame(nil, wire)
			if err != nil {
				return
			}
			atomic.AddUint64(&s.Stats.Responses, 1)
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}
}

// HandleQuery implements the authoritative logic for one request payload and
// returns the response message (nil to drop). It is exported so the guard
// and tests can drive the server in-process.
func (s *Server) HandleQuery(payload []byte) *dnswire.Message {
	q, err := dnswire.Unpack(payload)
	if err != nil || q.Flags.QR || len(q.Questions) == 0 {
		atomic.AddUint64(&s.Stats.Malformed, 1)
		return nil
	}
	resp := q.Response()
	if q.Flags.Opcode != dnswire.OpcodeQuery {
		resp.Flags.RCode = dnswire.RCodeNotImp
		return resp
	}
	question := q.Question()
	if question.Class != dnswire.ClassINET {
		resp.Flags.RCode = dnswire.RCodeRefused
		return resp
	}
	ans, hosted := s.cfg.Zones.Lookup(question.Name, question.Type)
	if !hosted {
		// Not authoritative for anything enclosing the name.
		resp.Flags.RCode = dnswire.RCodeRefused
		return resp
	}
	switch ans.Kind {
	case zone.KindAnswer:
		resp.Flags.AA = true
		resp.Answers = ans.Answer
	case zone.KindReferral:
		resp.Authority = ans.Authority
		resp.Additional = ans.Additional
	case zone.KindNoData:
		resp.Flags.AA = true
		resp.Authority = ans.Authority
	case zone.KindNXDomain:
		resp.Flags.AA = true
		resp.Flags.RCode = dnswire.RCodeNXDomain
		resp.Authority = ans.Authority
	}
	if s.cfg.TTLOverride != nil {
		override(resp.Answers, *s.cfg.TTLOverride)
		override(resp.Authority, *s.cfg.TTLOverride)
		override(resp.Additional, *s.cfg.TTLOverride)
	}
	return resp
}

func override(rrs []dnswire.RR, ttl uint32) {
	for i := range rrs {
		rrs[i].TTL = ttl
	}
}
