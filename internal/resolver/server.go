package resolver

import (
	"errors"
	"fmt"
	"net/netip"
	"sync/atomic"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
)

// ServerConfig parameterizes an LRS front end.
type ServerConfig struct {
	// Env supplies clock and sockets.
	Env netapi.Env
	// Addr is the UDP service address (port 53).
	Addr netip.AddrPort
	// Resolver answers the questions.
	Resolver *Resolver
	// AllowedClients, when non-empty, restricts service to sources inside
	// these prefixes — the paper notes most LRSs only serve their own
	// organization, which is what stops attackers from recruiting LRSs.
	AllowedClients []netip.Prefix
}

// Server exposes a Resolver as a recursive DNS service over UDP, the role
// the paper's LRS plays for stub resolvers (message 1/8 in Figure 3).
type Server struct {
	cfg ServerConfig
	udp netapi.UDPConn

	// Stats counts server activity.
	Stats ServerStats
}

// ServerStats counts LRS front-end activity. Fields are written atomically
// (the serve loop and per-query procs run concurrently under real clocks).
type ServerStats struct {
	Queries  uint64
	Refused  uint64
	Answered uint64
	Failed   uint64
}

// MetricsInto registers every counter as an lrs_* series reading the live
// fields.
func (s *ServerStats) MetricsInto(r *metrics.Registry) {
	for name, f := range map[string]*uint64{
		"lrs_queries":  &s.Queries,
		"lrs_refused":  &s.Refused,
		"lrs_answered": &s.Answered,
		"lrs_failed":   &s.Failed,
	} {
		f := f
		r.FuncUint(name, func() uint64 { return atomic.LoadUint64(f) })
	}
}

// NewServer validates cfg and creates an LRS server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Env == nil || cfg.Resolver == nil {
		return nil, errors.New("resolver: ServerConfig.Env and Resolver are required")
	}
	return &Server{cfg: cfg}, nil
}

// Start binds the socket and spawns the serving proc.
func (s *Server) Start() error {
	udp, err := s.cfg.Env.ListenUDP(s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("resolver: binding %v: %w", s.cfg.Addr, err)
	}
	s.udp = udp
	s.cfg.Env.Go("lrs", s.serve)
	return nil
}

// Close shuts the server down.
func (s *Server) Close() {
	if s.udp != nil {
		_ = s.udp.Close()
	}
}

// Addr returns the bound address.
func (s *Server) Addr() netip.AddrPort {
	if s.udp != nil {
		return s.udp.LocalAddr()
	}
	return s.cfg.Addr
}

func (s *Server) allowed(src netip.Addr) bool {
	if len(s.cfg.AllowedClients) == 0 {
		return true
	}
	for _, p := range s.cfg.AllowedClients {
		if p.Contains(src) {
			return true
		}
	}
	return false
}

// serve reads each query into its one slot and unpacks it there, before the
// next read overwrites it; a full slot is a datagram over
// dnswire.MaxDatagram, and dropped.
func (s *Server) serve() {
	slot := netapi.NewSlab(1, dnswire.MaxDatagram+1)
	for {
		if _, err := s.udp.ReadBatch(slot, netapi.NoTimeout); err != nil {
			return
		}
		atomic.AddUint64(&s.Stats.Queries, 1)
		if slot[0].N > dnswire.MaxDatagram {
			continue
		}
		src := slot[0].Addr
		q, err := dnswire.Unpack(slot[0].Payload())
		if err != nil || q.Flags.QR || len(q.Questions) == 0 {
			continue
		}
		if !s.allowed(src.Addr()) {
			atomic.AddUint64(&s.Stats.Refused, 1)
			resp := q.Response()
			resp.Flags.RCode = dnswire.RCodeRefused
			if wire, err := resp.PackUDP(dnswire.MaxUDPSize); err == nil {
				_ = s.udp.WriteTo(wire, src)
			}
			continue
		}
		// Each recursive question gets its own proc: resolution blocks on
		// upstream round trips.
		s.cfg.Env.Go("lrs-query", func() { s.answer(q, src) })
	}
}

func (s *Server) answer(q *dnswire.Message, src netip.AddrPort) {
	question := q.Question()
	res, err := s.cfg.Resolver.Resolve(question.Name, question.Type)
	resp := q.Response()
	resp.Flags.RA = true
	if err != nil {
		atomic.AddUint64(&s.Stats.Failed, 1)
		resp.Flags.RCode = dnswire.RCodeServFail
	} else {
		resp.Flags.RCode = res.RCode
		resp.Answers = res.Answers
		atomic.AddUint64(&s.Stats.Answered, 1)
	}
	if wire, err := resp.PackUDP(dnswire.MaxUDPSize); err == nil {
		_ = s.udp.WriteTo(wire, src)
	}
}
