// Package workload implements the traffic endpoints of the paper's
// evaluation (§IV): the authors' ANS simulator (fixed answer, ~110K req/s),
// scheme-aware LRS simulators (closed-loop or paced, with the 10 ms wait),
// and spoofing attackers.
package workload

import (
	"errors"
	"fmt"
	"net/netip"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
)

// ANSSimMode selects the shape of the simulator's fixed answer.
type ANSSimMode int

// ANS simulator modes.
const (
	// ModeAnswer returns an authoritative A record for every question
	// (the non-referral case).
	ModeAnswer ANSSimMode = iota + 1
	// ModeReferral returns a referral (NS + glue A) for every question
	// (the root/TLD case).
	ModeReferral
)

// ANSSimConfig parameterizes the fixed-answer authoritative simulator.
type ANSSimConfig struct {
	// Env supplies clock and sockets.
	Env netapi.Env
	// Addr is the UDP service address.
	Addr netip.AddrPort
	// Mode selects answer or referral responses.
	Mode ANSSimMode
}

// anssimAnswer is the address the simulator returns in answers and glue.
var anssimAnswer = netip.MustParseAddr("203.0.113.80")

// ANSSim is the paper's ANS simulator: it answers every DNS question with
// the same fixed response as fast as its CPU allows. Every record carries TTL
// 0, so no cache between it and the load absorbs any of the load.
type ANSSim struct {
	cfg  ANSSimConfig
	conn netapi.UDPConn

	// Served counts responses sent.
	Served uint64
}

// NewANSSim validates cfg and creates the simulator.
func NewANSSim(cfg ANSSimConfig) (*ANSSim, error) {
	if cfg.Env == nil {
		return nil, errors.New("workload: ANSSimConfig.Env is required")
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeAnswer
	}
	return &ANSSim{cfg: cfg}, nil
}

// Start binds the socket and spawns the serving proc.
func (s *ANSSim) Start() error {
	conn, err := s.cfg.Env.ListenUDP(s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("workload: anssim bind %v: %w", s.cfg.Addr, err)
	}
	s.conn = conn
	s.cfg.Env.Go("anssim", s.serve)
	return nil
}

// Close stops the simulator.
func (s *ANSSim) Close() {
	if s.conn != nil {
		_ = s.conn.Close()
	}
}

// serve unpacks each query in the one slot it reads into; a full slot is a
// datagram over dnswire.MaxDatagram, and dropped.
func (s *ANSSim) serve() {
	slot := netapi.NewSlab(1, dnswire.MaxDatagram+1)
	for {
		if _, err := s.conn.ReadBatch(slot, netapi.NoTimeout); err != nil {
			return
		}
		if slot[0].N > dnswire.MaxDatagram {
			continue
		}
		src := slot[0].Addr
		q, err := dnswire.Unpack(slot[0].Payload())
		if err != nil || q.Flags.QR || len(q.Questions) == 0 {
			continue
		}
		resp := q.Response()
		qname := q.Question().Name
		switch s.cfg.Mode {
		case ModeReferral:
			nsName, err := qname.PrependLabel("ns1")
			if err != nil {
				nsName = dnswire.MustName("ns1.invalid")
			}
			resp.Authority = []dnswire.RR{
				dnswire.NewRR(qname, 0, &dnswire.NSData{Host: nsName}),
			}
			resp.Additional = []dnswire.RR{
				dnswire.NewRR(nsName, 0, &dnswire.AData{Addr: anssimAnswer}),
			}
		default:
			resp.Flags.AA = true
			resp.Answers = []dnswire.RR{
				dnswire.NewRR(qname, 0, &dnswire.AData{Addr: anssimAnswer}),
			}
		}
		wire, err := resp.PackUDP(dnswire.MaxUDPSize)
		if err != nil {
			continue
		}
		s.Served++
		_ = s.conn.WriteTo(wire, src)
	}
}
