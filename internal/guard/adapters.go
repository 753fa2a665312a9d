package guard

import (
	"net/netip"
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/netsim"
)

// TapIO adapts a netsim.Tap to PacketIO, the deployment used by all
// simulations: the guard host claims the protected address space and reads
// intercepted datagrams from its tap.
type TapIO struct {
	Tap *netsim.Tap
}

var _ PacketIO = TapIO{}

// Read implements PacketIO.
func (t TapIO) Read(timeout time.Duration) (Packet, error) {
	return t.Tap.Read(timeout)
}

// WriteFromTo implements PacketIO.
func (t TapIO) WriteFromTo(src, dst netip.AddrPort, payload []byte) error {
	return t.Tap.WriteFromTo(src, dst, payload)
}

// Close implements PacketIO.
func (t TapIO) Close() error { return t.Tap.Close() }

// SocketIO adapts a bound UDP socket to PacketIO for real deployments: the
// guard binds the protected service address directly, so every read's
// destination is the socket's own address and replies always originate from
// it. The fabricated-IP variant (which needs a whole subnet) is therefore
// unavailable over SocketIO; use the NS-name, TCP, or modified schemes.
//
// Use it by pointer (&SocketIO{Conn: c}): the adapter owns the slab its
// reader fills (batchio.go), so it serves one reading proc at a time — the
// engine runs exactly one per interface. Writes may come from any proc.
type SocketIO struct {
	Conn netapi.UDPConn

	slab []netapi.Datagram // ingest slab, allocated by the first read
}

var _ PacketIO = (*SocketIO)(nil)

// Read implements PacketIO: a one-slot ReadBatch, under the same borrow rule.
func (s *SocketIO) Read(timeout time.Duration) (Packet, error) {
	var one [1]Packet
	if _, err := s.ReadBatch(one[:], timeout); err != nil {
		return Packet{}, err
	}
	return one[0], nil
}

// WriteFromTo implements PacketIO; src must be the socket's own address
// (userspace cannot spoof), so it is ignored.
func (s *SocketIO) WriteFromTo(_, dst netip.AddrPort, payload []byte) error {
	return s.Conn.WriteTo(payload, dst)
}

// Close implements PacketIO.
func (s *SocketIO) Close() error { return s.Conn.Close() }
