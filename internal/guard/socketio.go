package guard

import (
	"net/netip"
	"sync"
	"time"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/engine"
	"dnsguard/internal/netapi"
)

// SocketIO adapts a bound UDP socket to PacketIO for real deployments: the
// guard binds the protected service address directly, so every read's
// destination is the socket's own address and replies always originate from
// it. The fabricated-IP variant (which needs a whole subnet) is therefore
// unavailable over SocketIO; use the NS-name, TCP, or modified schemes. A
// simulated host's tap needs no adapter: *netsim.Tap is a PacketIO as it is.
//
// Use it by pointer (&SocketIO{Conn: c}): the adapter owns the ingest slab
// its reader fills — a receive slab of Batch slots (recvSlab), the one packet
// buffer a shard owns on the ingress side — and hands it out in place,
// so a read copies nothing and allocates nothing. Payloads are lent, not
// given (engine.BatchReader): what a read returns is valid until the next
// read. It therefore serves one reading proc at a time — the engine runs
// exactly one per interface. Writes may come from any proc and copy
// nothing: a batch write lends the socket each reply where it lies, through
// pooled slot headers.
type SocketIO struct {
	Conn netapi.UDPConn

	slab []netapi.Datagram // ingest slab, allocated by the first read
}

var (
	_ PacketIO           = (*SocketIO)(nil)
	_ engine.BatchReader = (*SocketIO)(nil)
	_ engine.BatchWriter = (*SocketIO)(nil)
)

// WriteFromTo implements PacketIO; src must be the socket's own address
// (userspace cannot spoof), so it is ignored.
func (s *SocketIO) WriteFromTo(src, dst netip.AddrPort, payload []byte) error {
	return s.Conn.WriteTo(payload, dst)
}

// Close implements PacketIO.
func (s *SocketIO) Close() error { return s.Conn.Close() }

// socketViews pools write-side Datagram slices: headers only, each slot
// cleared before it goes back, so the pool keeps no reply alive.
var socketViews = sync.Pool{New: func() any { return new([]netapi.Datagram) }}

// recvSlab allocates one of a shard's two receive slabs, n slots each one
// byte larger than the largest datagram the guard accepts: a longer datagram
// arrives with len(Payload) > dnswire.MaxDatagram and the handlers drop it as
// oversize. A slot's first netapi.SlabHead bytes lie beside the next slot's,
// and the rest of it is touched only by a datagram longer than that, so
// short datagrams keep n × SlabHead bytes of a slab resident.
func recvSlab(n int) []netapi.Datagram { return netapi.NewSlab(n, dnswire.MaxDatagram+1) }

// ReadBatch implements engine.BatchReader: one read of the socket into the
// adapter's slab, handed out in place.
func (s *SocketIO) ReadBatch(pkts []Packet, timeout time.Duration) (int, error) {
	if len(s.slab) < len(pkts) {
		s.slab = recvSlab(len(pkts))
	}
	slab := s.slab[:len(pkts)]
	n, err := s.Conn.ReadBatch(slab, timeout)
	if err != nil {
		return 0, err
	}
	local := s.Conn.LocalAddr()
	for i := 0; i < n; i++ {
		pkts[i] = Packet{Src: slab[i].Addr, Dst: local, Payload: slab[i].Payload()}
	}
	return n, nil
}

// WriteBatch implements engine.BatchWriter; as with WriteFromTo, the source
// address is the socket's own and cannot be spoofed from userspace, so only
// each packet's destination is used. Each payload is lent to the socket for
// the call, not copied.
func (s *SocketIO) WriteBatch(pkts []Packet) error {
	vp := socketViews.Get().(*[]netapi.Datagram)
	if cap(*vp) < len(pkts) {
		*vp = make([]netapi.Datagram, len(pkts))
	}
	views := (*vp)[:len(pkts)]
	for i, p := range pkts {
		views[i] = netapi.Datagram{Buf: p.Payload, N: len(p.Payload), Addr: p.Dst}
	}
	_, err := s.Conn.WriteBatch(views)
	clear(views)
	socketViews.Put(vp)
	return err
}
