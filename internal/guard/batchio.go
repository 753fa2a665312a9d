// Batch capture adapters. TapIO and SocketIO implement the engine's
// optional BatchReader/BatchWriter capabilities, so the engine reads both
// through ReadBatch at every Batch setting (a one-slot slab at Batch 1).
//
// Payloads are lent, not given (engine.BatchReader): what ReadBatch returns
// is valid until the next read on the same adapter. SocketIO hands out its
// own ingest slab in place — Batch slots of dnswire.MaxDatagram+1 bytes, the
// one packet buffer a shard owns on the ingress side — so a read copies
// nothing and allocates nothing. A tap's payloads happen to be the
// simulator's per-delivery clones, which outlive the rule. Write-side
// scratch is pooled, because several procs write through one adapter.
package guard

import (
	"sync"
	"time"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/engine"
	"dnsguard/internal/netapi"
)

var (
	_ engine.BatchReader = TapIO{}
	_ engine.BatchWriter = TapIO{}
	_ engine.BatchReader = (*SocketIO)(nil)
	_ engine.BatchWriter = (*SocketIO)(nil)
)

// ReadBatch implements engine.BatchReader: the tap's own batch read.
func (t TapIO) ReadBatch(pkts []Packet, timeout time.Duration) (int, error) {
	return t.Tap.ReadBatch(pkts, timeout)
}

// WriteBatch implements engine.BatchWriter: each packet is injected as its
// own tap write, in order, so the simulated event sequence matches n single
// writes exactly.
func (t TapIO) WriteBatch(pkts []Packet) error {
	for _, p := range pkts {
		if err := t.Tap.WriteFromTo(p.Src, p.Dst, p.Payload); err != nil {
			return err
		}
	}
	return nil
}

// socketViews pools write-side Datagram slices (slot buffers grown on demand
// by Datagram.Set).
var socketViews = sync.Pool{New: func() any { return new([]netapi.Datagram) }}

// ReadBatch implements engine.BatchReader: one BatchConn read into the
// adapter's slab, handed out in place. A slot is one byte larger than the
// largest datagram the guard accepts, so a longer datagram arrives with
// len(Payload) > dnswire.MaxDatagram and the handlers drop it as oversize.
func (s *SocketIO) ReadBatch(pkts []Packet, timeout time.Duration) (int, error) {
	if len(s.slab) < len(pkts) {
		s.slab = netapi.NewSlab(len(pkts), dnswire.MaxDatagram+1)
	}
	slab := s.slab[:len(pkts)]
	n, err := netapi.AsBatch(s.Conn).ReadBatch(slab, timeout)
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
// each packet's destination is used.
func (s *SocketIO) WriteBatch(pkts []Packet) error {
	vp := socketViews.Get().(*[]netapi.Datagram)
	if cap(*vp) < len(pkts) {
		*vp = make([]netapi.Datagram, len(pkts))
	}
	views := (*vp)[:len(pkts)]
	for i, p := range pkts {
		views[i].Set(p.Payload, p.Dst)
	}
	_, err := netapi.AsBatch(s.Conn).WriteBatch(views)
	socketViews.Put(vp)
	return err
}
