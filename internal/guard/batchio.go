// Batch capture adapters. TapIO and SocketIO implement the engine's
// optional BatchReader/BatchWriter capabilities, so the engine reads both
// through ReadBatch at every Batch setting (a one-slot slab at Batch 1).
// Scratch state (netsim packet slices, Datagram slabs) is pooled — the
// engine calls ReadBatch on a value receiver, so per-call reuse has to live
// outside the adapter.
package guard

import (
	"sync"
	"time"

	"dnsguard/internal/engine"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netsim"
)

var (
	_ engine.BatchReader = TapIO{}
	_ engine.BatchWriter = TapIO{}
	_ engine.BatchReader = SocketIO{}
	_ engine.BatchWriter = SocketIO{}
)

// tapScratch pools the netsim.Packet slices ReadBatch converts from.
var tapScratch = sync.Pool{New: func() any { return new([]netsim.Packet) }}

// ReadBatch implements engine.BatchReader over the tap's batch read.
// Payloads arrive caller-owned from the simulator, so the conversion is a
// per-packet header copy, no payload copy.
func (t TapIO) ReadBatch(pkts []Packet, timeout time.Duration) (int, error) {
	sp := tapScratch.Get().(*[]netsim.Packet)
	if cap(*sp) < len(pkts) {
		*sp = make([]netsim.Packet, len(pkts))
	}
	scratch := (*sp)[:len(pkts)]
	n, err := t.Tap.ReadBatch(scratch, timeout)
	for i := 0; i < n; i++ {
		pkts[i] = Packet{Src: scratch[i].Src, Dst: scratch[i].Dst, Payload: scratch[i].Payload}
		scratch[i] = netsim.Packet{} // drop the payload ref before pooling
	}
	tapScratch.Put(sp)
	if err != nil {
		return 0, err
	}
	return n, nil
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

// socketSlot sizes read-slab buffers: 64 KiB covers any UDP payload, the
// same bound the single-packet ReadFrom path uses, so batching never
// introduces truncation the per-packet path would not have.
const socketSlot = 65536

// socketSlabs pools read slabs (slot buffers reused across batches) and
// socketViews pools write-side Datagram slices (slot buffers grown on
// demand by Datagram.Set).
var (
	socketSlabs = sync.Pool{New: func() any { return new([]netapi.Datagram) }}
	socketViews = sync.Pool{New: func() any { return new([]netapi.Datagram) }}
)

// ReadBatch implements engine.BatchReader: one BatchConn read into a pooled
// slab, then one arena allocation sized to the batch's total payload bytes —
// the handed-out packets are caller-owned (the engine queues them past this
// call) while the slab's 64 KiB slots stay hot for the next read.
func (s SocketIO) ReadBatch(pkts []Packet, timeout time.Duration) (int, error) {
	sp := socketSlabs.Get().(*[]netapi.Datagram)
	if cap(*sp) < len(pkts) {
		*sp = netapi.NewSlab(len(pkts), socketSlot)
	}
	slab := (*sp)[:len(pkts)]
	n, err := netapi.AsBatch(s.Conn).ReadBatch(slab, timeout)
	if err != nil {
		socketSlabs.Put(sp)
		return 0, err
	}
	total := 0
	for i := 0; i < n; i++ {
		total += slab[i].N
	}
	arena := make([]byte, total)
	local := s.Conn.LocalAddr()
	off := 0
	for i := 0; i < n; i++ {
		p := arena[off : off+slab[i].N : off+slab[i].N]
		copy(p, slab[i].Payload())
		off += slab[i].N
		pkts[i] = Packet{Src: slab[i].Addr, Dst: local, Payload: p}
	}
	socketSlabs.Put(sp)
	return n, nil
}

// WriteBatch implements engine.BatchWriter; as with WriteFromTo, the source
// address is the socket's own and cannot be spoofed from userspace, so only
// each packet's destination is used.
func (s SocketIO) WriteBatch(pkts []Packet) error {
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
