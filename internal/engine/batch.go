// The datagram path. Every read fills a Config.Batch-slot slab — one slot
// when Batch is 1 — and everything above the capture interface moves slices
// of that slab: the shard loop dispatches the slice in place, the fan-out
// reader splits it into per-shard groups that cross the ingress queues as
// one item each, and the worker dispatches a group as it would a slab. A
// single datagram is a batch of one; there is no second path for it.
//
// Payload ownership: a capture interface lends the payloads it returns
// until the next read on it (PacketIO.Read, BatchReader). The shard loop
// finishes with a slab before it reads again, so it dispatches the lent
// bytes as they are. A qbatch outlives the read that produced its packets —
// it waits in a queue — so qbatch.add copies each payload into the group's
// own buffer, the only copy on the ingress side. Handlers in turn only
// borrow what HandlePacket is given.
package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"dnsguard/internal/netapi"
)

// BatchReader is an optional PacketIO capability: fill up to len(pkts)
// packets per call, blocking per netapi timeout rules for the first and
// taking only what is already buffered after it (netapi.BatchConn
// semantics; n >= 1 when err is nil). Payloads are lent like Read's: valid
// until the next Read or ReadBatch on the interface, which may overwrite
// them. An interface without it is read one datagram per call through Read.
type BatchReader interface {
	ReadBatch(pkts []Packet, timeout time.Duration) (int, error)
}

// BatchWriter is an optional PacketIO capability: emit several datagrams in
// one call, in order. The guard's egress coalescing flushes per-shard reply
// buffers through it when present.
type BatchWriter interface {
	WriteBatch(pkts []Packet) error
}

// BatchHandler is an optional Handler capability. The engine never calls
// HandlePacket on a BatchHandler outside a BeginBatch(n)/EndBatch pair:
// socket reads and queue groups both arrive bracketed, n >= 1, with the n
// packets dispatched one by one in between. The bracket
// lets a handler amortize per-batch work (one cookie-keyring snapshot, one
// coalesced egress flush) and lets it defer work to EndBatch knowing
// EndBatch will come. Both calls run in the owning shard's context. A
// supervised restart mid-batch leaves the bracket open.
type BatchHandler interface {
	Handler
	BeginBatch(n int)
	EndBatch()
}

// readOne adapts a PacketIO without ReadBatch: each call is one Read into
// the first slot.
type readOne struct{ PacketIO }

func (r readOne) ReadBatch(pkts []Packet, timeout time.Duration) (int, error) {
	pkt, err := r.Read(timeout)
	if err != nil {
		return 0, err
	}
	pkts[0] = pkt
	return 1, nil
}

// batchReader returns io's own ReadBatch when it has one.
func batchReader(io PacketIO) BatchReader {
	if br, ok := io.(BatchReader); ok {
		return br
	}
	return readOne{io}
}

// qbatch is what ingress queues carry: packets bound for one shard, the
// buffer holding their payloads, and their shared enqueue time (for the wait
// histogram). Pooled, so boxing the pointer into the
// queue's `any` slot costs no allocation steady-state and the buffer is
// reused from group to group.
type qbatch struct {
	pkts     []Packet
	buf      []byte
	enqueued time.Duration
}

var qbatchPool = sync.Pool{New: func() any { return new(qbatch) }}

// add appends pkt with its payload copied into the group's buffer. When the
// buffer grows, packets added earlier keep pointing into the array it
// outgrew, which stays intact until the group is recycled.
func (b *qbatch) add(pkt Packet) {
	off := len(b.buf)
	b.buf = append(b.buf, pkt.Payload...)
	pkt.Payload = b.buf[off:len(b.buf):len(b.buf)]
	b.pkts = append(b.pkts, pkt)
}

func putQBatch(b *qbatch) {
	for i := range b.pkts {
		b.pkts[i] = Packet{} // drop refs to arrays the buffer outgrew
	}
	b.pkts, b.buf = b.pkts[:0], b.buf[:0]
	qbatchPool.Put(b)
}

// runShard is the reader-is-the-worker loop of a direct engine: every packet
// interface i delivers belongs to shard i by definition, so the slab is
// dispatched in place with no queue hop (the kernel socket buffer is the
// backpressure). The read blocks until a datagram or Close: an idle shard
// costs nothing, and no timer event enters a simulated schedule.
func (e *Engine) runShard(i int, br BatchReader) {
	sh := e.shards[i]
	ing := &e.ingest[i].IngestStats
	pkts := make([]Packet, e.cfg.Batch)
	for {
		n, err := br.ReadBatch(pkts, netapi.NoTimeout)
		if err != nil {
			return
		}
		atomic.AddUint64(&ing.Reads, 1)
		atomic.AddUint64(&ing.Packets, uint64(n))
		atomic.AddUint64(&sh.stats.Handled, uint64(n))
		e.dispatchBatch(i, pkts[:n])
	}
}

// runReader is the fan-out reader: one ReadBatch per wakeup, packets grouped
// by shard and each group enqueued as one item. It judges nothing: a full or
// closed queue tail-drops the group whole (ShedNew), as a direct shard's
// socket buffer drops what arrives; counters move by group size.
func (e *Engine) runReader(br BatchReader) {
	ing := &e.ingest[0].IngestStats
	pkts := make([]Packet, e.cfg.Batch)
	groups := make([]*qbatch, e.cfg.Shards)
	for {
		n, err := br.ReadBatch(pkts, netapi.NoTimeout)
		if err != nil {
			return
		}
		atomic.AddUint64(&ing.Reads, 1)
		atomic.AddUint64(&ing.Packets, uint64(n))
		now := e.cfg.Env.Now()
		for _, pkt := range pkts[:n] {
			shard := e.ShardOf(pkt.Src.Addr())
			b := groups[shard]
			if b == nil {
				b = qbatchPool.Get().(*qbatch)
				b.enqueued = now
				groups[shard] = b
			}
			b.add(pkt)
		}
		for shard, b := range groups {
			if b == nil {
				continue
			}
			groups[shard] = nil
			st := &e.shards[shard].stats
			m := uint64(len(b.pkts)) // a queued group is the worker's at once
			if e.shards[shard].queue.Put(b) {
				atomic.AddUint64(&st.Enqueued, m)
			} else {
				atomic.AddUint64(&st.ShedNew, m)
				putQBatch(b)
			}
		}
	}
}

// runWorker drains shard i's ingress queue into its handler.
func (e *Engine) runWorker(i int) {
	queue := e.shards[i].queue
	for {
		v, err := queue.Get(netapi.NoTimeout)
		if err != nil {
			return
		}
		e.handleGroup(i, v.(*qbatch))
	}
}

// handleGroup accounts and dispatches one dequeued group on shard i, then
// returns it to the pool.
func (e *Engine) handleGroup(i int, b *qbatch) {
	sh := e.shards[i]
	sh.wait.Observe(e.cfg.Env.Now() - b.enqueued)
	atomic.AddUint64(&sh.stats.Handled, uint64(len(b.pkts)))
	e.dispatchBatch(i, b.pkts)
	putQBatch(b)
}

// dispatchBatch hands pkts to shard i's handler one by one inside its batch
// bracket (see BatchHandler), each packet through the recover boundary of
// dispatch.
func (e *Engine) dispatchBatch(i int, pkts []Packet) {
	h := e.handlers[i]
	bh, _ := h.(BatchHandler)
	if bh != nil {
		bh.BeginBatch(len(pkts))
	}
	for _, pkt := range pkts {
		e.dispatch(i, h, pkt)
	}
	if bh != nil {
		bh.EndBatch()
	}
}
