// The datagram path. Every read fills a Config.Batch-slot slab — one slot
// when Batch is 1 — and the shard loop dispatches that slice of the slab in
// place. A single datagram is a batch of one; there is no second path for
// it.
//
// Payload ownership: a capture interface lends the payloads it returns
// until the next read on it (BatchReader). The shard loop finishes with a
// slab before it reads again, so it dispatches the lent bytes as they are,
// with no copy on the ingress side. Handlers in turn only borrow what
// HandlePacket is given.
package engine

import (
	"sync/atomic"
	"time"

	"dnsguard/internal/netapi"
)

// BatchReader is a capture interface's read, the one every interface the
// engine starts has: fill up to len(pkts) packets per call, blocking per
// netapi timeout rules for the first and taking only what is already
// buffered after it (n >= 1 when err is nil). Payloads are lent: valid until
// the next ReadBatch on the interface, which may overwrite them.
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
// every read arrives bracketed, n >= 1, with the n packets dispatched one by
// one in between. The bracket
// lets a handler amortize per-batch work (one cookie-keyring snapshot, one
// coalesced egress flush) and lets it defer work to EndBatch knowing
// EndBatch will come. Both calls run in the owning shard's context. A
// supervised restart mid-batch leaves the bracket open.
type BatchHandler interface {
	Handler
	BeginBatch(n int)
	EndBatch()
}

// runShard is shard i's loop: every packet interface i delivers belongs to
// shard i by definition, so the slab is dispatched in place with no queue
// hop (the interface's own receive queue is the backpressure). The read
// blocks until a datagram or Close: an idle shard costs nothing, and no
// timer event enters a simulated schedule.
func (e *Engine) runShard(i int, br BatchReader) {
	sh := e.shards[i]
	pkts := make([]Packet, e.cfg.Batch)
	for {
		n, err := br.ReadBatch(pkts, netapi.NoTimeout)
		if err != nil {
			return
		}
		atomic.AddUint64(&sh.ingest.Reads, 1)
		atomic.AddUint64(&sh.ingest.Packets, uint64(n))
		e.dispatchBatch(i, pkts[:n])
	}
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
