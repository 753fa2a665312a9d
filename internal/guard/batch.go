// Per-shard batch bracket. The engine wraps every run of HandlePacket calls
// in BeginBatch/EndBatch — a slab off the socket or tap, one packet at
// Batch 1 — and the shard amortizes two hot-path costs
// over the bracket: the cookie keyring is snapshotted once, and the replies
// its packets produce leave in one coalesced BatchWriter call.
package guard

import (
	"net/netip"

	"dnsguard/internal/engine"
)

var _ engine.BatchHandler = (*remoteShard)(nil)

// BeginBatch implements engine.BatchHandler: snapshot the cookie keyring
// once for the whole batch. A rotation landing mid-batch takes effect at the
// next batch, indistinguishable from it landing a few packets later.
func (s *remoteShard) BeginBatch(int) { s.bv.Reset(s.g.cfg.Auth) }

// EndBatch implements engine.BatchHandler: flush the replies the batch's
// packets produced, in arrival order, through the shard's interface — its
// batch writer when it has one, else one write per reply.
func (s *remoteShard) EndBatch() {
	if len(s.outbuf) == 0 {
		return
	}
	if bw, ok := s.io.(engine.BatchWriter); ok {
		_ = bw.WriteBatch(s.outbuf)
	} else {
		for _, p := range s.outbuf {
			_ = s.io.WriteFromTo(p.Src, p.Dst, p.Payload)
		}
	}
	for i := range s.outbuf {
		s.outbuf[i] = Packet{} // drop payload refs between batches
	}
	s.outbuf, s.egress = s.outbuf[:0], s.egress[:0] // flushed: the slab's bytes are nobody's
}

// queueReply buffers wire, a reply from a worker-context handler, which must
// stay untouched until EndBatch has flushed it. The handler has counted it.
func (s *remoteShard) queueReply(from, to netip.AddrPort, wire []byte) {
	s.outbuf = append(s.outbuf, Packet{Src: from, Dst: to, Payload: wire})
}
