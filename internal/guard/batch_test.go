package guard

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"

	"dnsguard/internal/dnswire"
)

// TestGuardBatchedDataplane runs the guarded-root scenario at Batch 1 and 8 —
// the same loop, bracket and coalesced egress flush with a one-slot and an
// eight-slot slab — and pins the end-to-end outcome and every guard counter
// to be independent of the slab size.
func TestGuardBatchedDataplane(t *testing.T) {
	stats := make(map[int]RemoteStats)
	for _, batch := range []int{1, 8} {
		f := newRootFixture(t, func(c *RemoteConfig) { c.Batch = batch })
		f.run(t, func() {
			res, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
			if err != nil {
				t.Errorf("batch=%d: Resolve: %v (guard stats %+v)", batch, err, f.guard.Stats)
				return
			}
			if len(res.Answers) != 1 || res.Answers[0].Data.(*dnswire.AData).Addr != mustAddr("198.51.100.10") {
				t.Errorf("batch=%d: answers = %v", batch, res.Answers)
			}
		})
		st := f.guard.Stats.Load()
		ing := f.guard.Engine().Ingest()
		if ing.Packets != st.Received || ing.Reads == 0 || ing.Reads > ing.Packets {
			t.Errorf("batch=%d: %d packets over %d reads, guard received %d; want every packet counted and n >= 1 per read",
				batch, ing.Packets, ing.Reads, st.Received)
		}
		if batch == 1 && ing.Reads != ing.Packets {
			t.Errorf("batch=1: %d reads for %d packets; a one-slot slab reads one datagram per call", ing.Reads, ing.Packets)
		}
		stats[batch] = st
	}
	if stats[8] != stats[1] {
		t.Errorf("guard counters depend on the slab size:\nbatch=1: %+v\nbatch=8: %+v",
			stats[1], stats[8])
	}
}

// TestGuardBatchedFloodDrops repeats the spoofed-flood scenario in batch
// mode: rate-limited grants and cookie admission must hold when the
// newcomers arrive as slabs and the shard sheds whole unverified groups.
func TestGuardBatchedFloodDrops(t *testing.T) {
	f := newRootFixture(t, func(c *RemoteConfig) {
		c.Batch = 16
		c.RL1.PerSourceRate = 100
		c.RL1.PerSourceBurst = 20
		c.RL1.GlobalRate = 1000
		c.RL1.GlobalBurst = 100
	})
	f.run(t, func() {
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("Resolve through flood config: %v", err)
		}
	})
	st := f.guard.Stats.Load()
	if st.CookieValid != 1 || st.ForwardedToANS != 1 {
		t.Errorf("valid=%d forwarded=%d, want 1/1", st.CookieValid, st.ForwardedToANS)
	}
}

// recordIO keeps a copy of every reply written through it.
type recordIO struct {
	sinkIO
	replies []string
}

func (io *recordIO) WriteFromTo(from, to netip.AddrPort, payload []byte) error {
	io.replies = append(io.replies, fmt.Sprintf("%v %x", to, payload))
	return nil
}

// TestEgressSlabHoldsABatch: replies written from spans wait for the flush in
// the shard's egress slab, one after the other. A bracket of several
// newcomers — more than the slab was sized for, so it grows under the queued
// ones — must flush the replies the same packets draw one bracket each.
func TestEgressSlabHoldsABatch(t *testing.T) {
	run := func(bracket int) []string {
		io := &recordIO{}
		h := newShardHarness(t, func(cfg *RemoteConfig) {
			cfg.IOs = []PacketIO{io}
			cfg.Zone = dnswire.MustName("foo.com")
		})
		if cap(h.s.egress) != dnswire.MaxUDPSize {
			t.Fatalf("egress slab of a Batch-1 shard holds %d bytes, want %d", cap(h.s.egress), dnswire.MaxUDPSize)
		}
		names := []string{"www.c5.foo.com", "foo.com", "www.bar.com", strings.Repeat("x", 50) + ".foo.com"}
		for i := 0; i < 12; i += bracket {
			h.s.BeginBatch(bracket)
			for k := i; k < i+bracket; k++ {
				h.s.HandlePacket(Packet{
					Src:     netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 1, byte(k)}), 5353),
					Dst:     h.g.cfg.PublicAddr,
					Payload: mustPack(t, dnswire.NewQuery(uint16(k), dnswire.MustName(names[k%len(names)]), dnswire.TypeA)),
				})
			}
			h.s.EndBatch()
			if len(h.s.egress) != 0 || len(h.s.outbuf) != 0 {
				t.Fatalf("after the flush the slab holds %d bytes and the queue %d replies", len(h.s.egress), len(h.s.outbuf))
			}
		}
		return io.replies
	}
	one, many := run(1), run(12)
	if len(one) != 12 || fmt.Sprint(many) != fmt.Sprint(one) {
		t.Errorf("a bracket of 12 flushed\n%v\none bracket each\n%v", many, one)
	}
}
