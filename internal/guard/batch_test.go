package guard

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netsim"
	"dnsguard/internal/vclock"
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
				t.Errorf("batch=%d: Resolve: %v (guard stats %+v)", batch, err, f.guard.Stats())
				return
			}
			if len(res.Answers) != 1 || res.Answers[0].Data.(*dnswire.AData).Addr != mustAddr("198.51.100.10") {
				t.Errorf("batch=%d: answers = %v", batch, res.Answers)
			}
		})
		st := f.guard.Stats()
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
	st := f.guard.Stats()
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

// TestTapDropsReachShedNew: overload stays visible. A burst of newcomers
// arriving at one instant overflows a one-shard guard's tap of 8 slots; what
// the tap tail-dropped is what guard_engine_shed_new reports and what the
// mitigation sampler counts into its input rate, and it is what the host
// says it dropped.
func TestTapDropsReachShedNew(t *testing.T) {
	sched := vclock.New(7)
	network := netsim.New(sched, time.Millisecond)
	host := network.AddHost("guard", mustAddr("10.99.0.1"))
	host.ClaimAddr(mustAddr("198.41.0.4"))
	host.SetQueueCap(8)
	tap, err := host.OpenTap()
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewRemote(RemoteConfig{
		Env:        host,
		IOs:        []PacketIO{tap},
		PublicAddr: mustAP("198.41.0.4:53"),
		ANSAddr:    mustAP("10.99.0.2:53"),
		Zone:       dnswire.Root,
		Auth:       testAuth(),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	g.MetricsInto(reg)
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	attacker := network.AddHost("attacker", mustAddr("203.0.113.66"))
	q := mustPack(t, dnswire.NewQuery(7, dnswire.MustName("www.foo.com"), dnswire.TypeA))
	sched.Go("flood", func() {
		for i := 0; i < 64; i++ {
			src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{172, 16, 0, byte(i)}), 1234)
			_ = attacker.SendRaw(src, mustAP("198.41.0.4:53"), q)
		}
		sched.Sleep(100 * time.Millisecond)
		g.Close()
	})
	sched.Run(time.Second)

	dropped := host.Stats.RecvDropped
	shed, _ := reg.Get("guard_engine_shed_new")
	if dropped == 0 || uint64(shed) != dropped {
		t.Errorf("guard_engine_shed_new = %v, the host dropped %d: want equal and > 0", shed, dropped)
	}
	if got := g.shedNew(); got != dropped {
		t.Errorf("the mitigation sampler counts %d shed, the host dropped %d", got, dropped)
	}
	if st := g.Stats(); st.Received+dropped != 64 {
		t.Errorf("received %d and shed %d of 64", st.Received, dropped)
	}
}
