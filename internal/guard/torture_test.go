package guard

import (
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/engine"
	"dnsguard/internal/netsim"
	"dnsguard/internal/vclock"
	"dnsguard/internal/zone"
)

// A simulated host's tap goes to the guard as it is, so its methods are
// pinned here: were ReadBatch's signature to drift, the engine would quietly
// read the tap one datagram at a time.
var (
	_ engine.PacketIO    = (*netsim.Tap)(nil)
	_ engine.BatchReader = (*netsim.Tap)(nil)
)

// TestShardedGuardTorture floods an 8-shard guard with all three schemes at
// once — fabricated NS-name cookies, IP cookies, and the explicit cookie
// extension — plus newcomers and garbage, over links injecting loss,
// duplication, reordering, corruption, and jitter. It asserts the shard
// contract end to end: every source is handled by exactly the shard its
// address hashes to, multiple shards carry load, verified traffic still
// reaches the ANS, and nothing unverified leaks. `make check` runs it under
// -race, which also exercises the queued dataplane's cross-proc handoffs.
func TestShardedGuardTorture(t *testing.T) {
	sched := vclock.New(1234)
	network := netsim.New(sched, 5*time.Millisecond)

	ansHost := network.AddHost("foo-ans", mustAddr("10.99.0.2"))
	srv, err := ans.New(ans.Config{
		Env: ansHost, Addr: mustAP("10.99.0.2:53"),
		Zone: zone.MustParse(fooZoneText, dnswire.Root),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	guardHost := network.AddHost("guard", mustAddr("10.99.0.1"))
	guardHost.ClaimPrefix(netip.MustParsePrefix("192.0.2.0/24"))
	network.SetLatency(guardHost, ansHost, 100*time.Microsecond)
	tap, err := guardHost.OpenTap()
	if err != nil {
		t.Fatal(err)
	}

	// shardOf records which worker handled each source; the final assertion
	// compares it against the engine's hash. vclock serializes procs, so a
	// plain map is race-free under the simulator.
	shardOf := make(map[netip.Addr]map[int]bool)
	g, err := NewRemote(RemoteConfig{
		Env:        guardHost,
		IOs:        []PacketIO{tap},
		Shards:     8,
		queueDepth: 64,
		observer: func(shard int, pkt Packet) {
			a := pkt.Src.Addr()
			if shardOf[a] == nil {
				shardOf[a] = make(map[int]bool)
			}
			shardOf[a][shard] = true
		},
		PublicAddr: mustAP("192.0.2.1:53"),
		ANSAddr:    mustAP("10.99.0.2:53"),
		Zone:       dnswire.MustName("foo.com"),
		Subnet:     netip.MustParsePrefix("192.0.2.0/24"),
		Fallback:   SchemeDNS,
		Auth:       testAuth(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	attacker := network.AddHost("mixed-lrs-farm", mustAddr("203.0.113.66"))
	network.SetLinkFaults(attacker, guardHost, netsim.Faults{
		Loss:      0.05,
		Duplicate: 0.05,
		Reorder:   0.10,
		Corrupt:   0.02,
		Jitter:    2 * time.Millisecond,
	})

	auth := g.cfg.Auth
	nc := cookie.NSCodec{}
	ipc := cookie.IPCodec{Subnet: netip.MustParsePrefix("192.0.2.0/24")}
	public := mustAP("192.0.2.1:53")
	www := dnswire.MustName("www.foo.com")
	rng := rand.New(rand.NewSource(77))

	const sources = 96
	sched.Go("torture", func() {
		for round := 0; round < 4; round++ {
			for i := 0; i < sources; i++ {
				src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{198, 18, byte(i >> 8), byte(100 + i)}), uint16(2000+i))
				var wire []byte
				var dst netip.AddrPort
				switch i % 4 {
				case 0: // DNS-based scheme: query the fabricated NS name.
					fab, err := FabricateNSName(nc, auth.Mint(src.Addr()), www)
					if err != nil {
						t.Errorf("fabricate: %v", err)
						return
					}
					wire, _ = dnswire.NewQuery(uint16(i), fab, dnswire.TypeA).PackUDP(512)
					dst = public
				case 1: // IP-cookie scheme: query the fabricated address.
					addr, err := ipc.Encode(auth.Mint(src.Addr()))
					if err != nil {
						t.Errorf("ip encode: %v", err)
						return
					}
					wire, _ = dnswire.NewQuery(uint16(i), www, dnswire.TypeA).PackUDP(512)
					dst = netip.AddrPortFrom(addr, 53)
				case 2: // Modified-DNS scheme: explicit cookie extension.
					q := dnswire.NewQuery(uint16(i), www, dnswire.TypeA)
					AttachCookie(q, auth.Mint(src.Addr()), 3600)
					wire, _ = q.PackUDP(512)
					dst = public
				case 3: // Newcomer or garbage.
					if i%8 == 3 {
						wire, _ = dnswire.NewQuery(uint16(i), www, dnswire.TypeA).PackUDP(512)
					} else {
						wire = make([]byte, 4+rng.Intn(48))
						rng.Read(wire)
					}
					dst = public
				}
				_ = attacker.SendRaw(src, dst, wire)
				sched.Sleep(50 * time.Microsecond)
			}
			sched.Sleep(50 * time.Millisecond)
		}
		sched.Sleep(2 * time.Second)
	})
	sched.Run(5 * time.Minute)

	eng := g.Engine()
	used := make(map[int]bool)
	for src, shards := range shardOf {
		if len(shards) != 1 {
			t.Errorf("source %v handled by %d shards, want exactly 1", src, len(shards))
			continue
		}
		for shard := range shards {
			used[shard] = true
			if want := eng.ShardOf(src); shard != want {
				t.Errorf("source %v handled on shard %d, hash says %d", src, shard, want)
			}
		}
	}
	if len(used) < 2 {
		t.Errorf("only %d shard(s) carried traffic; want load spread", len(used))
	}

	st := g.Stats.Load()
	if st.Received == 0 || st.CookieValid == 0 || st.ForwardedToANS == 0 {
		t.Errorf("pipeline starved: %+v", st)
	}
	// Faulted links corrupt payloads; the guard must have eaten them quietly.
	if st.Malformed == 0 {
		t.Error("no malformed packets seen despite corruption faults")
	}
	// Everything the ANS saw went through cookie verification: its query
	// count cannot exceed what the guard forwarded.
	if srv.Stats.UDPQueries > st.ForwardedToANS {
		t.Errorf("ANS saw %d queries but guard forwarded only %d — leak",
			srv.Stats.UDPQueries, st.ForwardedToANS)
	}
	var handled uint64
	for i := 0; i < eng.Shards(); i++ {
		handled += eng.Stats(i).Handled
	}
	if handled != st.Received {
		t.Errorf("engine handled %d packets, guard received %d", handled, st.Received)
	}
}

// TestSurvivabilityTorture runs the mixed-scheme flood with the whole
// survivability layer armed at once: shard supervision absorbing injected
// handler panics, and the upstream breaker riding out a scripted mid-flood
// ANS blackout with failover to a secondary. The guard must come out the
// other side still verifying, with the primary restored, no shard tripped,
// and the no-leak invariant intact.
func TestSurvivabilityTorture(t *testing.T) {
	sched := vclock.New(4321)
	network := netsim.New(sched, 5*time.Millisecond)

	ansHost := network.AddHost("foo-ans", mustAddr("10.99.0.2"))
	srv, err := ans.New(ans.Config{
		Env: ansHost, Addr: mustAP("10.99.0.2:53"),
		Zone: zone.MustParse(fooZoneText, dnswire.Root),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	secHost := network.AddHost("foo-ans-2", mustAddr("10.99.0.3"))
	sec, err := ans.New(ans.Config{
		Env: secHost, Addr: mustAP("10.99.0.3:53"),
		Zone: zone.MustParse(fooZoneText, dnswire.Root),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sec.Start(); err != nil {
		t.Fatal(err)
	}

	guardHost := network.AddHost("guard", mustAddr("10.99.0.1"))
	guardHost.ClaimPrefix(netip.MustParsePrefix("192.0.2.0/24"))
	network.SetLatency(guardHost, ansHost, 100*time.Microsecond)
	network.SetLatency(guardHost, secHost, 100*time.Microsecond)
	tap, err := guardHost.OpenTap()
	if err != nil {
		t.Fatal(err)
	}

	poison := mustAddr("198.18.0.250")
	g, err := NewRemote(RemoteConfig{
		Env:        guardHost,
		IOs:        []PacketIO{tap},
		Shards:     8,
		queueDepth: 64,
		observer: func(shard int, pkt Packet) {
			if pkt.Src.Addr() == poison {
				panic("torture: injected handler fault")
			}
		},
		PublicAddr:     mustAP("192.0.2.1:53"),
		ANSAddr:        mustAP("10.99.0.2:53"),
		ANSFallbacks:   []netip.AddrPort{mustAP("10.99.0.3:53")},
		Supervision:    engine.SupervisorConfig{Enabled: true},
		pendingTimeout: 100 * time.Millisecond,
		Zone:           dnswire.MustName("foo.com"),
		Subnet:         netip.MustParsePrefix("192.0.2.0/24"),
		Fallback:       SchemeDNS,
		Auth:           testAuth(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	attacker := network.AddHost("mixed-lrs-farm", mustAddr("203.0.113.66"))
	network.SetLinkFaults(attacker, guardHost, netsim.Faults{
		Loss:    0.05,
		Reorder: 0.10,
		Jitter:  2 * time.Millisecond,
	})

	// Script the outage up front: the primary ANS goes completely dark
	// 20ms in, for 150ms — squarely inside the flood.
	network.IsolateFor(ansHost, 20*time.Millisecond, 150*time.Millisecond)

	auth := g.cfg.Auth
	nc := cookie.NSCodec{}
	public := mustAP("192.0.2.1:53")
	www := dnswire.MustName("www.foo.com")

	const sources, poisonPkts = 64, 4
	sched.Go("torture", func() {
		for i := 0; i < poisonPkts; i++ {
			// Panic packets land first so restarts happen under load.
			q, _ := dnswire.NewQuery(uint16(9000+i), www, dnswire.TypeA).PackUDP(512)
			_ = attacker.SendRaw(netip.AddrPortFrom(poison, 4444), public, q)
		}
		for round := 0; round < 6; round++ {
			for i := 0; i < sources; i++ {
				src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{198, 18, 1, byte(100 + i)}), uint16(2000+i))
				fab, err := FabricateNSName(nc, auth.Mint(src.Addr()), www)
				if err != nil {
					t.Errorf("fabricate: %v", err)
					return
				}
				wire, _ := dnswire.NewQuery(uint16(round*sources+i), fab, dnswire.TypeA).PackUDP(512)
				_ = attacker.SendRaw(src, public, wire)
				sched.Sleep(100 * time.Microsecond)
			}
			sched.Sleep(40 * time.Millisecond)
		}
		sched.Sleep(2 * time.Second)
	})
	sched.Run(5 * time.Minute)

	eng := g.Engine()
	sup := eng.Supervision()
	if sup.ShardRestarts < poisonPkts {
		t.Errorf("shard restarts = %d, want >= %d (one per poison packet)", sup.ShardRestarts, poisonPkts)
	}
	if sup.PanicsQuarantined != sup.ShardRestarts {
		t.Errorf("quarantined %d != restarts %d", sup.PanicsQuarantined, sup.ShardRestarts)
	}
	if sup.ShardsTripped != 0 {
		t.Errorf("%d shards tripped; budget should have absorbed the faults", sup.ShardsTripped)
	}

	st := g.Stats.Load()
	if st.BreakerOpens == 0 || st.BreakerCloses == 0 {
		t.Errorf("breaker never cycled: opens=%d closes=%d", st.BreakerOpens, st.BreakerCloses)
	}
	if st.Failovers == 0 || sec.Stats.UDPQueries == 0 {
		t.Errorf("no failover traffic: failovers=%d secondary-queries=%d", st.Failovers, sec.Stats.UDPQueries)
	}
	if st.ProbesSent == 0 {
		t.Error("no half-open probes sent")
	}
	for i := 0; i < g.Engine().Shards(); i++ {
		if s := g.BreakerState(i, mustAP("10.99.0.2:53")); s != 0 {
			t.Errorf("shard %d primary breaker = %d after heal, want 0 (closed)", i, s)
		}
	}
	if st.CookieValid == 0 || st.FailClosedDrops != 0 {
		t.Errorf("pipeline wrong under outage: valid=%d failClosed=%d", st.CookieValid, st.FailClosedDrops)
	}
	// No-leak invariant across BOTH upstreams.
	if total := srv.Stats.UDPQueries + sec.Stats.UDPQueries; total > st.ForwardedToANS {
		t.Errorf("upstreams saw %d queries, guard forwarded %d — leak", total, st.ForwardedToANS)
	}
	// Engine-handled accounting: every packet either reached the guard
	// pipeline or is sitting in quarantine.
	var handled uint64
	for i := 0; i < eng.Shards(); i++ {
		handled += eng.Stats(i).Handled
	}
	if handled != st.Received+sup.PanicsQuarantined {
		t.Errorf("handled %d != received %d + quarantined %d",
			handled, st.Received, sup.PanicsQuarantined)
	}
}
