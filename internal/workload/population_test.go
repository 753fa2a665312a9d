package workload

import (
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/guard"
	"dnsguard/internal/netsim"
	"dnsguard/internal/vclock"
)

func newTestPopulation(t *testing.T, seed int64) (*vclock.Scheduler, *netsim.Network, *Population, *netsim.Host) {
	t.Helper()
	sched := vclock.New(seed)
	net := netsim.New(sched, 200*time.Microsecond)
	popHost := net.AddHost("population", netip.MustParseAddr("10.128.0.200"))
	svcHost := net.AddHost("svc", netip.MustParseAddr("192.0.2.1"))
	svcHost.ClaimPrefix(netip.MustParsePrefix("192.0.2.0/24"))
	var key [cookie.KeySize]byte
	key[0] = 0x6D
	pop, err := NewPopulation(PopulationConfig{
		Host:    popHost,
		Sources: 50_000,
		Rate:    4000,
		Target:  netip.MustParseAddrPort("192.0.2.1:53"),
		Auth:    mustOpen(cookie.Options{Key: &key}),
		Seed:    uint64(seed) * 0x9E3779B97F4A7C15,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sched, net, pop, svcHost
}

// TestPopulationEmitsVerifiableZipfStream pins the generator's contract: the
// aggregate rate tracks Rate, every emitted flow is a fabricated-NS-name
// query whose cookie label verifies for its source address, sources are
// drawn Zipf(θ=1) (rank 1 alone carries ~1/H(N) of the load), and reply
// classification counts answers back through the claimed prefix.
func TestPopulationEmitsVerifiableZipfStream(t *testing.T) {
	sched, _, pop, svcHost := newTestPopulation(t, 42)
	tap, err := svcHost.OpenTap()
	if err != nil {
		t.Fatal(err)
	}
	auth := pop.cfg.Auth
	nsc := cookie.NSCodec{}
	perSource := map[netip.Addr]uint64{}
	var received uint64
	svcHost.Go("svc", func() {
		for {
			slot := make([]netsim.Packet, 1)
			_, err := tap.ReadBatch(slot, -1)
			pkt := slot[0]
			if err != nil {
				return
			}
			msg, err := dnswire.Unpack(pkt.Payload)
			if err != nil {
				t.Errorf("population emitted unparseable packet: %v", err)
				continue
			}
			received++
			perSource[pkt.Src.Addr()]++
			label, child, ok := guard.ParseFabricatedName(nsc, msg.Question().Name)
			if !ok {
				t.Errorf("flow %d: query %q carries no cookie label", received, msg.Question().Name)
				continue
			}
			if child != dnswire.MustName("www.foo.com") {
				t.Errorf("flow %d: restored child %q", received, child)
			}
			if !nsc.VerifyLabel(auth, pkt.Src.Addr(), label) {
				t.Errorf("flow %d: cookie label did not verify for %v", received, pkt.Src.Addr())
			}
			// Answer so the classifier sees a completed flow.
			resp := msg.Response()
			resp.Flags.AA = true
			resp.Answers = []dnswire.RR{dnswire.NewRR(msg.Question().Name, 60, &dnswire.AData{Addr: netip.MustParseAddr("192.0.2.10")})}
			wire, err := resp.PackUDP(dnswire.MaxUDPSize)
			if err != nil {
				t.Error(err)
				continue
			}
			_ = tap.WriteFromTo(pkt.Dst, pkt.Src, wire)
		}
	})
	pop.Start()
	sched.Run(2 * time.Second)

	// Emission runs to the horizon, so the final tick's packets are still in
	// flight when the clock stops: allow that sliver, nothing more.
	if pop.Stats.FlowsSent == 0 || received > pop.Stats.FlowsSent || pop.Stats.FlowsSent-received > 100 {
		t.Fatalf("FlowsSent = %d, service received %d", pop.Stats.FlowsSent, received)
	}
	// 4000 flows/s over 2 s: Poisson keeps it near 8000.
	if pop.Stats.FlowsSent < 7200 || pop.Stats.FlowsSent > 8800 {
		t.Errorf("FlowsSent = %d, want ~8000", pop.Stats.FlowsSent)
	}
	if pop.Stats.Answered > received || received-pop.Stats.Answered > 100 {
		t.Errorf("Answered = %d, want ~%d (every received flow answered)", pop.Stats.Answered, received)
	}
	if pop.Stats.Granted != 0 || pop.Stats.Refused != 0 || pop.Stats.Unparsed != 0 {
		t.Errorf("unexpected classification: %+v", pop.Stats)
	}
	// Zipf shape: rank 1 carries ~1/H(50000) ≈ 8.5% of flows; the top 100
	// ranks ~43%. Loose bounds that still rule out uniform (0.002% / 0.2%).
	r1 := perSource[pop.Addr(1)]
	if frac := float64(r1) / float64(received); frac < 0.05 || frac > 0.13 {
		t.Errorf("rank-1 load fraction = %.4f, want ~0.085", frac)
	}
	var top100 uint64
	for r := 1; r <= 100; r++ {
		top100 += perSource[pop.Addr(r)]
	}
	if frac := float64(top100) / float64(received); frac < 0.3 || frac > 0.6 {
		t.Errorf("top-100 load fraction = %.4f, want ~0.43", frac)
	}
	// All sources inside the default prefix.
	for src := range perSource {
		if !netip.MustParsePrefix("10.128.0.0/9").Contains(src) {
			t.Fatalf("source %v outside population prefix", src)
		}
	}
}

// TestPopulationDeterminism: same seed, same stream — different seed,
// different stream.
func TestPopulationDeterminism(t *testing.T) {
	trace := func(seed int64) (uint64, []netip.Addr) {
		sched, _, pop, svcHost := newTestPopulation(t, seed)
		tap, err := svcHost.OpenTap()
		if err != nil {
			t.Fatal(err)
		}
		var order []netip.Addr
		svcHost.Go("svc", func() {
			for {
				slot := make([]netsim.Packet, 1)
				_, err := tap.ReadBatch(slot, -1)
				pkt := slot[0]
				if err != nil {
					return
				}
				if len(order) < 64 {
					order = append(order, pkt.Src.Addr())
				}
			}
		})
		pop.Start()
		sched.Run(500 * time.Millisecond)
		return pop.Stats.FlowsSent, order
	}
	n1, o1 := trace(7)
	n2, o2 := trace(7)
	if n1 != n2 {
		t.Fatalf("same seed, different flow counts: %d vs %d", n1, n2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("same seed, different source order at %d: %v vs %v", i, o1[i], o2[i])
		}
	}
	n3, _ := trace(8)
	if n3 == n1 {
		t.Log("different seeds produced equal flow counts (possible but unlikely)")
	}
}

func TestPopulationConfigValidation(t *testing.T) {
	sched := vclock.New(1)
	net := netsim.New(sched, time.Millisecond)
	host := net.AddHost("p", netip.MustParseAddr("10.128.0.1"))
	auth := mustOpen(cookie.Options{Key: &[cookie.KeySize]byte{1}})
	base := PopulationConfig{
		Host: host, Sources: 10, Rate: 100,
		Target: netip.MustParseAddrPort("192.0.2.1:53"), Auth: auth,
	}
	bad := base
	bad.Sources = 0
	if _, err := NewPopulation(bad); err == nil {
		t.Error("Sources=0 accepted")
	}
	bad = base
	bad.Auth = nil
	if _, err := NewPopulation(bad); err == nil {
		t.Error("nil Auth accepted")
	}
	bad = base
	bad.Sources = 1 << 23
	if _, err := NewPopulation(bad); err == nil {
		t.Error("more sources than the prefix holds accepted")
	}
	if _, err := NewPopulation(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
