// The promoted Kaminsky-sweep regression: the same scenario the hand-rolled
// attacker in remote_test.go used to drive — off-path forged answers, then
// an on-path transaction-ID sweep racing a live NAT entry — now expressed
// as the workload package's "kaminsky-sweep" campaign pack, compressed onto
// the fixture's millisecond timeline via PackParams.Stretch. External test
// package: workload imports guard, so the wrapper must sit outside it.
package guard_test

import (
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/guard"
	"dnsguard/internal/netsim"
	"dnsguard/internal/resolver"
	"dnsguard/internal/vclock"
	"dnsguard/internal/workload"
	"dnsguard/internal/zone"
)

const (
	packRootZoneText = `
.    86400 IN SOA a.root.example. host.example. 1 7200 600 360000 60
.    86400 IN NS  a.root.example.
a.root.example. 86400 IN A 198.41.0.4
com. 86400 IN NS a.gtld.example.
a.gtld.example. 86400 IN A 192.5.6.30
org. 86400 IN NS a.org.example.
a.org.example. 86400 IN A 192.5.6.40
`
	packComZoneText = `
$ORIGIN com.
@ 86400 IN SOA a.gtld.example. host.example. 1 7200 600 360000 60
@ 86400 IN NS a.gtld.example.
foo 86400 IN NS ns1.foo.com.
ns1.foo.com. 86400 IN A 192.0.2.1
`
	packFooZoneText = `
$ORIGIN foo.com.
@ 3600 IN SOA ns1 admin 1 7200 600 360000 60
@ 3600 IN NS ns1
ns1 3600 IN A 192.0.2.1
www 300 IN A 198.51.100.10
mail 300 IN A 198.51.100.11
`
)

func TestGuardRejectsSpoofedUpstreamAnswers(t *testing.T) {
	// The root fixture of remote_test.go, rebuilt on the exported API: a
	// guard fronting the root ANS, unguarded com/foo servers, one LRS.
	sched := vclock.New(21)
	network := netsim.New(sched, 5*time.Millisecond)

	rootHost := network.AddHost("root-ans", netip.MustParseAddr("10.99.0.2"))
	rootSrv, err := ans.New(ans.Config{
		Env: rootHost, Addr: netip.MustParseAddrPort("10.99.0.2:53"),
		Zone: zone.MustParse(packRootZoneText, dnswire.Root),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rootSrv.Start(); err != nil {
		t.Fatal(err)
	}

	guardHost := network.AddHost("guard", netip.MustParseAddr("10.99.0.1"))
	guardHost.ClaimAddr(netip.MustParseAddr("198.41.0.4"))
	// Slow the guard<->ANS link so the NAT entry for the forwarded query
	// stays pending long enough for the sweep to race it.
	network.SetLatency(guardHost, rootHost, 20*time.Millisecond)
	tap, err := guardHost.OpenTap()
	if err != nil {
		t.Fatal(err)
	}
	var key [cookie.KeySize]byte
	for i := range key {
		key[i] = byte(i)
	}
	auth, err := cookie.Open(cookie.Options{Key: &key})
	if err != nil {
		t.Fatal(err)
	}
	g, err := guard.NewRemote(guard.RemoteConfig{
		Env:        guardHost,
		IOs:        []guard.PacketIO{tap},
		PublicAddr: netip.MustParseAddrPort("198.41.0.4:53"),
		ANSAddr:    netip.MustParseAddrPort("10.99.0.2:53"),
		Zone:       dnswire.Root,
		Fallback:   guard.SchemeDNS,
		Auth:       auth,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}

	for _, hz := range []struct{ name, ip, text string }{
		{"com-ans", "192.5.6.30", packComZoneText},
		{"foo-ans", "192.0.2.1", packFooZoneText},
	} {
		h := network.AddHost(hz.name, netip.MustParseAddr(hz.ip))
		srv, err := ans.New(ans.Config{
			Env: h, Addr: netip.AddrPortFrom(h.Addr(), 53),
			Zone: zone.MustParse(hz.text, dnswire.Root),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
	}

	lrs := network.AddHost("lrs", netip.MustParseAddr("10.0.0.53"))
	res, err := resolver.New(resolver.Config{
		Env:       lrs,
		RootHints: []netip.AddrPort{netip.MustParseAddrPort("198.41.0.4:53")},
		Timeout:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The campaign pack, compressed 40:1 so its seconds-scale timeline
	// lands on this fixture's ~40ms pending window: the off-path phase
	// fires at t=25ms (handshake done, verified query in flight), the
	// on-path sweep covers its 512-ID span within the window.
	pack, ok := workload.PackByName("kaminsky-sweep")
	if !ok {
		t.Fatal("kaminsky-sweep pack missing")
	}
	attacker := network.AddHost("attacker", netip.MustParseAddr("203.0.113.99"))
	phases := pack.Build(workload.PackParams{
		Rate:    8000,
		Lead:    25 * time.Millisecond,
		Stretch: 0.025,
	})
	camp, err := workload.NewCampaign(workload.CampaignConfig{
		Host:     attacker,
		Target:   netip.MustParseAddrPort("198.41.0.4:53"),
		Zone:     dnswire.Root,
		Seed:     21,
		Upstream: g.UpstreamAddr,
		ANSAddr:  netip.MustParseAddrPort("10.99.0.2:53"),
		Phases:   phases,
	})
	if err != nil {
		t.Fatal(err)
	}
	camp.Start()

	sched.Go("test", func() {
		r, err := res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
		if err != nil {
			t.Errorf("Resolve despite spoofing: %v (guard stats %+v)", err, g.Stats())
			return
		}
		if len(r.Answers) != 1 || r.Answers[0].Data.(*dnswire.AData).Addr != netip.MustParseAddr("198.51.100.10") {
			t.Errorf("answers = %v, want the genuine 198.51.100.10", r.Answers)
		}
	})
	sched.Run(30 * time.Second)

	if camp.PhasesFinished() != 2 {
		t.Fatalf("phases finished = %d, want 2", camp.PhasesFinished())
	}
	offPathSent := camp.PhaseSent(0)
	if offPathSent == 0 || camp.PhaseSent(1) == 0 {
		t.Fatalf("campaign under-emitted: phase sends %d / %d", offPathSent, camp.PhaseSent(1))
	}
	st := g.Stats()
	// Every off-path packet is rejected at the source check, and at least
	// one on-path swept ID must have hit a live NAT entry and been rejected
	// by the question check — without evicting the entry (the genuine
	// answer above still landed).
	if st.UpstreamSpoofed < offPathSent+1 {
		t.Errorf("UpstreamSpoofed = %d, want >= %d (off-path sends + a pending-ID hit)",
			st.UpstreamSpoofed, offPathSent+1)
	}
	// Swept IDs with no pending entry are strays, not spoofs.
	if st.UpstreamStrays == 0 {
		t.Error("UpstreamStrays = 0, want > 0 (non-pending IDs from the sweep)")
	}
}
