package guard

import (
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi/netapitest"
	"dnsguard/internal/netsim"
	"dnsguard/internal/resolver"
	"dnsguard/internal/vclock"
	"dnsguard/internal/zone"
)

func mustAddr(s string) netip.Addr   { return netip.MustParseAddr(s) }
func mustAP(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }

const rootZoneText = `
.    86400 IN SOA a.root.example. host.example. 1 7200 600 360000 60
.    86400 IN NS  a.root.example.
a.root.example. 86400 IN A 198.41.0.4
com. 86400 IN NS a.gtld.example.
a.gtld.example. 86400 IN A 192.5.6.30
org. 86400 IN NS a.org.example.
a.org.example. 86400 IN A 192.5.6.40
`

const comZoneText = `
$ORIGIN com.
@ 86400 IN SOA a.gtld.example. host.example. 1 7200 600 360000 60
@ 86400 IN NS a.gtld.example.
foo 86400 IN NS ns1.foo.com.
ns1.foo.com. 86400 IN A 192.0.2.1
`

const fooZoneText = `
$ORIGIN foo.com.
@ 3600 IN SOA ns1 admin 1 7200 600 360000 60
@ 3600 IN NS ns1
ns1 3600 IN A 192.0.2.1
www 300 IN A 198.51.100.10
mail 300 IN A 198.51.100.11
`

// rootFixture: a guard protecting the root ANS; com and foo.com are plain
// unguarded servers. This exercises the referral (NS-name) variant.
type rootFixture struct {
	sched *vclock.Scheduler
	net   *netsim.Network
	guard *Remote
	root  *ans.Server
	lrs   *netsim.Host
	res   *resolver.Resolver
	hosts map[string]*netsim.Host
}

func newRootFixture(t *testing.T, mutate func(*RemoteConfig)) *rootFixture {
	t.Helper()
	sched := vclock.New(21)
	network := netsim.New(sched, 5*time.Millisecond)
	f := &rootFixture{sched: sched, net: network, hosts: map[string]*netsim.Host{}}

	// Real root ANS on a private address.
	rootHost := network.AddHost("root-ans", mustAddr("10.99.0.2"))
	f.hosts["root-ans"] = rootHost
	rootSrv, err := ans.New(ans.Config{
		Env: rootHost, Addr: mustAP("10.99.0.2:53"),
		Zone: zone.MustParse(rootZoneText, dnswire.Root),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rootSrv.Start(); err != nil {
		t.Fatal(err)
	}
	f.root = rootSrv

	// Guard claims the public root address.
	guardHost := network.AddHost("guard", mustAddr("10.99.0.1"))
	f.hosts["guard"] = guardHost
	guardHost.ClaimAddr(mustAddr("198.41.0.4"))
	network.SetLatency(guardHost, rootHost, 100*time.Microsecond)
	cfg := RemoteConfig{
		Env:        guardHost,
		PublicAddr: mustAP("198.41.0.4:53"),
		ANSAddr:    mustAP("10.99.0.2:53"),
		Zone:       dnswire.Root,
		Fallback:   SchemeDNS,
		Auth:       testAuth(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	cfg.IOs = openTaps(t, guardHost, max(cfg.Shards, 1)) // one unless mutate asked for more
	g, err := NewRemote(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	f.guard = g

	// Unguarded com and foo servers.
	for _, hz := range []struct{ name, ip, text string }{
		{"com-ans", "192.5.6.30", comZoneText},
		{"foo-ans", "192.0.2.1", fooZoneText},
	} {
		h := network.AddHost(hz.name, mustAddr(hz.ip))
		f.hosts[hz.name] = h
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

	f.lrs = network.AddHost("lrs", mustAddr("10.0.0.53"))
	res, err := resolver.New(resolver.Config{
		Env:       f.lrs,
		RootHints: []netip.AddrPort{mustAP("198.41.0.4:53")},
		Timeout:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.res = res
	return f
}

func (f *rootFixture) run(t *testing.T, fn func()) {
	t.Helper()
	f.sched.Go("test", fn)
	f.sched.Run(30 * time.Second)
}

func TestGuardedRootResolution(t *testing.T) {
	f := newRootFixture(t, nil)
	f.run(t, func() {
		res, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
		if err != nil {
			t.Errorf("Resolve: %v (guard stats %+v)", err, f.guard.Stats())
			return
		}
		if len(res.Answers) != 1 || res.Answers[0].Data.(*dnswire.AData).Addr != mustAddr("198.51.100.10") {
			t.Errorf("answers = %v", res.Answers)
		}
	})
	st := f.guard.Stats()
	if st.NewcomerGrants != 1 {
		t.Errorf("grants = %d, want 1", st.NewcomerGrants)
	}
	if st.CookieValid != 1 {
		t.Errorf("valid = %d, want 1", st.CookieValid)
	}
	if st.ForwardedToANS != 1 {
		t.Errorf("forwarded = %d, want 1 (only the verified cookie query)", st.ForwardedToANS)
	}
	if f.root.Stats.UDPQueries != 1 {
		t.Errorf("root ANS saw %d queries, want 1", f.root.Stats.UDPQueries)
	}
}

func TestGuardedRootSiblingTLDSkipsRoot(t *testing.T) {
	f := newRootFixture(t, nil)
	f.run(t, func() {
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("first: %v", err)
			return
		}
		// A different name under com: the LRS has cached the fabricated
		// com NS and its addresses, so the root guard sees nothing new.
		before := f.guard.Stats().Received
		if _, err := f.res.Resolve(dnswire.MustName("foo.com"), dnswire.TypeNS); err != nil {
			t.Errorf("second: %v", err)
			return
		}
		if f.guard.Stats().Received != before {
			t.Errorf("root guard saw %d extra packets; cached delegation should bypass it",
				f.guard.Stats().Received-before)
		}
	})
}

func TestGuardDropsSpoofedFlood(t *testing.T) {
	f := newRootFixture(t, func(c *RemoteConfig) {
		c.RL1.PerSourceRate = 100
		c.RL1.PerSourceBurst = 20
		c.RL1.GlobalRate = 1000
		c.RL1.GlobalBurst = 100
		c.RL1.TrackedSources = 1024
	})
	attacker := f.net.AddHost("attacker", mustAddr("203.0.113.66"))
	const floodPkts = 2000

	f.sched.Go("attacker", func() {
		q, _ := dnswire.NewQuery(99, dnswire.MustName("www.foo.com"), dnswire.TypeA).PackUDP(512)
		for i := 0; i < floodPkts; i++ {
			src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{172, 16, byte(i >> 8), byte(i)}), 1234)
			_ = attacker.SendRaw(src, mustAP("198.41.0.4:53"), q)
			f.sched.Sleep(10 * time.Microsecond)
		}
	})
	f.run(t, func() {
		f.sched.Sleep(time.Second) // let the flood land
		res, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
		if err != nil {
			t.Errorf("legit resolution failed under flood: %v", err)
			return
		}
		if len(res.Answers) == 0 {
			t.Error("no answers")
		}
	})
	// Spoofed packets must never reach the ANS: it sees only the one
	// verified query.
	if f.root.Stats.UDPQueries != 1 {
		t.Errorf("root ANS saw %d queries under spoofed flood, want 1", f.root.Stats.UDPQueries)
	}
	// RL1 must have suppressed most cookie grants.
	if f.guard.Stats().RL1Dropped == 0 {
		t.Error("RL1 never engaged during flood")
	}
	if f.guard.Stats().NewcomerGrants > floodPkts/2 {
		t.Errorf("grants = %d of %d flood packets; reflector protection too weak",
			f.guard.Stats().NewcomerGrants, floodPkts)
	}
}

func TestGuardDropsForgedCookieLabels(t *testing.T) {
	f := newRootFixture(t, nil)
	attacker := f.net.AddHost("attacker", mustAddr("203.0.113.66"))
	f.run(t, func() {
		// Forged cookie queries with wrong hex values.
		for i := 0; i < 100; i++ {
			name := dnswire.MustName(string(rune('a'+i%26)) + "r0000000" + string(rune('a'+i%16)) + "com")
			_ = name
			q, _ := dnswire.NewQuery(uint16(i), dnswire.MustName("pr00000000com"), dnswire.TypeA).PackUDP(512)
			src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{172, 16, 0, byte(i)}), 1234)
			_ = attacker.SendRaw(src, mustAP("198.41.0.4:53"), q)
		}
		f.sched.Sleep(time.Second)
	})
	if f.guard.Stats().CookieInvalid != 100 {
		t.Errorf("invalid = %d, want 100", f.guard.Stats().CookieInvalid)
	}
	if f.root.Stats.UDPQueries != 0 {
		t.Errorf("ANS saw %d forged queries", f.root.Stats.UDPQueries)
	}
}

func TestGuardKeyRotation(t *testing.T) {
	f := newRootFixture(t, nil)
	f.run(t, func() {
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("first: %v", err)
			return
		}
		// Rotate once: cached cookies (previous generation) must survive.
		if err := f.guard.cfg.Auth.Rotate(); err != nil {
			t.Errorf("Rotate: %v", err)
			return
		}
		f.res.Cache().Flush() // force full re-resolution with...
		// Flushing would discard the cookie; instead simulate an LRS that
		// kept only the fabricated NS record by re-resolving a new name.
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("after rotation: %v", err)
		}
	})
	if f.guard.Stats().CookieInvalid != 0 {
		t.Errorf("invalid = %d after one rotation, want 0", f.guard.Stats().CookieInvalid)
	}
}

func TestGuardThresholdActivation(t *testing.T) {
	f := newRootFixture(t, func(c *RemoteConfig) { c.ActivationThreshold = 5000 })
	f.run(t, func() {
		// Low rate: passthrough, no cookies.
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("Resolve: %v", err)
			return
		}
	})
	if f.guard.Stats().Passthrough == 0 {
		t.Error("expected passthrough below threshold")
	}
	if f.guard.Stats().NewcomerGrants != 0 {
		t.Errorf("grants = %d below threshold, want 0", f.guard.Stats().NewcomerGrants)
	}
	if f.guard.Active() {
		t.Error("guard active below threshold")
	}

	// Now flood past the threshold and sample the activation state while
	// the flood is still running (it decays back below threshold after).
	attacker := f.net.AddHost("attacker", mustAddr("203.0.113.66"))
	activeDuring := false
	f.sched.Go("flood", func() {
		q, _ := dnswire.NewQuery(1, dnswire.MustName("x.com"), dnswire.TypeA).PackUDP(512)
		for i := 0; i < 20000; i++ {
			src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{172, 16, byte(i >> 8), byte(i)}), 1234)
			_ = attacker.SendRaw(src, mustAP("198.41.0.4:53"), q)
			f.sched.Sleep(50 * time.Microsecond) // 20K/s
			if i == 19000 {
				activeDuring = f.guard.Active()
			}
		}
	})
	f.sched.Run(60 * time.Second)
	if !activeDuring {
		t.Error("guard not active during above-threshold flood")
	}
	if f.guard.Stats().NewcomerGrants == 0 && f.guard.Stats().RL1Dropped == 0 {
		t.Error("spoof detection never engaged")
	}
}

func TestGuardApexQueryRedirectsToTCP(t *testing.T) {
	f := newRootFixture(t, nil)
	f.run(t, func() {
		conn, err := f.lrs.ListenUDP(netip.AddrPort{})
		if err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		defer conn.Close()
		// Query the root apex itself (no child label to fabricate).
		q, _ := dnswire.NewQuery(5, dnswire.Root, dnswire.TypeNS).PackUDP(512)
		_ = conn.WriteTo(q, mustAP("198.41.0.4:53"))
		payload, _, err := netapitest.Recv(conn, time.Second)
		if err != nil {
			t.Errorf("no response: %v", err)
			return
		}
		resp, err := dnswire.Unpack(payload)
		if err != nil {
			t.Errorf("unpack: %v", err)
			return
		}
		if !resp.Flags.TC {
			t.Errorf("apex query response lacks TC; flags=%+v", resp.Flags)
		}
	})
}

func TestGuardRefusesOutOfZone(t *testing.T) {
	// Guard a leaf zone and ask it for an unrelated name.
	f := newLeafFixture(t, nil)
	f.run(t, func() {
		conn, err := f.lrs.ListenUDP(netip.AddrPort{})
		if err != nil {
			return
		}
		defer conn.Close()
		q, _ := dnswire.NewQuery(5, dnswire.MustName("bar.org"), dnswire.TypeA).PackUDP(512)
		_ = conn.WriteTo(q, mustAP("192.0.2.1:53"))
		payload, _, err := netapitest.Recv(conn, time.Second)
		if err != nil {
			t.Errorf("no response: %v", err)
			return
		}
		resp, _ := dnswire.Unpack(payload)
		if resp.Flags.RCode != dnswire.RCodeRefused {
			t.Errorf("rcode = %v, want REFUSED", resp.Flags.RCode)
		}
	})
}

// TestGuardRejectsSpoofedUpstreamAnswers lives in kaminsky_pack_test.go
// (package guard_test): the hand-rolled ID-sweep attacker it used to carry
// was promoted into the workload package's "kaminsky-sweep" campaign pack,
// and the test is now a thin wrapper driving that pack against the same
// root fixture.
