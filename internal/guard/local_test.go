package guard

import (
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netsim"
	"dnsguard/internal/resolver"
	"dnsguard/internal/vclock"
	"dnsguard/internal/zone"
)

// modifiedFixture wires the full Figure 3 deployment: LRS behind a local
// guard (its gateway), remote guard in front of the ANS, modified-DNS
// cookies on the wire between them.
type modifiedFixture struct {
	sched  *vclock.Scheduler
	net    *netsim.Network
	remote *Remote
	local  *Local
	fooNS  *ans.Server
	lrs    *netsim.Host
	res    *resolver.Resolver
}

func newModifiedFixture(t *testing.T, guarded bool) *modifiedFixture {
	t.Helper()
	sched := vclock.New(44)
	network := netsim.New(sched, 5*time.Millisecond)
	f := &modifiedFixture{sched: sched, net: network}

	ansHost := network.AddHost("foo-ans", mustAddr("10.99.0.2"))
	var public netip.AddrPort
	if guarded {
		public = mustAP("192.0.2.1:53")
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
		f.fooNS = srv

		guardHost := network.AddHost("remote-guard", mustAddr("10.99.0.1"))
		guardHost.ClaimAddr(mustAddr("192.0.2.1"))
		network.SetLatency(guardHost, ansHost, 100*time.Microsecond)
		tap, err := guardHost.OpenTap()
		if err != nil {
			t.Fatal(err)
		}
		g, err := NewRemote(RemoteConfig{
			Env:        guardHost,
			IOs:        []PacketIO{tap},
			PublicAddr: public,
			ANSAddr:    mustAP("10.99.0.2:53"),
			Zone:       dnswire.MustName("foo.com"),
			Fallback:   SchemeDNS,
			Auth:       testAuth(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Start(); err != nil {
			t.Fatal(err)
		}
		f.remote = g
	} else {
		// Unguarded legacy ANS directly on the public address.
		legacyHost := network.AddHost("foo-ans-public", mustAddr("192.0.2.1"))
		public = mustAP("192.0.2.1:53")
		srv, err := ans.New(ans.Config{
			Env: legacyHost, Addr: public,
			Zone: zone.MustParse(fooZoneText, dnswire.Root),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		f.fooNS = srv
	}

	// LRS behind its local guard: the guard is the LRS's gateway for
	// outbound traffic and claims the LRS's address for inbound.
	f.lrs = network.AddHost("lrs", mustAddr("10.0.0.53"))
	lgHost := network.AddHost("local-guard", mustAddr("10.0.0.254"))
	network.SetLatency(f.lrs, lgHost, 50*time.Microsecond)
	f.lrs.SetGateway(lgHost)
	lgHost.ClaimAddr(f.lrs.Addr())
	lgTap, err := lgHost.OpenTap()
	if err != nil {
		t.Fatal(err)
	}
	lg, err := NewLocal(LocalConfig{
		Env:        lgHost,
		IO:         lgTap,
		ClientAddr: f.lrs.Addr(),
		Deliver: func(src, dst netip.AddrPort, payload []byte) error {
			return lgHost.InjectTo(f.lrs, src, dst, payload)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Start(); err != nil {
		t.Fatal(err)
	}
	f.local = lg

	res, err := resolver.New(resolver.Config{
		Env:       f.lrs,
		RootHints: []netip.AddrPort{public},
		Timeout:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.res = res
	return f
}

func (f *modifiedFixture) run(t *testing.T, fn func()) {
	t.Helper()
	f.sched.Go("test", fn)
	f.sched.Run(30 * time.Second)
}

func TestModifiedSchemeEndToEnd(t *testing.T) {
	f := newModifiedFixture(t, true)
	f.run(t, func() {
		res, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
		if err != nil {
			t.Errorf("Resolve: %v (remote %+v local %+v)", err, f.remote.Stats, f.local.Stats)
			return
		}
		if len(res.Answers) != 1 || res.Answers[0].Data.(*dnswire.AData).Addr != mustAddr("198.51.100.10") {
			t.Errorf("answers = %v", res.Answers)
		}
	})
	if f.local.Stats.Exchanges != 1 || f.local.Stats.CookiesLearned != 1 {
		t.Errorf("local stats = %+v, want one exchange", f.local.Stats)
	}
	if f.local.Stats.Stamped != 1 {
		t.Errorf("stamped = %d, want 1", f.local.Stats.Stamped)
	}
	if f.remote.Stats.CookieValid != 1 || f.remote.Stats.NewcomerGrants != 1 {
		t.Errorf("remote stats = %+v", f.remote.Stats)
	}
	// The ANS must never see the cookie extension (message 5 strips it).
	if f.fooNS.Stats.Malformed != 0 {
		t.Errorf("ANS malformed = %d", f.fooNS.Stats.Malformed)
	}
	if f.fooNS.Stats.UDPQueries != 1 {
		t.Errorf("ANS queries = %d, want 1", f.fooNS.Stats.UDPQueries)
	}
}

func TestModifiedSchemeSecondQueryUsesCachedCookie(t *testing.T) {
	f := newModifiedFixture(t, true)
	f.run(t, func() {
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("first: %v", err)
			return
		}
		if _, err := f.res.Resolve(dnswire.MustName("mail.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("second: %v", err)
			return
		}
	})
	// One cookie per ANS: no second exchange (Table I's storage property).
	if f.local.Stats.Exchanges != 1 {
		t.Errorf("exchanges = %d, want 1", f.local.Stats.Exchanges)
	}
	if f.local.Stats.Stamped != 2 {
		t.Errorf("stamped = %d, want 2", f.local.Stats.Stamped)
	}
	if f.remote.Stats.NewcomerGrants != 1 {
		t.Errorf("grants = %d, want 1", f.remote.Stats.NewcomerGrants)
	}
}

func TestModifiedSchemeCacheHitLatencyOneRTT(t *testing.T) {
	f := newModifiedFixture(t, true)
	var lat time.Duration
	f.run(t, func() {
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("first: %v", err)
			return
		}
		start := f.sched.Now()
		if _, err := f.res.Resolve(dnswire.MustName("mail.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("second: %v", err)
			return
		}
		lat = f.sched.Now() - start
	})
	// Paper Table II: 10.8ms at RTT 10.9 — one RTT, the best of all
	// schemes. Ours: 10ms RTT + 0.2ms LRS-gateway + 0.2ms guard-ANS hops.
	if lat < 10*time.Millisecond || lat > 11*time.Millisecond {
		t.Fatalf("cache-hit latency = %v, want ~10.4ms (1 RTT)", lat)
	}
}

func TestModifiedSchemeBackwardCompatibleWithLegacyANS(t *testing.T) {
	f := newModifiedFixture(t, false) // no remote guard
	f.run(t, func() {
		res, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
		if err != nil {
			t.Errorf("Resolve via legacy ANS: %v (local %+v)", err, f.local.Stats)
			return
		}
		if len(res.Answers) != 1 {
			t.Errorf("answers = %v", res.Answers)
		}
	})
	if f.local.Stats.LegacyServers != 1 {
		t.Errorf("legacy detections = %d, want 1", f.local.Stats.LegacyServers)
	}
	if f.local.Stats.CookiesLearned != 0 {
		t.Errorf("cookies learned = %d from a legacy server", f.local.Stats.CookiesLearned)
	}
}

func TestModifiedSchemeSpoofedCookiesDropped(t *testing.T) {
	f := newModifiedFixture(t, true)
	attacker := f.net.AddHost("attacker", mustAddr("203.0.113.66"))
	f.run(t, func() {
		// Attack with forged cookies from spoofed sources.
		for i := 0; i < 200; i++ {
			q := dnswire.NewQuery(uint16(i), dnswire.MustName("www.foo.com"), dnswire.TypeA)
			var fake [16]byte
			fake[0] = byte(i)
			fake[15] = 0xFF
			AttachCookie(q, fake, 0)
			wire, _ := q.PackUDP(512)
			src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{172, 16, 0, byte(i)}), 1234)
			_ = attacker.SendRaw(src, mustAP("192.0.2.1:53"), wire)
		}
		f.sched.Sleep(time.Second)
		// Legitimate traffic still flows.
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("legit resolve under forged-cookie attack: %v", err)
		}
	})
	if f.remote.Stats.CookieInvalid != 200 {
		t.Errorf("invalid = %d, want 200", f.remote.Stats.CookieInvalid)
	}
	if f.fooNS.Stats.UDPQueries != 1 {
		t.Errorf("ANS queries = %d, want 1 (forged cookies filtered)", f.fooNS.Stats.UDPQueries)
	}
}
