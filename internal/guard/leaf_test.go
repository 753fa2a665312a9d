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

// leafFixture: a guard protecting the foo.com leaf ANS (public 192.0.2.1,
// subnet 192.0.2.0/24 for IP cookies). Exercises the fabricated NS name +
// IP variant (§III-B.2).
type leafFixture struct {
	sched *vclock.Scheduler
	net   *netsim.Network
	guard *Remote
	fooNS *ans.Server
	lrs   *netsim.Host
	res   *resolver.Resolver
}

func newLeafFixture(t *testing.T, mutate func(*RemoteConfig)) *leafFixture {
	t.Helper()
	sched := vclock.New(33)
	network := netsim.New(sched, 5*time.Millisecond)
	f := &leafFixture{sched: sched, net: network}

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
	f.fooNS = srv

	guardHost := network.AddHost("guard", mustAddr("10.99.0.1"))
	guardHost.ClaimPrefix(netip.MustParsePrefix("192.0.2.0/24"))
	network.SetLatency(guardHost, ansHost, 100*time.Microsecond)
	tap, err := guardHost.OpenTap()
	if err != nil {
		t.Fatal(err)
	}
	cfg := RemoteConfig{
		Env:        guardHost,
		IOs:        []PacketIO{tap},
		PublicAddr: mustAP("192.0.2.1:53"),
		ANSAddr:    mustAP("10.99.0.2:53"),
		Zone:       dnswire.MustName("foo.com"),
		Subnet:     netip.MustParsePrefix("192.0.2.0/24"),
		Fallback:   SchemeDNS,
		Auth:       testAuth(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := NewRemote(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	f.guard = g

	f.lrs = network.AddHost("lrs", mustAddr("10.0.0.53"))
	res, err := resolver.New(resolver.Config{
		Env:       f.lrs,
		RootHints: []netip.AddrPort{mustAP("192.0.2.1:53")},
		Timeout:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.res = res
	return f
}

func (f *leafFixture) run(t *testing.T, fn func()) {
	t.Helper()
	f.sched.Go("test", fn)
	f.sched.Run(10 * time.Minute)
}

func TestLeafGuardNonReferralResolution(t *testing.T) {
	f := newLeafFixture(t, nil)
	var missLatency time.Duration
	f.run(t, func() {
		start := f.sched.Now()
		res, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
		missLatency = f.sched.Now() - start
		if err != nil {
			t.Errorf("Resolve: %v (guard %+v)", err, f.guard.Stats())
			return
		}
		want := mustAddr("198.51.100.10")
		found := false
		for _, rr := range res.Answers {
			if a, ok := rr.Data.(*dnswire.AData); ok && a.Addr == want {
				found = true
			}
		}
		if !found {
			t.Errorf("answers = %v, want %v", res.Answers, want)
		}
	})
	// Paper: first access is 3 RTT (messages 1-2, 3-6, 7-10). RTT = 10ms.
	if missLatency < 29*time.Millisecond || missLatency > 32*time.Millisecond {
		t.Errorf("cache-miss latency = %v, want ~30ms (3 RTT)", missLatency)
	}
	st := f.guard.Stats()
	if st.NewcomerGrants != 1 || st.CookieValid != 2 {
		t.Errorf("stats = %+v, want 1 grant + 2 cookie validations (NS label + IP)", st)
	}
	// The ANS saw messages 4 and 8: message 7 is forwarded like message 3.
	if f.fooNS.Stats.UDPQueries != 2 || st.ForwardedToANS != 2 {
		t.Errorf("ANS queries = %d, forwarded = %d, want 2 and 2", f.fooNS.Stats.UDPQueries, st.ForwardedToANS)
	}
}

func TestLeafGuardCacheHitIsOneRTT(t *testing.T) {
	f := newLeafFixture(t, nil)
	var hitLatency time.Duration
	var upstream int
	f.run(t, func() {
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("first: %v", err)
			return
		}
		// Let the final answer (TTL 300s) expire but keep the fabricated
		// NS name and IP cookie (TTL one week).
		f.sched.Sleep(400 * time.Second)
		start := f.sched.Now()
		res, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
		hitLatency = f.sched.Now() - start
		upstream = res.Upstream
		if err != nil {
			t.Errorf("second: %v", err)
		}
	})
	if upstream != 1 {
		t.Fatalf("upstream = %d, want 1 (message 7 only)", upstream)
	}
	// Paper Table II: cache hit = 1 RTT (11.3ms measured at 10.9ms RTT).
	// Ours adds the guard→ANS LAN hop (0.2ms): message 7 is always
	// forwarded.
	if hitLatency < 10*time.Millisecond || hitLatency > 11*time.Millisecond {
		t.Fatalf("cache-hit latency = %v, want ~10ms (1 RTT)", hitLatency)
	}
}

func TestLeafGuardIPCookieWrongSourceDropped(t *testing.T) {
	f := newLeafFixture(t, nil)
	attacker := f.net.AddHost("attacker", mustAddr("203.0.113.66"))
	f.run(t, func() {
		// Legitimate LRS completes a resolution, learning its cookie IP.
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("Resolve: %v", err)
			return
		}
		// The attacker sprays queries at every address in the subnet from
		// its own (spoofed, but fixed) source; at most one address can
		// match its cookie.
		q, _ := dnswire.NewQuery(9, dnswire.MustName("www.foo.com"), dnswire.TypeA).PackUDP(512)
		for y := 1; y < 255; y++ {
			dst := netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, byte(y)}), 53)
			_ = attacker.SendRaw(mustAP("198.18.0.1:1234"), dst, q)
		}
		f.sched.Sleep(time.Second)
	})
	st := f.guard.Stats()
	// 253 of the sprayed addresses are wrong (the public .1 goes down the
	// newcomer path); at most 2 can hit the attacker's own cookie address
	// (current + previous key generation) — the 1/R_y false-negative floor
	// the paper derives (§III-G). The LRS's resolution verified twice
	// (messages 3 and 7); every verified query, and no other, reached the ANS.
	if st.CookieInvalid < 251 {
		t.Errorf("invalid = %d, want >= 251 of 253 sprayed", st.CookieInvalid)
	}
	if q := f.fooNS.Stats.UDPQueries; q != st.ForwardedToANS || q != st.CookieValid || st.CookieValid < 2 || st.CookieValid-2 > 2 {
		t.Errorf("ANS queries = %d, forwarded = %d, valid = %d: want all equal, and at most 2 sprayed addresses verified",
			q, st.ForwardedToANS, st.CookieValid)
	}
}

func TestLeafGuardSecondNameFabricatesAgain(t *testing.T) {
	f := newLeafFixture(t, nil)
	f.run(t, func() {
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("www: %v", err)
			return
		}
		if _, err := f.res.Resolve(dnswire.MustName("mail.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("mail: %v", err)
			return
		}
	})
	// Each non-referral name needs its own fabricated ANS (the storage
	// inefficiency Table I documents for this variant).
	if f.guard.Stats().NewcomerGrants != 2 {
		t.Errorf("grants = %d, want 2 (one per name)", f.guard.Stats().NewcomerGrants)
	}
}

func TestLeafGuardWithoutSubnetFailsClosed(t *testing.T) {
	f := newLeafFixture(t, func(c *RemoteConfig) { c.Subnet = netip.Prefix{} })
	f.run(t, func() {
		_, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
		if err == nil {
			t.Error("resolution through subnet-less leaf guard should fail (documented limitation)")
		}
	})
}
