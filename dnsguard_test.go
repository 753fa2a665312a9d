package dnsguard

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi/netapitest"
)

const testZone = `
$ORIGIN example.com.
@    3600 IN SOA ns1 admin 1 7200 600 360000 60
@    3600 IN NS  ns1
ns1  3600 IN A   192.0.2.1
www  300  IN A   198.51.100.42
`

// TestPublicAPISimulatedEndToEnd drives the entire public surface in the
// simulator: simulation, guarded ANS, resolver, attack, stats.
func TestPublicAPISimulatedEndToEnd(t *testing.T) {
	sim := NewSimulation(123, 2*time.Millisecond)
	sched := sim.Scheduler()

	ansHost := sim.AddHost("ans", netip.MustParseAddr("10.99.0.2"))
	z, err := ParseZone(testZone, MustName(""))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewANS(ANSConfig{Env: ansHost, Addr: netip.MustParseAddrPort("10.99.0.2:53"), Zone: z})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	guardHost := sim.AddHost("guard", netip.MustParseAddr("10.99.0.1"))
	guardHost.ClaimPrefix(netip.MustParsePrefix("192.0.2.0/24"))
	tap, err := guardHost.OpenTap()
	if err != nil {
		t.Fatal(err)
	}
	auth, err := OpenKeyringWith(KeyringOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewRemoteGuard(RemoteGuardConfig{
		Env:         guardHost,
		IOs:         []PacketIO{tap},
		PublicAddr:  netip.MustParseAddrPort("192.0.2.1:53"),
		ANSAddr:     netip.MustParseAddrPort("10.99.0.2:53"),
		Zone:        MustName("example.com"),
		Subnet:      netip.MustParsePrefix("192.0.2.0/24"),
		Fallback:    SchemeDNS,
		Auth:        auth,
		Supervision: SupervisorConfig{Enabled: true, Trip: TripDrop},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}

	// The LRS asks the guard directly: the DNS scheme's fabricated NS name,
	// then the IP cookie under Subnet, admit it (§III-B).
	lrsHost := sim.AddHost("lrs", netip.MustParseAddr("10.0.0.53"))
	res, err := NewResolver(ResolverConfig{
		Env:       lrsHost,
		RootHints: []netip.AddrPort{netip.MustParseAddrPort("192.0.2.1:53")},
		Timeout:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	// An LRS front end + stub query path too.
	lrsSrv, err := NewLRS(LRSConfig{
		Env:      lrsHost,
		Addr:     netip.MustParseAddrPort("10.0.0.53:53"),
		Resolver: res,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := lrsSrv.Start(); err != nil {
		t.Fatal(err)
	}

	stub := sim.AddHost("stub", netip.MustParseAddr("10.0.0.7"))
	sched.Go("test", func() {
		r, err := res.Resolve(MustName("www.example.com"), dnswire.TypeA)
		if err != nil {
			t.Errorf("Resolve: %v", err)
			return
		}
		if len(r.Answers) == 0 {
			t.Error("no answers")
		}
		// Stub → LRS → (cache) answer.
		conn, err := stub.ListenUDP(netip.AddrPort{})
		if err != nil {
			t.Errorf("stub bind: %v", err)
			return
		}
		defer conn.Close()
		q, _ := dnswire.NewQuery(77, MustName("www.example.com"), dnswire.TypeA).PackUDP(512)
		_ = conn.WriteTo(q, netip.MustParseAddrPort("10.0.0.53:53"))
		payload, _, err := netapitest.Recv(conn, time.Second)
		if err != nil {
			t.Errorf("stub read: %v", err)
			return
		}
		resp, err := dnswire.Unpack(payload)
		if err != nil || !resp.Flags.RA || len(resp.Answers) == 0 {
			t.Errorf("stub resp = %v %v", resp, err)
		}
	})
	sched.Run(time.Minute)

	if g.Stats().NewcomerGrants == 0 || g.Stats().CookieValid == 0 || srv.Stats.UDPQueries == 0 {
		t.Fatalf("guard=%+v ans=%+v", g.Stats(), srv.Stats)
	}
}

// TestPublicAPIRealSockets runs guard + ANS + proxy + resolver over real
// loopback sockets with the TCP scheme — the full real-mode path — with the
// guard built, supervised and observed as a daemon outside this module would
// build it from the facade: metrics served and dumped, the guard's counted
// work among them.
func TestPublicAPIRealSockets(t *testing.T) {
	env := NewEnv()
	if Capabilities(env).Cooperative {
		t.Fatal("real sockets report cooperative scheduling")
	}
	z, err := ParseZone(testZone, MustName(""))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewANS(ANSConfig{Env: env, Addr: netip.MustParseAddrPort("127.0.0.1:0"), Zone: z})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	guardSock, err := env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	mac, err := MACSchemeByName("md5")
	if err != nil {
		t.Fatal(err)
	}
	auth, err := OpenKeyringWith(KeyringOptions{MAC: mac})
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewRemoteGuard(RemoteGuardConfig{
		Env:         env,
		IOs:         []PacketIO{&SocketIO{Conn: guardSock}},
		PublicAddr:  guardSock.LocalAddr(),
		ANSAddr:     srv.Addr(),
		Zone:        MustName("example.com"),
		Fallback:    SchemeTCP,
		Auth:        auth,
		Supervision: SupervisorConfig{Enabled: true, Trip: TripPass},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	proxy, err := NewTCPProxy(TCPProxyConfig{
		Env:     env,
		Listen:  guardSock.LocalAddr(),
		ANSAddr: srv.Addr(),
		RTT:     50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := proxy.Start(); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	res, err := NewResolver(ResolverConfig{
		Env:       env,
		RootHints: []netip.AddrPort{guardSock.LocalAddr()},
		Timeout:   2 * time.Second,
		Seed:      time.Now().UnixNano(),
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := res.Resolve(MustName("www.example.com"), dnswire.TypeA)
	if err != nil {
		t.Fatalf("Resolve over real sockets: %v (guard %+v proxy %+v)", err, g.Stats(), proxy.Stats)
	}
	if len(r.Answers) == 0 {
		t.Fatal("no answers")
	}
	if proxy.Stats.Requests == 0 {
		t.Fatalf("proxy relayed nothing: %+v", proxy.Stats)
	}

	// The guard counted the truncation replies it sent, and says so on
	// /metrics and in the periodic dump.
	reg := NewMetrics()
	g.MetricsInto(reg)
	want := fmt.Sprintf("guard_work_tc_replies %d", g.Stats().TCRedirects)
	if strings.HasSuffix(want, " 0") {
		t.Fatalf("the guard sent no TC reply: %+v", g.Stats())
	}
	l, err := ServeMetricsHealth("127.0.0.1:0", reg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprint(c, "GET /metrics HTTP/1.1\r\nHost: guard\r\n\r\n")
	if body, err := io.ReadAll(c); err != nil || !strings.Contains(string(body), "\n"+want+"\n") {
		t.Errorf("/metrics lacks %q (%v):\n%s", want, err, body)
	}
	pr, pw := io.Pipe()
	stop := make(chan struct{})
	defer pr.Close()
	defer close(stop)
	go DumpMetricsEvery(reg, time.Millisecond, pw, stop)
	sc, seen := bufio.NewScanner(pr), false
	for n := 0; n < 1000 && !seen && sc.Scan(); n++ {
		seen = sc.Text() == want
	}
	if !seen {
		t.Errorf("the metrics dump lacks %q", want)
	}
}

// TestDefaultCostsExposed sanity-checks the public cost-model accessor.
func TestDefaultCostsExposed(t *testing.T) {
	c := DefaultCosts()
	if c.Guard.PacketOp <= 0 || c.Server.BINDUDP <= 0 {
		t.Fatalf("costs = %+v", c)
	}
}

// TestZoneSetFacade exercises the multi-zone public constructor.
func TestZoneSetFacade(t *testing.T) {
	z, err := ParseZone(testZone, MustName(""))
	if err != nil {
		t.Fatal(err)
	}
	zs := MustZoneSet(z)
	if got := zs.Match(MustName("www.example.com")); got == nil {
		t.Fatal("Match failed")
	}
	if zs.Match(MustName("other.net")) != nil {
		t.Fatal("matched foreign name")
	}
}

// TestZoneSetErrDuplicateZone checks the error-returning constructor rejects
// a duplicate apex instead of panicking, and that MustZoneSet still panics.
func TestZoneSetErrDuplicateZone(t *testing.T) {
	z, err := ParseZone(testZone, MustName(""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewZoneSetErr(z); err != nil {
		t.Fatalf("single zone rejected: %v", err)
	}
	if _, err := NewZoneSetErr(z, z); err == nil {
		t.Fatal("duplicate zone accepted")
	}
	if _, err := NewZoneSetErr(nil); err == nil {
		t.Fatal("nil zone accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustZoneSet did not panic on duplicate zone")
		}
	}()
	MustZoneSet(z, z)
}

// TestFaultInjectionFacade drives the exported fault-injection surface: a
// lossy, jittery link plus a scheduled partition, observed via LinkStats.
func TestFaultInjectionFacade(t *testing.T) {
	sim := NewSimulation(9, 2*time.Millisecond)
	sched := sim.Scheduler()
	a := sim.AddHost("a", netip.MustParseAddr("10.0.0.1"))
	b := sim.AddHost("b", netip.MustParseAddr("10.0.0.2"))
	sim.SetLinkFaults(a, b, Faults{Loss: 0.5, Jitter: time.Millisecond})
	sim.PartitionFor(a, b, 50*time.Millisecond, 20*time.Millisecond)

	dst := netip.MustParseAddrPort("10.0.0.2:9000")
	sched.Go("sink", func() {
		conn, err := b.ListenUDP(dst)
		if err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		defer conn.Close()
		for {
			if _, _, err := netapitest.Recv(conn, 200*time.Millisecond); err != nil {
				return
			}
		}
	})
	sched.Go("source", func() {
		conn, err := a.ListenUDP(netip.AddrPort{})
		if err != nil {
			t.Errorf("bind: %v", err)
			return
		}
		defer conn.Close()
		for i := 0; i < 100; i++ {
			_ = conn.WriteTo([]byte{byte(i)}, dst)
			sched.Sleep(time.Millisecond)
		}
	})
	sched.Run(time.Minute)

	var st LinkStats = sim.LinkStats(a, b)
	if st.Sent != 100 || st.Lost == 0 || st.PartitionDrops == 0 {
		t.Fatalf("link stats = %+v", st)
	}
}
