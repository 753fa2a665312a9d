package tcpproxy

import (
	"math"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/guard"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netapi/netapitest"
	"dnsguard/internal/netsim"
	"dnsguard/internal/resolver"
	"dnsguard/internal/tcpsim"
	"dnsguard/internal/vclock"
	"dnsguard/internal/zone"
)

const fooZoneText = `
$ORIGIN foo.com.
@ 3600 IN SOA ns1 admin 1 7200 600 360000 60
@ 3600 IN NS ns1
ns1 3600 IN A 192.0.2.1
www 300 IN A 198.51.100.10
`

func mustAddr(s string) netip.Addr   { return netip.MustParseAddr(s) }
func mustAP(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }

// fixture: guard in TCP-redirect mode + TCP proxy in front of foo.com's ANS.
type fixture struct {
	sched     *vclock.Scheduler
	net       *netsim.Network
	proxy     *Proxy
	g         *guard.Remote
	fooNS     *ans.Server
	lrs       *netsim.Host
	guardHost *netsim.Host
	res       *resolver.Resolver
	gStack    *tcpsim.Stack
}

func newFixture(t *testing.T, mutate func(*Config)) *fixture {
	t.Helper()
	sched := vclock.New(55)
	network := netsim.New(sched, 5*time.Millisecond)
	f := &fixture{sched: sched, net: network}

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
	f.guardHost = guardHost
	guardHost.ClaimAddr(mustAddr("192.0.2.1"))
	network.SetLatency(guardHost, ansHost, 100*time.Microsecond)
	f.gStack = tcpsim.Install(guardHost, tcpsim.Config{SYNCookies: true})

	tap, err := guardHost.OpenTap()
	if err != nil {
		t.Fatal(err)
	}
	g, err := guard.NewRemote(guard.RemoteConfig{
		Env:        guardHost,
		IOs:        []guard.PacketIO{tap},
		PublicAddr: mustAP("192.0.2.1:53"),
		ANSAddr:    mustAP("10.99.0.2:53"),
		Zone:       dnswire.MustName("foo.com"),
		Fallback:   guard.SchemeTCP,
		Auth:       newAuth(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	f.g = g

	cfg := Config{
		Env:     guardHost,
		Listen:  mustAP("192.0.2.1:53"),
		ANSAddr: mustAP("10.99.0.2:53"),
		RTT:     10 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	f.proxy = p

	f.lrs = network.AddHost("lrs", mustAddr("10.0.0.53"))
	tcpsim.Install(f.lrs, tcpsim.Config{})
	res, err := resolver.New(resolver.Config{
		Env:       f.lrs,
		RootHints: []netip.AddrPort{mustAP("192.0.2.1:53")},
		Timeout:   time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.res = res
	return f
}

func newAuth() *cookie.Authenticator {
	var key [cookie.KeySize]byte
	for i := range key {
		key[i] = byte(i)
	}
	a, err := cookie.Open(cookie.Options{Key: &key})
	if err != nil {
		panic(err) // a caller-supplied key has no failure path
	}
	return a
}

func (f *fixture) run(t *testing.T, fn func()) {
	t.Helper()
	f.sched.Go("test", fn)
	f.sched.Run(15 * time.Minute)
}

func TestTCPSchemeEndToEnd(t *testing.T) {
	f := newFixture(t, nil)
	var lat time.Duration
	f.run(t, func() {
		start := f.sched.Now()
		res, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
		lat = f.sched.Now() - start
		if err != nil {
			t.Errorf("Resolve: %v (guard %+v proxy %+v)", err, f.g.Stats(), f.proxy.Stats)
			return
		}
		if len(res.Answers) != 1 || res.Answers[0].Data.(*dnswire.AData).Addr != mustAddr("198.51.100.10") {
			t.Errorf("answers = %v", res.Answers)
		}
	})
	// Paper Table II: TCP scheme is always ~3 RTT (TC redirect + handshake
	// + query/response): 34.5ms at RTT 10.9. Ours: 30ms + LAN hops.
	if lat < 29*time.Millisecond || lat > 33*time.Millisecond {
		t.Errorf("latency = %v, want ~30ms (3 RTT)", lat)
	}
	if f.g.Stats().TCRedirects != 1 {
		t.Errorf("redirects = %d, want 1", f.g.Stats().TCRedirects)
	}
	if f.proxy.Stats.Requests != 1 || f.proxy.Stats.Responses != 1 {
		t.Errorf("proxy stats = %+v", f.proxy.Stats)
	}
	if f.fooNS.Stats.UDPQueries != 1 {
		t.Errorf("ANS queries = %d, want 1 (over UDP, not TCP)", f.fooNS.Stats.UDPQueries)
	}
	if f.fooNS.Stats.TCPQueries != 0 {
		t.Errorf("ANS saw %d TCP queries; the proxy must offload TCP", f.fooNS.Stats.TCPQueries)
	}
}

func TestTCPSchemeSecondQueryStillThreeRTT(t *testing.T) {
	// TCP-based protection has no cacheable credential: every request is
	// redirected (the "Best Latency 3 RTT" row of Table I).
	f := newFixture(t, nil)
	var lat time.Duration
	f.run(t, func() {
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("first: %v", err)
			return
		}
		f.sched.Sleep(400 * time.Second) // let the answer TTL (300s) lapse
		start := f.sched.Now()
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("second: %v", err)
			return
		}
		lat = f.sched.Now() - start
	})
	if lat < 29*time.Millisecond || lat > 33*time.Millisecond {
		t.Errorf("second-query latency = %v, want ~30ms (3 RTT, no caching win)", lat)
	}
	if f.g.Stats().TCRedirects != 2 {
		t.Errorf("redirects = %d, want 2", f.g.Stats().TCRedirects)
	}
}

func TestProxyDurationCap(t *testing.T) {
	f := newFixture(t, nil) // cap = 5×10ms = 50ms
	f.run(t, func() {
		conn, err := f.lrs.DialTCP(mustAP("192.0.2.1:53"))
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer conn.Close()
		// Send nothing; the proxy must kill the idle connection at ~50ms.
		start := f.sched.Now()
		buf := make([]byte, 16)
		_, err = conn.Read(buf, time.Second)
		elapsed := f.sched.Now() - start
		if err == nil {
			t.Error("read succeeded on a capped connection")
			return
		}
		if elapsed > 100*time.Millisecond {
			t.Errorf("connection lived %v, cap is 50ms", elapsed)
		}
	})
	if f.proxy.Stats.DurationKills != 1 {
		t.Errorf("duration kills = %d, want 1", f.proxy.Stats.DurationKills)
	}
}

func TestProxyConnRateLimiting(t *testing.T) {
	f := newFixture(t, func(c *Config) {
		c.ConnRate = 10
		c.ConnBurst = 5
	})
	served, refused := 0, 0
	f.run(t, func() {
		q, _ := dnswire.NewQuery(1, dnswire.MustName("www.foo.com"), dnswire.TypeA).Pack()
		frame, _ := dnswire.AppendTCPFrame(nil, q)
		for i := 0; i < 50; i++ {
			conn, err := f.lrs.DialTCP(mustAP("192.0.2.1:53"))
			if err != nil {
				refused++
				continue
			}
			if _, err := conn.Write(frame); err != nil {
				refused++
				_ = conn.Close()
				continue
			}
			buf := make([]byte, 2048)
			if _, err := conn.Read(buf, 100*time.Millisecond); err != nil {
				refused++
			} else {
				served++
			}
			_ = conn.Close()
		}
	})
	if served > 25 {
		t.Errorf("served = %d of 50 rapid connections, want most rejected", served)
	}
	if f.proxy.Stats.RateRejected == 0 {
		t.Error("rate limiter never rejected")
	}
}

func TestProxyConcurrentClients(t *testing.T) {
	f := newFixture(t, func(c *Config) {
		c.ConnRate = 1e6
		c.ConnBurst = 1e6
	})
	const n = 100
	done := 0
	for i := 0; i < n; i++ {
		id := uint16(i + 1)
		f.sched.Go("client", func() {
			conn, err := f.lrs.DialTCP(mustAP("192.0.2.1:53"))
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			q, _ := dnswire.NewQuery(id, dnswire.MustName("www.foo.com"), dnswire.TypeA).Pack()
			frame, _ := dnswire.AppendTCPFrame(nil, q)
			if _, err := conn.Write(frame); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			var sc dnswire.FrameScanner
			buf := make([]byte, 2048)
			for {
				rn, err := conn.Read(buf, time.Second)
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				sc.Add(buf[:rn])
				msg, ok, _ := sc.Next()
				if ok {
					resp, err := dnswire.Unpack(msg)
					if err != nil || resp.ID != id {
						t.Errorf("bad response: %v %v", resp, err)
						return
					}
					done++
					return
				}
			}
		})
	}
	f.sched.Run(time.Minute)
	if done != n {
		t.Fatalf("done = %d, want %d", done, n)
	}
	if f.proxy.Live() != 0 {
		t.Fatalf("live = %d after completion", f.proxy.Live())
	}
}

func TestProxyMaxConcurrent(t *testing.T) {
	f := newFixture(t, func(c *Config) {
		c.ConnRate = 1e6
		c.ConnBurst = 1e6
		c.MaxConcurrent = 5
		c.MaxDuration = 10 * time.Second
	})
	for i := 0; i < 20; i++ {
		f.sched.Go("holder", func() {
			conn, err := f.lrs.DialTCP(mustAP("192.0.2.1:53"))
			if err != nil {
				return
			}
			defer conn.Close()
			buf := make([]byte, 16)
			_, _ = conn.Read(buf, 5*time.Second) // hold open
		})
	}
	f.sched.Run(time.Minute)
	if f.proxy.Stats.FullRejected == 0 {
		t.Error("MaxConcurrent never enforced")
	}
	if f.proxy.Stats.Accepted > 6 {
		t.Errorf("accepted = %d with MaxConcurrent 5", f.proxy.Stats.Accepted)
	}
}

// TestClientSprayFootprint: the per-client buckets are a table of
// clientsTracked entries built at the first client — 4096 × 40 bytes and 8192
// index slots of 4, 192 KiB — so connections from 100 000 client addresses,
// each its first, allocate nothing, and a client that stays busy through the
// spray keeps its bucket, spent: only the idlest are evicted. The bound on the
// spray is a count of allocations; the heap delta beside it moves with whatever
// else the process is doing and is only logged.
//
// On a clock that moves, the spray comes at 4 000 clients a second: a
// one-shot client's bucket is back at its burst 1 ÷ ConnRate = 20 ms after its
// connection, and the next new client takes its entry, so the table writes
// about the 80 entries of the clients seen within the last 20 ms. A client
// busier than ConnRate is never back at its burst, keeps its entry and is
// held to its rate.
func TestClientSprayFootprint(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	host := netsim.New(vclock.New(1), time.Millisecond).AddHost("guard", mustAddr("10.99.0.1"))
	before := heap()
	p, err := New(Config{Env: host, Listen: mustAP("192.0.2.1:53"), ANSAddr: mustAP("10.99.0.2:53")})
	if err != nil {
		t.Fatal(err)
	}
	busy := mustAddr("10.9.9.9")
	for i := 0; i < int(p.cfg.ConnBurst); i++ {
		if !p.buckets.Allow(busy, 0) {
			t.Fatalf("connection %d of the burst refused", i)
		}
	}
	built := heap()
	const clients = 100000
	i := 0
	allocs := testing.AllocsPerRun(clients-1, func() { // one warm-up call, then clients-1
		if !p.buckets.Allow(netip.AddrFrom4([4]byte{11, byte(i >> 16), byte(i >> 8), byte(i)}), 0) {
			t.Fatalf("client %d refused its first connection", i)
		}
		if i%1000 == 0 && p.buckets.Allow(busy, 0) {
			t.Fatalf("after %d other clients the busy one has a fresh bucket", i)
		}
		i++
	})
	after := heap()
	const limit = 224 << 10
	t.Logf("proxy: %d KiB of heap; %d clients: %d KiB more", (built-before)>>10, clients, (after-built)>>10)
	if built-before > limit {
		t.Errorf("a proxy is %d KiB of heap, want <= %d KiB", (built-before)>>10, limit>>10)
	}
	if allocs != 0 {
		t.Errorf("a never-seen client address allocates %.2f times, want 0: the table grew", allocs)
	}
	runtime.KeepAlive(p)

	p, err = New(Config{Env: host, Listen: mustAP("192.0.2.1:53"), ANSAddr: mustAP("10.99.0.2:53")})
	if err != nil {
		t.Fatal(err)
	}
	const perSec = 4000
	step := time.Second / perSec
	busyAllowed := 0
	for i := 0; i < clients; i++ {
		now := time.Duration(i) * step
		if !p.buckets.Allow(netip.AddrFrom4([4]byte{11, byte(i >> 16), byte(i >> 8), byte(i)}), now) {
			t.Fatalf("client %d refused its first connection", i)
		}
		if i%10 == 0 && p.buckets.Allow(busy, now) { // 400 connections a second
			busyAllowed++
		}
	}
	written := int(reflect.ValueOf(&p.buckets).Elem().FieldByName("tab").Elem().FieldByName("used").Uint())
	bound := int(math.Ceil(perSec/p.cfg.ConnRate)) + 8
	spent := time.Duration(clients) * step
	t.Logf("%d clients at %d/s: %d entries written; the busy client allowed %d of %d", clients, perSec, written, busyAllowed, clients/10)
	if written > bound {
		t.Errorf("%d clients at %d/s wrote %d entries, want <= %d", clients, perSec, written, bound)
	}
	if most := int(p.cfg.ConnBurst + p.cfg.ConnRate*spent.Seconds()); busyAllowed > most+1 {
		t.Errorf("the busy client was allowed %d connections in %v, want <= %d: its bucket was recycled", busyAllowed, spent, most+1)
	}
}

// TestRelayTakesOnlyTheANSReply: an off-path host that learns the proxy's
// upstream port sends the request's ID and question, with an answer of its
// own, from its own address before the ANS answers. The proxy relays the
// ANS's answer (RFC 5452 §9.1).
func TestRelayTakesOnlyTheANSReply(t *testing.T) {
	sched := vclock.New(7)
	network := netsim.New(sched, time.Millisecond)
	ansHost := network.AddHost("ans", mustAddr("10.99.0.2"))
	offPath := network.AddHost("off-path", mustAddr("203.0.113.66"))
	proxyHost := network.AddHost("proxy", mustAddr("192.0.2.1"))
	client := network.AddHost("client", mustAddr("10.0.0.53"))
	tcpsim.Install(proxyHost, tcpsim.Config{})
	tcpsim.Install(client, tcpsim.Config{})
	p, err := New(Config{Env: proxyHost, Listen: mustAP("192.0.2.1:53"), ANSAddr: mustAP("10.99.0.2:53")})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	ansConn, err := ansHost.ListenUDP(mustAP("10.99.0.2:53"))
	if err != nil {
		t.Fatal(err)
	}
	forger, err := offPath.ListenUDP(mustAP("203.0.113.66:53"))
	if err != nil {
		t.Fatal(err)
	}
	answer := func(q []byte, addr string) []byte {
		m, err := dnswire.Unpack(q)
		if err != nil {
			t.Fatal(err)
		}
		r := m.Response()
		r.Answers = []dnswire.RR{dnswire.NewRR(m.Question().Name, 60, &dnswire.AData{Addr: mustAddr(addr)})}
		wire, err := r.PackUDP(dnswire.MaxUDPSize)
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	sched.Go("ans", func() {
		q, from, err := netapitest.Recv(ansConn, time.Second)
		if err != nil {
			t.Errorf("ANS: %v", err)
			return
		}
		_ = forger.WriteTo(answer(q, "6.6.6.6"), from)
		ansHost.Sleep(10 * time.Millisecond)
		_ = ansConn.WriteTo(answer(q, "198.51.100.10"), from)
	})
	var got *dnswire.Message
	sched.Go("client", func() {
		wire, _ := dnswire.NewQuery(9, dnswire.MustName("www.foo.com"), dnswire.TypeA).Pack()
		var err error
		if got, _, err = dnswire.ExchangeTCP(client, mustAP("192.0.2.1:53"), wire, 5*time.Second, nil); err != nil {
			t.Errorf("exchange: %v", err)
		}
	})
	sched.Run(time.Minute)
	if got == nil || len(got.Answers) != 1 || got.Answers[0].Data.(*dnswire.AData).Addr != mustAddr("198.51.100.10") {
		t.Errorf("relayed %v, want the ANS's 198.51.100.10", got)
	}
}

// frameConn is the client side of relay's connection: it records what relay
// writes back.
type frameConn struct {
	netapi.Conn
	wrote int
}

func (c *frameConn) Write(b []byte) (int, error) {
	c.wrote++
	return len(b), nil
}

// TestRelayVerdicts pins which frames relay forwards: a query of one
// question that the view and the record walk take. A response, a truncated
// frame and a frame of no or two questions are refused before they count as
// requests, and nothing goes up or comes back.
func TestRelayVerdicts(t *testing.T) {
	valid, err := dnswire.NewQuery(9, dnswire.MustName("www.foo.com"), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	response := append([]byte(nil), valid...)
	response[2] |= 0x80
	noQuestion := append([]byte(nil), valid[:12]...)
	noQuestion[5] = 0
	twoQuestions := append(append([]byte(nil), valid...), valid[12:]...)
	twoQuestions[5] = 2
	for _, tc := range []struct {
		name  string
		frame []byte
		relay bool
	}{
		{"valid", valid, true},
		{"QR set", response, false},
		{"truncated", valid[:len(valid)-1], false},
		{"0 questions", noQuestion, false},
		{"2 questions", twoQuestions, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := vclock.New(7)
			network := netsim.New(sched, time.Millisecond)
			ansHost := network.AddHost("ans", mustAddr("10.99.0.2"))
			srv, err := ans.New(ans.Config{Env: ansHost, Addr: mustAP("10.99.0.2:53"), Zone: zone.MustParse(fooZoneText, dnswire.Root)})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			proxyHost := network.AddHost("proxy", mustAddr("192.0.2.1"))
			tcpsim.Install(proxyHost, tcpsim.Config{})
			p, err := New(Config{Env: proxyHost, Listen: mustAP("192.0.2.1:53"), ANSAddr: mustAP("10.99.0.2:53")})
			if err != nil {
				t.Fatal(err)
			}
			conn := &frameConn{}
			var relayed bool
			sched.Go("relay", func() { relayed = p.relay(conn, tc.frame) })
			sched.Run(time.Minute)
			sched.Close()
			want := uint64(0)
			if tc.relay {
				want = 1
			}
			if relayed != tc.relay || p.Stats.Requests != want || srv.Stats.UDPQueries != want || uint64(conn.wrote) != want {
				t.Errorf("relay = %v with %d requests, %d at the ANS, %d answers back; want %v and %d of each",
					relayed, p.Stats.Requests, srv.Stats.UDPQueries, conn.wrote, tc.relay, want)
			}
		})
	}
}
