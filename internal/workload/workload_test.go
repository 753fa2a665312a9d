package workload

import (
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/guard"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netsim"
	"dnsguard/internal/realnet"
	"dnsguard/internal/vclock"
)

func mustAddr(s string) netip.Addr   { return netip.MustParseAddr(s) }
func mustAP(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }

// mustOpen is cookie.Open for options with no failure path in a test: a
// fixed key, a captured state.
func mustOpen(opts cookie.Options) *cookie.Authenticator {
	a, err := cookie.Open(opts)
	if err != nil {
		panic(err)
	}
	return a
}

type world struct {
	sched *vclock.Scheduler
	net   *netsim.Network
}

func newWorld() *world {
	sched := vclock.New(99)
	return &world{sched: sched, net: netsim.New(sched, 200*time.Microsecond)}
}

func TestANSSimAnswerMode(t *testing.T) {
	w := newWorld()
	h := w.net.AddHost("ans", mustAddr("10.0.0.2"))
	sim, err := NewANSSim(ANSSimConfig{Env: h, Addr: mustAP("10.0.0.2:53")})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	client := w.net.AddHost("c", mustAddr("10.0.0.1"))
	c, err := NewClient(ClientConfig{Env: client, Kind: KindPlain, Target: mustAP("10.0.0.2:53")})
	if err != nil {
		t.Fatal(err)
	}
	var lat time.Duration
	w.sched.Go("test", func() {
		var err error
		lat, err = c.RunOnce()
		if err != nil {
			t.Errorf("RunOnce: %v", err)
		}
	})
	w.sched.Run(0)
	if c.Stats.Completed != 1 {
		t.Fatalf("completed = %d", c.Stats.Completed)
	}
	if lat != 400*time.Microsecond {
		t.Fatalf("latency = %v, want 1 RTT (400µs)", lat)
	}
}

func TestANSSimReferralMode(t *testing.T) {
	w := newWorld()
	h := w.net.AddHost("ans", mustAddr("10.0.0.2"))
	sim, err := NewANSSim(ANSSimConfig{Env: h, Addr: mustAP("10.0.0.2:53"), Mode: ModeReferral})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	client := w.net.AddHost("c", mustAddr("10.0.0.1"))
	w.sched.Go("test", func() {
		conn, _ := client.ListenUDP(netip.AddrPort{})
		defer conn.Close()
		q, _ := dnswire.NewQuery(3, dnswire.MustName("foo.com"), dnswire.TypeA).PackUDP(512)
		_ = conn.WriteTo(q, mustAP("10.0.0.2:53"))
		payload, _, err := conn.ReadFrom(time.Second)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		resp, _ := dnswire.Unpack(payload)
		if len(resp.Authority) != 1 || resp.Authority[0].Type != dnswire.TypeNS {
			t.Errorf("authority = %v", resp.Authority)
		}
		if len(resp.Additional) != 1 || resp.Additional[0].Type != dnswire.TypeA {
			t.Errorf("additional = %v", resp.Additional)
		}
	})
	w.sched.Run(0)
}

// guardedWorld builds ANSSim behind a remote guard for client-scheme tests.
func guardedWorld(t *testing.T, fallback guard.Scheme, mode ANSSimMode) (*world, *guard.Remote) {
	t.Helper()
	w := newWorld()
	ansHost := w.net.AddHost("ans", mustAddr("10.99.0.2"))
	sim, err := NewANSSim(ANSSimConfig{Env: ansHost, Addr: mustAP("10.99.0.2:53"), Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	return w, guardANS(t, w, ansHost, fallback)
}

// guardANS puts a remote guard for foo.com at 192.0.2.1 in front of the ANS
// on ansHost, at 10.99.0.2:53.
func guardANS(t *testing.T, w *world, ansHost *netsim.Host, fallback guard.Scheme) *guard.Remote {
	t.Helper()
	guardHost := w.net.AddHost("guard", mustAddr("10.99.0.1"))
	guardHost.ClaimPrefix(netip.MustParsePrefix("192.0.2.0/24"))
	w.net.SetLatency(guardHost, ansHost, 50*time.Microsecond)
	tap, err := guardHost.OpenTap()
	if err != nil {
		t.Fatal(err)
	}
	var key [cookie.KeySize]byte
	g, err := guard.NewRemote(guard.RemoteConfig{
		Env:        guardHost,
		IOs:        []guard.PacketIO{tap},
		PublicAddr: mustAP("192.0.2.1:53"),
		ANSAddr:    mustAP("10.99.0.2:53"),
		Zone:       dnswire.MustName("foo.com"),
		Subnet:     netip.MustParsePrefix("192.0.2.0/24"),
		Fallback:   fallback,
		Auth:       mustOpen(cookie.Options{Key: &key}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestClientNSNameAgainstGuard(t *testing.T) {
	w, g := guardedWorld(t, guard.SchemeDNS, ModeReferral)
	ch := w.net.AddHost("lrs", mustAddr("10.0.0.53"))
	c, err := NewClient(ClientConfig{
		Env: ch, Kind: KindNSName, Mode: ModeHit,
		Target: mustAP("192.0.2.1:53"), QName: dnswire.MustName("www.foo.com"),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.sched.Go("test", func() {
		for i := 0; i < 5; i++ {
			if _, err := c.RunOnce(); err != nil {
				t.Errorf("request %d: %v (guard %+v)", i, err, g.Stats)
				return
			}
		}
	})
	w.sched.Run(0)
	if c.Stats.Completed != 5 {
		t.Fatalf("completed = %d, want 5", c.Stats.Completed)
	}
	// Hit mode: one grant, then cookie queries only.
	if g.Stats.NewcomerGrants != 1 {
		t.Fatalf("grants = %d, want 1", g.Stats.NewcomerGrants)
	}
	if g.Stats.CookieValid != 5 {
		t.Fatalf("valid = %d, want 5", g.Stats.CookieValid)
	}
}

func TestClientFabIPAgainstGuard(t *testing.T) {
	w, g := guardedWorld(t, guard.SchemeDNS, ModeAnswer)
	ch := w.net.AddHost("lrs", mustAddr("10.0.0.53"))
	c, err := NewClient(ClientConfig{
		Env: ch, Kind: KindFabIP, Mode: ModeHit,
		Target: mustAP("192.0.2.1:53"), QName: dnswire.MustName("www.foo.com"),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.sched.Go("test", func() {
		for i := 0; i < 5; i++ {
			if _, err := c.RunOnce(); err != nil {
				t.Errorf("request %d: %v (guard %+v)", i, err, g.Stats)
				return
			}
		}
	})
	w.sched.Run(0)
	if c.Stats.Completed != 5 {
		t.Fatalf("completed = %d (stats %+v)", c.Stats.Completed, c.Stats)
	}
	if g.Stats.NewcomerGrants != 1 {
		t.Fatalf("grants = %d, want 1", g.Stats.NewcomerGrants)
	}
}

func TestClientModifiedAgainstGuard(t *testing.T) {
	w, g := guardedWorld(t, guard.SchemeDNS, ModeAnswer)
	ch := w.net.AddHost("lrs", mustAddr("10.0.0.53"))
	c, err := NewClient(ClientConfig{
		Env: ch, Kind: KindModified, Mode: ModeHit,
		Target: mustAP("192.0.2.1:53"), QName: dnswire.MustName("www.foo.com"),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.sched.Go("test", func() {
		for i := 0; i < 5; i++ {
			if _, err := c.RunOnce(); err != nil {
				t.Errorf("request %d: %v (guard %+v)", i, err, g.Stats)
				return
			}
		}
	})
	w.sched.Run(0)
	if g.Stats.NewcomerGrants != 1 || g.Stats.CookieValid != 5 {
		t.Fatalf("guard stats = %+v", g.Stats)
	}
}

// TestClientModifiedOneCookiePerANS is Table I's storage row for the
// modified scheme, on the requester that runs its LRS half: one exchange's
// cookie admits stamped queries for two names from the same source, and the
// ANS behind the guard sees both queries without the cookie record.
func TestClientModifiedOneCookiePerANS(t *testing.T) {
	w := newWorld()
	ansHost := w.net.AddHost("ans", mustAddr("10.99.0.2"))
	conn, err := ansHost.ListenUDP(mustAP("10.99.0.2:53"))
	if err != nil {
		t.Fatal(err)
	}
	var seen []*dnswire.Message
	w.sched.Go("ans", func() {
		for {
			payload, src, err := conn.ReadFrom(netapi.NoTimeout)
			if err != nil {
				return
			}
			q, err := dnswire.Unpack(payload)
			if err != nil {
				t.Errorf("the ANS got % x: %v", payload, err)
				continue
			}
			seen = append(seen, q)
			resp := q.Response()
			resp.Answers = []dnswire.RR{dnswire.NewRR(q.Question().Name, 0, &dnswire.AData{Addr: anssimAnswer})}
			wire, err := resp.Pack()
			if err != nil {
				t.Error(err)
				return
			}
			_ = conn.WriteTo(wire, src)
		}
	})
	g := guardANS(t, w, ansHost, guard.SchemeDNS)
	c, err := NewClient(ClientConfig{
		Env: w.net.AddHost("lrs", mustAddr("10.0.0.53")), Kind: KindModified, Mode: ModeHit,
		Target: mustAP("192.0.2.1:53"), QName: dnswire.MustName("www.foo.com"),
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []dnswire.Name{dnswire.MustName("www.foo.com"), dnswire.MustName("mail.foo.com")}
	w.sched.Go("test", func() {
		for _, name := range names {
			c.cfg.QName = name // the LRS asks the same ANS for another name
			if _, err := c.RunOnce(); err != nil {
				t.Errorf("%v: %v (guard %+v)", name, err, g.Stats)
				return
			}
		}
	})
	w.sched.Run(0)
	if g.Stats.NewcomerGrants != 1 || g.Stats.CookieValid != 2 {
		t.Errorf("two names from one source: %d grants and %d cookies valid, want 1 and 2", g.Stats.NewcomerGrants, g.Stats.CookieValid)
	}
	if len(seen) != len(names) {
		t.Fatalf("the ANS saw %d queries, want %d", len(seen), len(names))
	}
	for i, q := range seen {
		if q.Question().Name != names[i] {
			t.Errorf("the ANS's query %d asks %v, want %v", i, q.Question().Name, names[i])
		}
		if _, _, _, has := guard.FindCookie(q); has {
			t.Errorf("the ANS's query %d carries the cookie record: %v", i, q.Additional)
		}
	}
}

// TestClientModifiedLegacyANS is Table I's deployment row for the modified
// scheme: a requester that runs its LRS half still resolves through an ANS
// no guard protects. The ANS answers the exchange query itself, with no
// cookie, and that answer completes the request.
func TestClientModifiedLegacyANS(t *testing.T) {
	w := newWorld()
	h := w.net.AddHost("ans", mustAddr("10.0.0.2"))
	sim, err := NewANSSim(ANSSimConfig{Env: h, Addr: mustAP("10.0.0.2:53")})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{
		Env: w.net.AddHost("lrs", mustAddr("10.0.0.53")), Kind: KindModified, Mode: ModeHit,
		Target: mustAP("10.0.0.2:53"), QName: dnswire.MustName("www.foo.com"),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.sched.Go("test", func() {
		if _, err := c.RunOnce(); err != nil {
			t.Errorf("RunOnce against an unguarded ANS: %v", err)
		}
	})
	w.sched.Run(0)
	if c.Stats.Completed != 1 || sim.Served != 1 || c.hasCookie {
		t.Errorf("completed %d, the ANS served %d, cookie held %v: want the exchange query answered directly, once, and no cookie",
			c.Stats.Completed, sim.Served, c.hasCookie)
	}
}

func TestClientMissModeRedoesHandshake(t *testing.T) {
	w, g := guardedWorld(t, guard.SchemeDNS, ModeAnswer)
	ch := w.net.AddHost("lrs", mustAddr("10.0.0.53"))
	c, err := NewClient(ClientConfig{
		Env: ch, Kind: KindModified, Mode: ModeMiss,
		Target: mustAP("192.0.2.1:53"), QName: dnswire.MustName("www.foo.com"),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.sched.Go("test", func() {
		for i := 0; i < 5; i++ {
			c.Forget() // what the run loop does in miss mode
			if _, err := c.RunOnce(); err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
		}
	})
	w.sched.Run(0)
	if c.Stats.Completed != 5 {
		t.Fatalf("completed = %d", c.Stats.Completed)
	}
	if g.Stats.NewcomerGrants != 5 {
		t.Fatalf("grants = %d, want 5 (miss mode re-exchanges)", g.Stats.NewcomerGrants)
	}
}

func TestAttackerRateAndSpoofDiversity(t *testing.T) {
	w := newWorld()
	atk := w.net.AddHost("attacker", mustAddr("203.0.113.66"))
	victim := w.net.AddHost("victim", mustAddr("10.0.0.2"))
	victim.SetQueueCap(1 << 20)
	received := map[netip.Addr]int{}
	w.sched.Go("victim", func() {
		conn, _ := victim.ListenUDP(mustAP("10.0.0.2:53"))
		for {
			_, src, err := conn.ReadFrom(200 * time.Millisecond)
			if err != nil {
				return
			}
			received[src.Addr()]++
		}
	})
	a, err := NewAttacker(AttackerConfig{
		Host: atk, Target: mustAP("10.0.0.2:53"),
		Rate: 50000, Duration: 200 * time.Millisecond, SpoofPool: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	w.sched.Run(0)
	// 50K/s for 0.2s = 10000 packets.
	if a.Sent < 9900 || a.Sent > 10100 {
		t.Fatalf("sent = %d, want ~10000", a.Sent)
	}
	if len(received) != 1000 {
		t.Fatalf("distinct sources = %d, want 1000", len(received))
	}
}

// TestClientTCPTakesEveryFrame: the LRS simulator's TCP request, answered on
// loopback with a frame of another ID and then its own in one write, takes
// its answer from what it already holds instead of waiting for a read that
// never comes.
func TestClientTCPTakesEveryFrame(t *testing.T) {
	env := realnet.New()
	ln, err := env.ListenTCP(mustAP("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept(5 * time.Second)
		if err != nil {
			return
		}
		defer conn.Close()
		var sc dnswire.FrameScanner
		buf := make([]byte, 512)
		for {
			n, err := conn.Read(buf, 5*time.Second)
			if err != nil {
				return
			}
			sc.Add(buf[:n])
			if q, ok, _ := sc.Next(); ok {
				q[2] |= 0x80
				wrong := append([]byte(nil), q...)
				wrong[1] ^= 1
				out, _ := dnswire.AppendTCPFrame(nil, wrong)
				out, _ = dnswire.AppendTCPFrame(out, q)
				conn.Write(out)
				conn.Read(buf, 5*time.Second) // hold the connection until the client closes it
				return
			}
		}
	}()
	const wait = 2 * time.Second
	c, err := NewClient(ClientConfig{Env: env, Kind: KindTCP, DirectTCP: true, Target: ln.Addr(), Wait: wait})
	if err != nil {
		t.Fatal(err)
	}
	if took, err := c.RunOnce(); err != nil || took > wait/2 {
		t.Fatalf("RunOnce = (%v, %v); want the second frame well before the %v wait", took, err, wait)
	}
}
