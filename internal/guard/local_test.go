package guard

import (
	"bytes"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
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

// lendIO is a capture interface that lends every payload from one buffer, as
// SocketIO lends its slab slot: a read overwrites what the last one returned.
// Reads take in in order, and report the interface closed once it is empty;
// writes are copied into out.
type lendIO struct {
	buf [dnswire.MaxDatagram + 1]byte
	in  []Packet
	out []Packet
}

func (io *lendIO) Read(time.Duration) (Packet, error) {
	if len(io.in) == 0 {
		return Packet{}, netapi.ErrClosed
	}
	pkt := io.in[0]
	io.in = io.in[1:]
	pkt.Payload = io.buf[:copy(io.buf[:], pkt.Payload)]
	return pkt, nil
}

func (io *lendIO) WriteFromTo(src, dst netip.AddrPort, payload []byte) error {
	io.out = append(io.out, Packet{Src: src, Dst: dst, Payload: append([]byte(nil), payload...)})
	return nil
}

func (io *lendIO) Close() error { return nil }

// localHarness drives a Local through its capture loop on a virtual clock,
// with no network: the test feeds what the LRS sends and what servers answer,
// and reads what the guard wrote.
type localHarness struct {
	t     *testing.T
	sched *vclock.Scheduler
	io    *lendIO
	l     *Local
	lrs   netip.AddrPort
}

func newLocalHarness(t *testing.T) *localHarness {
	t.Helper()
	sched := vclock.New(1)
	host := netsim.New(sched, time.Millisecond).AddHost("local-guard", mustAddr("10.0.0.254"))
	h := &localHarness{t: t, sched: sched, io: &lendIO{}, lrs: mustAP("10.0.0.53:3333")}
	l, err := NewLocal(LocalConfig{
		Env:        host,
		IO:         h.io,
		ClientAddr: h.lrs.Addr(),
		Deliver:    func(src, dst netip.AddrPort, payload []byte) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	h.l = l
	return h
}

// run runs fn as a proc of the virtual clock, with the guard's timeouts.
func (h *localHarness) run(fn func()) {
	h.sched.Go("test", fn)
	h.sched.Run(time.Hour)
}

// feed hands pkts to the capture loop, which handles them in order and
// returns.
func (h *localHarness) feed(pkts ...Packet) {
	h.io.in = append(h.io.in, pkts...)
	h.l.captureLoop()
}

// query is what the LRS sends server for name.
func (h *localHarness) query(server netip.AddrPort, id uint16, name string) Packet {
	return Packet{Src: h.lrs, Dst: server, Payload: mustPack(h.t, dnswire.NewQuery(id, dnswire.MustName(name), dnswire.TypeA))}
}

// exchangeID is the ID of the last message 2 the guard sent to server. It is
// called from procs of the virtual clock, where a test must not stop.
func (h *localHarness) exchangeID(server netip.AddrPort) uint16 {
	h.t.Helper()
	for i := len(h.io.out) - 1; i >= 0; i-- {
		if p := h.io.out[i]; p.Dst == server && p.Src.Port() == exchangePort {
			return uint16(p.Payload[0])<<8 | uint16(p.Payload[1])
		}
	}
	h.t.Errorf("no cookie request was sent to %v", server)
	return 0
}

// answer is server's answer to the exchange id: message 3 carrying c, or,
// with c zero, a legacy server's answer without a cookie record.
func (h *localHarness) answer(server netip.AddrPort, id uint16, c cookie.Cookie) Packet {
	resp := dnswire.NewQuery(id, dnswire.MustName("www.foo.com"), dnswire.TypeA).Response()
	if !c.IsZero() {
		AttachCookie(resp, c, uint32(time.Hour/time.Second))
	}
	return Packet{Src: server, Dst: netip.AddrPortFrom(h.lrs.Addr(), exchangePort), Payload: mustPack(h.t, resp)}
}

// stamped reports the cookie the last datagram to server carries, if any.
func (h *localHarness) stamped(server netip.AddrPort) (cookie.Cookie, bool) {
	h.t.Helper()
	for i := len(h.io.out) - 1; i >= 0; i-- {
		if p := h.io.out[i]; p.Dst == server {
			m, err := dnswire.Unpack(p.Payload)
			if err != nil {
				h.t.Fatal(err)
			}
			c, _, _, ok := FindCookie(m)
			return c, ok
		}
	}
	h.t.Fatalf("nothing was sent to %v", server)
	return cookie.Cookie{}, false
}

var testServerCookie = cookie.Cookie{0x80, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

// TestLocalHoldsCopies: the queries Local holds through an exchange are its
// own copies. The capture interface lends each payload until its next read,
// so two first-contact queries and the legacy answer that releases them all
// arrive in the same bytes; what leaves must be the two queries as sent.
func TestLocalHoldsCopies(t *testing.T) {
	h := newLocalHarness(t)
	server := mustAP("192.0.2.1:53")
	q1, q2 := h.query(server, 0x1111, "www.foo.com"), h.query(server, 0x2222, "mail.foo.com")
	h.run(func() {
		h.feed(q1, q2)
		h.feed(h.answer(server, h.exchangeID(server), cookie.Cookie{}))
	})
	if st := h.l.Stats; st.Exchanges != 1 || st.LegacyServers != 1 || st.PassedThrough != 2 {
		t.Fatalf("want one exchange, a legacy verdict and two queries released: %+v", st)
	}
	if len(h.io.out) != 3 {
		t.Fatalf("%d datagrams sent, want message 2 and the two held queries", len(h.io.out))
	}
	for i, want := range []Packet{q1, q2} {
		if got := h.io.out[1+i]; got.Src != want.Src || got.Dst != want.Dst || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("held query %d released as %v→%v % x, want %v→%v % x", i+1, got.Src, got.Dst, got.Payload, want.Src, want.Dst, want.Payload)
		}
	}
}

// TestLocalLateCookie: a message 3 after the 500 ms timeout but inside the
// 2 s grace is learned. The timeout released the held query unstamped and
// judged the server legacy; the late cookie undoes that, so the next query is
// stamped, without a second exchange.
func TestLocalLateCookie(t *testing.T) {
	h := newLocalHarness(t)
	server := mustAP("192.0.2.1:53")
	h.run(func() {
		h.feed(h.query(server, 1, "www.foo.com"))
		h.sched.Sleep(exchangeTimeout + 100*time.Millisecond)
		if st := h.l.Stats; st.LegacyServers != 1 || st.PassedThrough != 1 {
			t.Errorf("at the timeout: %+v, want the server legacy and the query released", st)
		}
		h.feed(h.answer(server, h.exchangeID(server), testServerCookie))
		h.feed(h.query(server, 2, "mail.foo.com"))
	})
	if st := h.l.Stats; st.CookiesLearned != 1 || st.LateCookies != 1 || st.ExchangeStrays != 0 || st.Stamped != 1 || st.Exchanges != 1 {
		t.Errorf("a cookie learned late: %+v, want it learned, late, and the next query stamped", st)
	}
	if c, ok := h.stamped(server); !ok || c != testServerCookie {
		t.Errorf("the next query carries %x (%v), want the late cookie", c, ok)
	}
}

// TestLocalCookieAfterGrace: a message 3 after the grace is a stray, and the
// legacy verdict stands: the next query passes through unstamped.
func TestLocalCookieAfterGrace(t *testing.T) {
	h := newLocalHarness(t)
	server := mustAP("192.0.2.1:53")
	h.run(func() {
		h.feed(h.query(server, 1, "www.foo.com"))
		h.sched.Sleep(exchangeTimeout + lateGrace)
		h.feed(h.answer(server, h.exchangeID(server), testServerCookie))
		h.feed(h.query(server, 2, "mail.foo.com"))
	})
	if st := h.l.Stats; st.ExchangeStrays != 1 || st.CookiesLearned != 0 || st.LateCookies != 0 || st.Stamped != 0 || st.PassedThrough != 2 || st.Exchanges != 1 {
		t.Errorf("a cookie after the grace: %+v, want a stray and both queries passed through", st)
	}
	if _, ok := h.stamped(server); ok {
		t.Error("the query after the grace carries a cookie")
	}
}

// TestLocalStrays: an answer under an ID no exchange has, or under a live
// exchange's ID from another server, is a stray and settles nothing.
func TestLocalStrays(t *testing.T) {
	h := newLocalHarness(t)
	server, other := mustAP("192.0.2.1:53"), mustAP("192.0.2.2:53")
	h.run(func() {
		h.feed(h.query(server, 1, "www.foo.com"))
		id := h.exchangeID(server)
		h.feed(h.answer(server, id+1, testServerCookie), h.answer(other, id, testServerCookie))
		if st := h.l.Stats; st.ExchangeStrays != 2 || st.CookiesLearned != 0 || st.PassedThrough != 0 {
			t.Errorf("two strays: %+v, want both counted and the query still held", st)
		}
		h.feed(h.answer(server, id, testServerCookie))
	})
	if st := h.l.Stats; st.ExchangeStrays != 2 || st.CookiesLearned != 1 || st.Stamped != 1 {
		t.Errorf("the exchange's own answer after two strays: %+v, want the cookie learned and the query stamped", st)
	}
}

// TestLocalHeldOverflow: an exchange holds maxHeld queries; the next one
// leaves at once, unstamped, counted in HeldOverflow, and the held ones are
// stamped when the cookie comes.
func TestLocalHeldOverflow(t *testing.T) {
	h := newLocalHarness(t)
	server := mustAP("192.0.2.1:53")
	h.run(func() {
		for i := 0; i <= maxHeld; i++ {
			h.feed(h.query(server, uint16(i), "www.foo.com"))
		}
		if st := h.l.Stats; st.HeldOverflow != 1 || st.PassedThrough != 1 || st.Exchanges != 1 {
			t.Errorf("%d queries during one exchange: %+v, want one overflow passed through", maxHeld+1, st)
		}
		h.feed(h.answer(server, h.exchangeID(server), testServerCookie))
	})
	if st := h.l.Stats; st.Stamped != maxHeld || st.HeldOverflow != 1 {
		t.Errorf("the cookie for %d held queries: %+v, want every one stamped", maxHeld, st)
	}
}

// TestLocalServerSpray: what Local keeps stays at its bounds however many
// servers the LRS asks. A full server table gives the least recently asked
// server's record to the next; a full exchange table sends a first-contact
// query on unstamped, counted in HeldOverflow. Neither grows the heap.
func TestLocalServerSpray(t *testing.T) {
	h := newLocalHarness(t)
	serverN := func(i int) netip.AddrPort {
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte{198, 18, byte(i >> 8), byte(i)}), 53)
	}
	// ask sends server i a query and answers its exchange, if it starts one,
	// at once; now and then it lets the clock run the timeouts out.
	ask := func(i int) {
		exchanges := h.l.Stats.Exchanges
		h.feed(h.query(serverN(i), uint16(i), "www.foo.com"))
		if h.l.Stats.Exchanges != exchanges {
			h.feed(h.answer(serverN(i), h.exchangeID(serverN(i)), testServerCookie))
		}
		h.io.out = h.io.out[:0]
		if i%256 == 0 {
			h.sched.Sleep(exchangeTimeout)
		}
	}
	// heap is measured with no timeout pending: those are procs of the
	// virtual clock, not state of the guard.
	heap := func() uint64 {
		h.sched.Sleep(exchangeTimeout)
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var before, after uint64
	h.run(func() {
		for i := 0; i < maxServers; i++ {
			ask(i)
		}
		ask(0) // server 0 is now the most recently asked; server 1 the least
		ask(maxServers)
		if st := h.l.Stats; st.Exchanges != maxServers+1 || st.Stamped != maxServers+2 {
			t.Errorf("%d servers asked: %+v, want one exchange each and server 0 stamped from its record", maxServers+1, st)
		}
		exchanges := h.l.Stats.Exchanges
		ask(0)
		ask(1)
		if got := h.l.Stats.Exchanges - exchanges; got != 1 {
			t.Errorf("asking server 0 and then the evicted server 1 ran %d exchanges, want 1 (server 1's)", got)
		}
		before = heap()
		for i := maxServers + 1; i < 4*maxServers; i++ {
			ask(i)
		}
		after = heap()
		// Once the timeouts have run every slot is free. No time passes
		// while these are fed: every exchange they start stays live, the
		// table fills and the rest go on unstamped.
		h.sched.Sleep(exchangeTimeout)
		overflow := h.l.Stats.HeldOverflow
		for i := 0; i < maxExchanges+10; i++ {
			h.feed(h.query(serverN(20000+i), 1, "www.foo.com"))
		}
		if got := h.l.Stats.HeldOverflow - overflow; got != 10 {
			t.Errorf("%d first contacts into %d exchange slots: %d overflowed, want 10", maxExchanges+10, maxExchanges, got)
		}
	})
	if n := h.l.servers.Len(); n != maxServers {
		t.Errorf("the server table holds %d records, want its bound %d", n, maxServers)
	}
	t.Logf("%d more servers: heap %d → %d bytes", 3*maxServers, before, after)
	if after > before+64<<10 {
		t.Errorf("%d more servers grew the heap from %d to %d bytes, want at most 64 KiB more", 3*maxServers, before, after)
	}
}

// TestLocalSilentServersFreeSlots: a server that never answers holds an
// exchange slot for the timeout only, not for the grace after it. With every
// slot taken by a silent server, a first contact inside their grace still
// runs its exchange, and a late message 3 from a silent server whose slot the
// new exchange took is still learned, from the server's record.
func TestLocalSilentServersFreeSlots(t *testing.T) {
	h := newLocalHarness(t)
	serverN := func(i int) netip.AddrPort {
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte{198, 18, 0, byte(i)}), 53)
	}
	fresh := serverN(maxExchanges)
	h.run(func() {
		for i := 0; i < maxExchanges; i++ {
			h.feed(h.query(serverN(i), uint16(i), "www.foo.com"))
		}
		h.sched.Sleep(exchangeTimeout + 100*time.Millisecond)
		h.feed(h.query(fresh, 1, "www.foo.com"))
		if st := h.l.Stats; st.Exchanges != maxExchanges+1 || st.HeldOverflow != 0 || st.LegacyServers != maxExchanges {
			t.Errorf("a first contact after %d silent servers timed out: %+v, want its own exchange and no overflow", maxExchanges, st)
		}
		silent := h.exchangeID(serverN(0))
		if id := h.exchangeID(fresh); id%maxExchanges != silent%maxExchanges {
			t.Errorf("the fresh exchange %d is not in silent exchange %d's slot", id, silent)
		}
		h.feed(h.answer(serverN(0), silent, testServerCookie))
		h.feed(h.answer(fresh, h.exchangeID(fresh), testServerCookie))
		h.feed(h.query(serverN(0), 2, "mail.foo.com"))
	})
	if st := h.l.Stats; st.LateCookies != 1 || st.CookiesLearned != 2 || st.ExchangeStrays != 0 || st.Stamped != 2 {
		t.Errorf("a late cookie beside the exchange in its old slot: %+v, want both cookies learned and both queries stamped", st)
	}
	if c, ok := h.stamped(serverN(0)); !ok || c != testServerCookie {
		t.Errorf("the silent server's next query carries %x (%v), want its late cookie", c, ok)
	}
}
