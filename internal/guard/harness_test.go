package guard

import (
	"net/netip"
	"reflect"
	"testing"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netsim"
	"dnsguard/internal/ratelimit"
	"dnsguard/internal/realnet"
	"dnsguard/internal/vclock"
)

// sinkConn is a stub upstream socket capturing the last datagram written.
type sinkConn struct {
	buf   [dnswire.MaxUDPSize]byte
	n     int
	dst   netip.AddrPort
	wrote int
}

func (c *sinkConn) ReadFrom(timeout time.Duration) ([]byte, netip.AddrPort, error) {
	return nil, netip.AddrPort{}, netapi.ErrClosed
}

func (c *sinkConn) WriteTo(b []byte, to netip.AddrPort) error {
	c.n = copy(c.buf[:], b)
	c.dst = to
	c.wrote++
	return nil
}

func (c *sinkConn) LocalAddr() netip.AddrPort { return netip.AddrPort{} }
func (c *sinkConn) Close() error              { return nil }

// sinkIO is a stub capture interface recording the last reply emitted.
type sinkIO struct {
	buf      [dnswire.MaxUDPSize]byte
	n        int
	from, to netip.AddrPort
	wrote    int
}

func (io *sinkIO) Read(timeout time.Duration) (Packet, error) { return Packet{}, netapi.ErrClosed }

func (io *sinkIO) WriteFromTo(from, to netip.AddrPort, payload []byte) error {
	io.n = copy(io.buf[:], payload)
	io.from, io.to = from, to
	io.wrote++
	return nil
}

func (io *sinkIO) Close() error { return nil }

// shardHarness drives one shard directly — no engine start, no simulated
// network — with stub I/O on both sides, so tests can compare exact wires
// and count allocations without simulator noise.
type shardHarness struct {
	g     *Remote
	s     *remoteShard
	io    *sinkIO
	up    *sinkConn
	sched *vclock.Scheduler // the guard's clock: it stands still unless a test runs it
}

func newShardHarness(t testing.TB, mutate func(*RemoteConfig)) *shardHarness {
	t.Helper()
	sched := vclock.New(1)
	network := netsim.New(sched, time.Millisecond)
	host := network.AddHost("guard", mustAddr("198.41.0.4"))
	io := &sinkIO{}
	cfg := RemoteConfig{
		Env:        host,
		IOs:        []PacketIO{io},
		PublicAddr: mustAP("198.41.0.4:53"),
		ANSAddr:    mustAP("10.99.0.2:53"),
		Zone:       dnswire.Root,
		Auth:       testAuth(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := NewRemote(cfg)
	if err != nil {
		t.Fatal(err)
	}
	up := &sinkConn{}
	g.shards[0].upstream = up
	return &shardHarness{g: g, s: g.shards[0], io: io, up: up, sched: sched}
}

// inFlight shows visit the shard's pending entries, oldest first.
func (s *remoteShard) inFlight(visit func(id uint16, e *pendEntry)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, n := uint16(0), s.pend.live; n > 0; n-- {
		id = s.pend.slot(id).next
		visit(id, &s.pend.slot(id).pendEntry)
	}
}

// handle runs one packet through the shard as the engine does: inside a
// batch bracket of one.
func (h *shardHarness) handle(pkt Packet) {
	h.s.BeginBatch(1)
	h.s.HandlePacket(pkt)
	h.s.EndBatch()
}

// nsQueryWire packs a query for the fabricated name carrying src's cookie.
func (h *shardHarness) nsQueryWire(t testing.TB, src netip.Addr, child string, id uint16) []byte {
	t.Helper()
	c := h.g.cfg.Auth.Mint(src)
	fab, err := FabricateNSName(h.g.nsc, c, dnswire.MustName(child))
	if err != nil {
		t.Fatal(err)
	}
	wire, err := dnswire.NewQuery(id, fab, dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// appendNXDomain, appendNXDomainSOA, appendAnswer and appendReferral turn
// fwd, a query the guard forwarded, into what the ANS sends back, in dst: an
// empty NXDOMAIN, one with the zone's SOA, an address for the question, or
// the referral real servers send — the question's NS record, its target's
// address as glue, an AAAA beside it — by hand, so the tests that count
// allocations make none.
func appendNXDomain(dst, fwd []byte) []byte {
	dst = append(dst[:0], fwd...)
	dst[2] |= 0x80
	dst[3] |= byte(dnswire.RCodeNXDomain)
	return dst
}

func appendNXDomainSOA(dst, fwd []byte) []byte {
	dst = appendNXDomain(dst, fwd)
	dst[9] = 1 // the zone's SOA, its names pointing at foo.com in the question
	dst = append(dst, 0xC0, 16, 0, byte(dnswire.TypeSOA), 0, 1, 0, 0, 0, 60, 0, 33, 3, 'n', 's', '1', 0xC0, 16, 4, 'h', 'o', 's', 't', 0xC0, 16)
	return append(dst, 0, 0, 0, 7, 0, 0, 0x0e, 0x10, 0, 0, 2, 0x58, 0, 1, 0x51, 0x80, 0, 0, 0, 60)
}

func appendAnswer(dst, fwd []byte) []byte {
	dst = append(dst[:0], fwd...)
	dst[2] |= 0x80
	dst[7] = 1
	return append(dst, 0xC0, 12, 0, byte(dnswire.TypeA), 0, 1, 0, 0, 1, 0x2c, 0, 4, 198, 51, 100, 10)
}

func appendReferral(dst, fwd []byte) []byte {
	dst = append(dst[:0], fwd...)
	dst[2] |= 0x80
	dst[9], dst[11] = 1, 2
	target := byte(len(dst) + 12) // the NS target, "ns" under the question's name
	dst = append(dst, 0xC0, 12, 0, byte(dnswire.TypeNS), 0, 1, 0, 0, 0x0e, 0x10, 0, 5, 2, 'n', 's', 0xC0, 12)
	dst = append(dst, 0xC0, target, 0, byte(dnswire.TypeA), 0, 1, 0, 0, 0x0e, 0x10, 0, 4, 198, 51, 100, 7)
	dst = append(dst, 0xC0, target, 0, byte(dnswire.TypeAAAA), 0, 1, 0, 0, 0x0e, 0x10, 0, 16)
	return append(dst, 0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7)
}

// recordQueryAllocs pins at zero allocations what the guard does with a query
// that carries records, judged from the record walk: a forged TXT cookie
// dropped, a valid one verified and forwarded by splice, bare and between
// OPTs, its answer — empty, or a referral relayed whole — sent on, message 2
// answered with message 3, and an EDNS0 resolver's cookie-name query and
// first contact. send delivers a query from src; replied
// is called wherever a reply has just left for it.
func recordQueryAllocs(t *testing.T, rig string, h *shardHarness, src netip.AddrPort, send func(wire []byte), replied func()) {
	t.Helper()
	plain := mustPack(t, dnswire.NewQuery(0x46, dnswire.MustName("www.foo.com"), dnswire.TypeA))
	named := h.nsQueryWire(t, src.Addr(), "www.foo.com", 0x47)
	own, other := txtRR(h.g.cfg.Auth.Mint(src.Addr())), txtRR(h.g.cfg.Auth.Mint(mustAddr("10.66.0.1")))
	// Every query is built before anything is counted. The ANS answers a
	// forward's question and leaves its OPTs out: an empty NXDOMAIN, or for a
	// verified request relayed as it is (pendRelay) a referral.
	resp := make([]byte, 0, dnswire.MaxUDPSize)
	answeredWith := func(answer func(dst, fwd []byte) []byte, wire []byte) func() {
		return func() {
			send(wire)
			fwd := h.up.buf[:h.up.n]
			resp = answer(resp, fwd[:12+len(firstQuestion(fwd))])
			h.s.handleUpstream(resp, h.g.cfg.ANSAddr)
			replied()
		}
	}
	cycle := func(wire []byte) func() {
		return answeredWith(func(dst, fwd []byte) []byte {
			dst = appendNXDomain(dst, fwd)
			dst[10], dst[11] = 0, 0 // the forward's OPTs are not echoed
			return dst
		}, wire)
	}
	answered := func(wire []byte) func() {
		return func() {
			send(wire)
			replied()
		}
	}
	forged, forgedOPTs := withRecords(plain, 0, 0, 1, other), withRecords(plain, 0, 0, 3, optRR, other, optOptions)
	valid, byLabel := cycle(withRecords(plain, 0, 0, 1, own)), cycle(named)
	// The cookie record owned by a pointer to the question name's last octet,
	// the root; and an address record beside the cookie, forwarded with it.
	pointerOwned := rawRR("\xc0\x18", dnswire.TypeTXT, 1, 0, -1, string(own[11:]))
	address := rawRR("\x00", dnswire.TypeA, 1, 60, -1, "\xc6\x33\x64\x07")
	pinAllocs(t, rig, h, []allocCase{
		{"a forged TXT cookie", func() { send(forged) },
			func(d RemoteStats) bool { return d.CookieInvalid == 201 && d.ForwardedToANS == 0 }},
		{"a forged TXT cookie between OPTs", func() { send(forgedOPTs) },
			func(d RemoteStats) bool { return d.CookieInvalid == 201 && d.ForwardedToANS == 0 }},
		{"a valid TXT cookie", valid,
			func(d RemoteStats) bool { return d.CookieValid == 201 && d.RepliesToClient == 201 }},
		{"a valid TXT cookie between OPTs", cycle(withRecords(plain, 0, 0, 3, optRR, own, optOptions)),
			func(d RemoteStats) bool { return d.CookieValid == 201 && d.RepliesToClient == 201 }},
		{"a valid TXT cookie answered with a referral", answeredWith(appendReferral, withRecords(plain, 0, 0, 1, own)),
			func(d RemoteStats) bool { return d.CookieValid == 201 && d.RepliesToClient == 201 }},
		{"the cookie label and the TXT cookie in turn", func() { byLabel(); valid() },
			func(d RemoteStats) bool { return d.CookieValid == 402 && d.RepliesToClient == 402 }},
		{"message 2", answered(withRecords(plain, 0, 0, 1, txtRR(cookie.Cookie{}))),
			func(d RemoteStats) bool { return d.NewcomerGrants == 201 && d.RepliesToClient == 201 }},
		{"a cookie-name query with an OPT", cycle(withRecords(named, 0, 0, 1, optRR)),
			func(d RemoteStats) bool { return d.CookieValid == 201 && d.RepliesToClient == 201 }},
		{"a first contact with an OPT", answered(withRecords(plain, 0, 0, 1, optOptions)),
			func(d RemoteStats) bool { return d.NewcomerGrants == 201 && d.RepliesToClient == 201 }},
		{"a valid TXT cookie owned by a pointer", cycle(withRecords(plain, 0, 0, 1, pointerOwned)),
			func(d RemoteStats) bool { return d.CookieValid == 201 && d.RepliesToClient == 201 }},
		{"a valid TXT cookie beside an address record", cycle(withRecords(plain, 0, 0, 2, own, address)),
			func(d RemoteStats) bool { return d.CookieValid == 201 && d.RepliesToClient == 201 }},
	})
}

// allocCase is one shape TestFastPathWireAllocs pins at zero allocations:
// what a run does, and what 201 runs must have added to the counters.
type allocCase struct {
	name string
	run  func()
	ran  func(d RemoteStats) bool
}

// pinAllocs runs each case 201 times on h, the first to warm up, and checks
// that the other 200 allocate nothing and that all of them ran as meant.
func pinAllocs(t *testing.T, rig string, h *shardHarness, cases []allocCase) {
	t.Helper()
	for _, c := range cases {
		before := h.g.Stats.Load()
		if n := testing.AllocsPerRun(200, c.run); n != 0 {
			t.Errorf("%s: %s allocates %.1f/op, want 0", rig, c.name, n)
		}
		after := h.g.Stats.Load()
		var d RemoteStats
		dv, av, bv := reflect.ValueOf(&d).Elem(), reflect.ValueOf(after), reflect.ValueOf(before)
		for i := 0; i < dv.NumField(); i++ {
			dv.Field(i).SetUint(av.Field(i).Uint() - bv.Field(i).Uint())
		}
		if !c.ran(d) {
			t.Errorf("%s: %s did not run as meant: the runs added %+v", rig, c.name, d)
		}
	}
}

// TestFastPathWireAllocs pins everything legitimate traffic does, and every
// reject, at zero allocations against stub I/O: the verified cycle — cookie
// query in, MAC, rewritten forward out, response in, fabricated reply out —
// for an empty response and for a referral with glue, the same cycle for a
// source Rate-Limiter2 has never seen (its first bucket), the newcomer grant,
// the queries with records of recordQueryAllocs, and the inactive guard's
// relay of a query and the referral that answers it. The last cases replace the stub
// capture interface with a real SocketIO on a loopback socket, so the count
// includes the ingest read and the reply write a deployed guard makes.
func TestFastPathWireAllocs(t *testing.T) {
	// The harness clock stands still: bursts that cover every run.
	roomy := func(cfg *RemoteConfig) {
		cfg.RL1 = ratelimit.DefaultLimiter1Config()
		cfg.RL1.PerSourceBurst = 1e6
		cfg.RL2 = ratelimit.Limiter2Config{PerSourceRate: 1, PerSourceBurst: 1e6, TrackedSources: 1024}
	}
	clean := func(name string, h *shardHarness) {
		if st := h.g.Stats.Load(); st.RL2Dropped+st.RL1Dropped+st.UpstreamStrays+st.UpstreamSpoofed+st.Malformed != 0 {
			t.Errorf("%s: not every run ran to its reply: %+v", name, st)
		}
	}
	h := newShardHarness(t, roomy)
	src := mustAP("10.0.0.53:4444")
	ans := h.g.cfg.ANSAddr
	pkt := Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: h.nsQueryWire(t, src.Addr(), "www.foo.com", 0x42)}
	resp := make([]byte, 0, dnswire.MaxUDPSize)
	answers := []struct {
		name   string
		answer func(dst, fwd []byte) []byte
		reply  int // message 6's length
	}{
		{"an empty NXDOMAIN", appendNXDomain, 12 + len(pkt.Payload[12:])},
		{"a referral with glue", appendReferral, 12 + len(pkt.Payload[12:]) + 16},
	}
	for _, a := range answers {
		cycle := func() {
			h.handle(pkt)
			resp = a.answer(resp, h.up.buf[:h.up.n])
			h.s.handleUpstream(resp, ans)
		}
		// Warm: the first exchange starts the source's Rate-Limiter2 bucket
		// and sizes the entry-pool buffers.
		cycle()
		if n := testing.AllocsPerRun(200, cycle); n != 0 {
			t.Errorf("verified NS cycle answered %s allocates %.1f/op, want 0", a.name, n)
		}
		if h.io.n != a.reply {
			t.Errorf("message 6 for %s is %d bytes, want %d", a.name, h.io.n, a.reply)
		}
	}

	// Sources nobody has seen: each run is one's whole session — the grant,
	// then its first cookie query, which pays the MAC and starts a bucket.
	const strangers = 201
	plain, err := dnswire.NewQuery(0x43, dnswire.MustName("www.foo.com"), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	var first [strangers]Packet
	for i := range first {
		s := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)}), 5353)
		first[i] = Packet{Src: s, Dst: h.g.cfg.PublicAddr, Payload: h.nsQueryWire(t, s.Addr(), "www.foo.com", 0x45)}
	}
	before, i := h.g.Stats.Load(), 0
	if n := testing.AllocsPerRun(strangers-1, func() {
		h.handle(Packet{Src: first[i].Src, Dst: first[i].Dst, Payload: plain})
		h.handle(first[i])
		resp = appendReferral(resp, h.up.buf[:h.up.n])
		h.s.handleUpstream(resp, ans)
		i++
	}); n != 0 {
		t.Errorf("a newcomer's session (grant, first verification, referral) allocates %.1f/op, want 0", n)
	}
	st := h.g.Stats.Load()
	if st.NewcomerGrants-before.NewcomerGrants != strangers || st.CookieValid-before.CookieValid != strangers {
		t.Errorf("the %d sessions were not each a grant and a first verification: %+v", strangers, st)
	}

	recordQueryAllocs(t, "stub I/O", h, src, func(wire []byte) {
		h.handle(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: wire})
	}, func() {})
	clean("stub I/O", h)

	hp := newShardHarness(t, func(cfg *RemoteConfig) {
		cfg.ActivationThreshold = 1e12
	})
	ppkt := Packet{Src: src, Dst: hp.g.cfg.PublicAddr, Payload: plain}
	relayed := len(appendReferral(nil, plain))
	pcycle := func() {
		hp.handle(ppkt)
		resp = appendReferral(resp, hp.up.buf[:hp.up.n])
		hp.s.handleUpstream(resp, hp.g.cfg.ANSAddr)
	}
	pcycle()
	if n := testing.AllocsPerRun(200, pcycle); n != 0 {
		t.Errorf("passthrough relay cycle answered a referral allocates %.1f/op, want 0", n)
	}
	if st := hp.g.Stats.Load(); hp.io.n != relayed || st.RepliesToClient != 202 {
		t.Errorf("the relayed referral is %d bytes, want %d: %+v", hp.io.n, relayed, st)
	}

	// The shapes the guard once built a Message for, each read and written as
	// wire now: a relayed response over 512 bytes, cut; message 6 for NXDOMAIN
	// with its SOA, and for an answer, with its IP cookie; message 7 forwarded
	// with its answer relayed; a query of two questions, dropped.
	pad := make([]byte, 500)
	overLimit := func(dst, fwd []byte) []byte {
		dst = appendReferral(dst, fwd)
		dst[11]++
		dst = append(dst, 0, 0, 99, 0, 1, 0, 0, 0, 0, byte(len(pad)>>8), byte(len(pad)))
		return append(dst, pad...)
	}
	pinAllocs(t, "stub I/O, inactive", hp, []allocCase{
		{"a relayed response over 512 bytes", func() {
			hp.handle(ppkt)
			resp = overLimit(resp, hp.up.buf[:hp.up.n])
			hp.s.handleUpstream(resp, hp.g.cfg.ANSAddr)
		}, func(d RemoteStats) bool { return d.RepliesToClient == 201 && hp.io.buf[2]&2 != 0 }},
	})
	hi := newShardHarness(t, func(cfg *RemoteConfig) {
		roomy(cfg)
		cfg.Subnet = shapeSubnet
	})
	cookieAddr, err := hi.g.ipc.Encode(hi.g.cfg.Auth.Mint(src.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	named := hi.nsQueryWire(t, src.Addr(), "www.foo.com", 0x48)
	two := append(append([]byte(nil), plain...), 3, 'f', 't', 'p', 0xC0, 16, 0, 1, 0, 1)
	two[5] = 2
	exchange := func(to netip.AddrPort, query []byte, answer func(dst, fwd []byte) []byte) func() {
		return func() {
			hi.handle(Packet{Src: src, Dst: to, Payload: query})
			if answer != nil {
				resp = answer(resp, hi.up.buf[:hi.up.n])
				hi.s.handleUpstream(resp, hi.g.cfg.ANSAddr)
			}
		}
	}
	public, cookieIP := hi.g.cfg.PublicAddr, netip.AddrPortFrom(cookieAddr, 53)
	pinAllocs(t, "stub I/O, with a subnet", hi, []allocCase{
		{"message 6 for NXDOMAIN with its SOA", exchange(public, named, appendNXDomainSOA),
			func(d RemoteStats) bool {
				return d.RepliesToClient == 201 && hi.io.buf[3]&0xF == byte(dnswire.RCodeNXDomain)
			}},
		{"message 6 for an answer, with its IP cookie", exchange(public, named, appendAnswer),
			func(d RemoteStats) bool { return d.RepliesToClient == 201 && hi.io.buf[7] == 1 }},
		{"message 7 forwarded, its answer relayed", exchange(cookieIP, plain, appendAnswer),
			func(d RemoteStats) bool { return d.ForwardedToANS == 201 && d.RepliesToClient == 201 }},
		{"a query of two questions, dropped", exchange(public, two, nil),
			func(d RemoteStats) bool { return d.Malformed == 201 && d.RepliesToClient == 0 }},
	})

	if raceEnabled {
		// SocketIO's write scratch is pooled, and the pool drops some of it.
		t.Log("the SocketIO rows are counted without -race only")
		return
	}
	env := realnet.New()
	lo := netip.MustParseAddrPort("127.0.0.1:0")
	guardSock, err := env.ListenUDP(lo)
	if err != nil {
		t.Fatal(err)
	}
	defer guardSock.Close()
	client, err := env.ListenUDP(lo)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	sio := &SocketIO{Conn: guardSock}
	hs := newShardHarness(t, func(cfg *RemoteConfig) {
		roomy(cfg)
		cfg.IOs = []PacketIO{sio}
		cfg.PublicAddr = guardSock.LocalAddr()
	})
	squery := hs.nsQueryWire(t, client.LocalAddr().Addr(), "www.foo.com", 0x44)
	slab := make([]Packet, 8)
	replies := netapi.NewSlab(1, dnswire.MaxUDPSize)
	for _, a := range answers {
		cycle := func() {
			if err := client.WriteTo(squery, guardSock.LocalAddr()); err != nil {
				t.Fatal(err)
			}
			n, err := sio.ReadBatch(slab, time.Second)
			if n != 1 || err != nil {
				t.Fatalf("SocketIO.ReadBatch = (%d, %v)", n, err)
			}
			hs.handle(slab[0])
			resp = a.answer(resp, hs.up.buf[:hs.up.n])
			hs.s.handleUpstream(resp, hs.g.cfg.ANSAddr)
			if n, err := netapi.AsBatch(client).ReadBatch(replies, time.Second); n != 1 || err != nil {
				t.Fatalf("no reply on the client socket: (%d, %v)", n, err)
			}
			if got := len(replies[0].Payload()); got != a.reply {
				t.Fatalf("message 6 for %s is %d bytes on the client socket, want %d", a.name, got, a.reply)
			}
		}
		cycle() // first exchange: starts the source's bucket, allocates the slab
		cycle()
		macs := macCounter{&hs.s.work}
		before := macs.n()
		if n := testing.AllocsPerRun(200, cycle); n != 0 {
			t.Errorf("verified NS cycle answered %s through SocketIO on loopback allocates %.1f/op, want 0", a.name, n)
		}
		if got := macs.n() - before; got != 201 {
			t.Errorf("201 socket cycles ran %d MACs, want one each", got)
		}
	}
	// The inactive guard on the same sockets: query in, re-encoded forward
	// out, referral in, re-encoded reply out.
	hps := newShardHarness(t, func(cfg *RemoteConfig) {
		cfg.ActivationThreshold = 1e12
		cfg.IOs = []PacketIO{sio}
		cfg.PublicAddr = guardSock.LocalAddr()
	})
	spcycle := func() {
		if err := client.WriteTo(plain, guardSock.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		if n, err := sio.ReadBatch(slab, time.Second); n != 1 || err != nil {
			t.Fatalf("SocketIO.ReadBatch = (%d, %v)", n, err)
		}
		hps.handle(slab[0])
		resp = appendReferral(resp, hps.up.buf[:hps.up.n])
		hps.s.handleUpstream(resp, hps.g.cfg.ANSAddr)
		if n, err := netapi.AsBatch(client).ReadBatch(replies, time.Second); n != 1 || err != nil || len(replies[0].Payload()) != relayed {
			t.Fatalf("no relayed referral of %d bytes on the client socket: (%d, %v)", relayed, n, err)
		}
	}
	spcycle()
	if n := testing.AllocsPerRun(200, spcycle); n != 0 {
		t.Errorf("passthrough relay cycle answered a referral through SocketIO on loopback allocates %.1f/op, want 0", n)
	}
	clean("SocketIO, inactive", hps)

	recordQueryAllocs(t, "SocketIO on loopback", hs, client.LocalAddr(), func(wire []byte) {
		if err := client.WriteTo(wire, guardSock.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		if n, err := sio.ReadBatch(slab, time.Second); n != 1 || err != nil {
			t.Fatalf("SocketIO.ReadBatch = (%d, %v)", n, err)
		}
		hs.handle(slab[0])
	}, func() {
		if n, err := netapi.AsBatch(client).ReadBatch(replies, time.Second); n != 1 || err != nil {
			t.Fatalf("no reply on the client socket: (%d, %v)", n, err)
		}
	})
	clean("SocketIO", hs)
}
