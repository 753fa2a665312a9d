package guard

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netsim"
	"dnsguard/internal/realnet"
	"dnsguard/internal/vclock"
)

// The fast path's contract is byte- and counter-equivalence with the
// materializing path. The golden replays (inline_golden_test.go and friends)
// pin the counters across full simulations; the tests here isolate the wire
// bytes — forwarded queries, fabricated replies, raw relays — and pin the
// whole verified cycle at zero allocations against stub I/O.

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

// fastHarness drives one shard directly — no engine start, no simulated
// network — with stub I/O on both sides, so tests can compare exact wires
// and count allocations without simulator noise.
type fastHarness struct {
	g  *Remote
	s  *remoteShard
	io *sinkIO
	up *sinkConn
}

func newFastHarness(t *testing.T, mutate func(*RemoteConfig)) *fastHarness {
	t.Helper()
	sched := vclock.New(1)
	network := netsim.New(sched, time.Millisecond)
	host := network.AddHost("guard", mustAddr("198.41.0.4"))
	io := &sinkIO{}
	cfg := RemoteConfig{
		Env:         host,
		IO:          io,
		PublicAddr:  mustAP("198.41.0.4:53"),
		ANSAddr:     mustAP("10.99.0.2:53"),
		Zone:        dnswire.Root,
		Auth:        testAuth(),
		FastPathTTL: time.Hour,
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
	return &fastHarness{g: g, s: g.shards[0], io: io, up: up}
}

// handle runs one packet through the shard as the engine does: inside a
// batch bracket of one.
func (h *fastHarness) handle(pkt Packet) {
	h.s.BeginBatch(1)
	h.s.HandlePacket(pkt)
	h.s.EndBatch()
}

// nsQueryWire packs a query for the fabricated name carrying src's cookie.
func (h *fastHarness) nsQueryWire(t *testing.T, src netip.Addr, child string, id uint16) []byte {
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

// TestFastNSMatchesSlowPath sends the same cookie-labeled query twice: the
// first pass misses the verified cache and takes the materializing path, the
// second hits and takes the wire path. The forwarded queries must agree byte
// for byte (modulo transaction ID), and the fabricated NXDomain replies must
// agree exactly.
func TestFastNSMatchesSlowPath(t *testing.T) {
	h := newFastHarness(t, nil)
	src := mustAP("10.0.0.53:4444")
	query := h.nsQueryWire(t, src.Addr(), "www.foo.com", 0x1234)
	// Uppercase two hex chars of the cookie and the child's first letter so
	// the fast path's ASCII folding is exercised, not just passed through
	// (offset 12 is the first label's length octet).
	for _, off := range []int{15, 16, 23} {
		if query[off] >= 'a' && query[off] <= 'z' {
			query[off] -= 'a' - 'A'
		}
	}
	ans := h.g.cfg.ANSAddr

	exchange := func() (fwd, reply []byte) {
		h.handle(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: append([]byte(nil), query...)})
		if h.up.n == 0 {
			t.Fatal("no forward emitted")
		}
		fwd = append([]byte(nil), h.up.buf[:h.up.n]...)
		// Empty NXDomain response: flip QR and set the rcode on the echo.
		resp := append([]byte(nil), fwd...)
		resp[2] |= 0x80
		resp[3] |= byte(dnswire.RCodeNXDomain)
		h.s.handleUpstream(resp, ans)
		if h.io.n == 0 {
			t.Fatal("no reply emitted")
		}
		return fwd, append([]byte(nil), h.io.buf[:h.io.n]...)
	}

	slowFwd, slowReply := exchange()
	before := h.g.Stats.Load()
	fastFwd, fastReply := exchange()
	after := h.g.Stats.Load()
	if after.FastPathHits != before.FastPathHits+1 {
		t.Fatalf("second exchange did not take the fast path: hits %d -> %d", before.FastPathHits, after.FastPathHits)
	}
	if after.CookieValid != before.CookieValid+1 || after.RepliesToClient != before.RepliesToClient+1 {
		t.Errorf("fast exchange counters diverge: %+v -> %+v", before, after)
	}
	slowFwd[0], slowFwd[1], fastFwd[0], fastFwd[1] = 0, 0, 0, 0
	if !bytes.Equal(slowFwd, fastFwd) {
		t.Errorf("forwarded wires diverge:\nslow %x\nfast %x", slowFwd, fastFwd)
	}
	if !bytes.Equal(slowReply, fastReply) {
		t.Errorf("fabricated replies diverge:\nslow %x\nfast %x", slowReply, fastReply)
	}
	if h.up.dst != ans {
		t.Errorf("forward went to %v, want %v", h.up.dst, ans)
	}
	if h.io.from != h.g.cfg.PublicAddr || h.io.to != src {
		t.Errorf("reply addressed %v -> %v, want %v -> %v", h.io.from, h.io.to, h.g.cfg.PublicAddr, src)
	}
}

// TestFastEntryMaterializes: a response the fast upstream path cannot handle
// (it carries answers) must fall back to the materializing path and produce
// the full message-6 fabrication from the wire-only pending entry.
func TestFastEntryMaterializes(t *testing.T) {
	h := newFastHarness(t, func(cfg *RemoteConfig) {
		cfg.Subnet = netip.MustParsePrefix("203.0.113.0/24")
	})
	src := mustAP("10.0.0.53:4444")
	query := h.nsQueryWire(t, src.Addr(), "www.foo.com", 0x77)

	// Warm the cache (slow exchange), then forward the same query fast.
	h.handle(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: append([]byte(nil), query...)})
	warm := append([]byte(nil), h.up.buf[:h.up.n]...)
	warm[2] |= 0x80
	h.s.handleUpstream(warm, h.g.cfg.ANSAddr)

	before := h.g.Stats.Load()
	h.handle(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: append([]byte(nil), query...)})
	if h.g.Stats.Load().FastPathHits != before.FastPathHits+1 {
		t.Fatal("query did not take the fast path")
	}
	fwd, err := dnswire.Unpack(h.up.buf[:h.up.n])
	if err != nil {
		t.Fatal(err)
	}
	if fwd.Questions[0].Name != dnswire.MustName("www.foo.com") {
		t.Fatalf("forwarded question %v", fwd.Questions[0])
	}

	// Answer with a real A record: the fast consume must bail and the
	// materializing path must fabricate the IP-cookie answer (§III-B.2).
	resp := fwd.Response()
	resp.Flags.AA = true
	resp.Answers = []dnswire.RR{dnswire.NewRR(fwd.Questions[0].Name, 300, &dnswire.AData{Addr: mustAddr("198.51.100.10")})}
	wire, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	h.s.handleUpstream(wire, h.g.cfg.ANSAddr)
	reply, err := dnswire.Unpack(h.io.buf[:h.io.n])
	if err != nil {
		t.Fatal(err)
	}
	if reply.ID != 0x77 || !reply.Flags.QR || !reply.Flags.AA || reply.Flags.RCode != dnswire.RCodeNoError {
		t.Fatalf("fabricated reply header %+v", reply)
	}
	if len(reply.Answers) != 1 || reply.Answers[0].Type != dnswire.TypeA {
		t.Fatalf("fabricated reply answers %+v", reply.Answers)
	}
	addr := reply.Answers[0].Data.(*dnswire.AData).Addr
	if !h.g.cfg.Subnet.Contains(addr) {
		t.Errorf("cookie address %v outside subnet %v", addr, h.g.cfg.Subnet)
	}
	q, err := dnswire.Unpack(query)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Questions[0] != q.Questions[0] {
		t.Errorf("reply question %+v, want client question %+v", reply.Questions[0], q.Questions[0])
	}
}

// TestFastPassthroughRelay: with detection inactive, a canonical-case query
// is relayed raw with only the transaction ID rewritten, and the response is
// relayed back raw under the client's original ID.
func TestFastPassthroughRelay(t *testing.T) {
	h := newFastHarness(t, func(cfg *RemoteConfig) {
		cfg.ActivationThreshold = 1e12 // never activates: all passthrough
	})
	src := mustAP("10.0.0.53:5555")
	query, err := dnswire.NewQuery(0xBEEF, dnswire.MustName("www.foo.com"), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), query...)
	h.handle(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: payload})
	st := h.g.Stats.Load()
	if st.Passthrough != 1 || st.ForwardedToANS != 1 {
		t.Fatalf("passthrough counters %+v", st)
	}
	fwd := append([]byte(nil), h.up.buf[:h.up.n]...)
	want := append([]byte(nil), query...)
	want[0], want[1] = fwd[0], fwd[1] // only the ID may differ
	if !bytes.Equal(fwd, want) {
		t.Errorf("relayed query not raw:\ngot  %x\nwant %x", fwd, want)
	}

	resp := append([]byte(nil), fwd...)
	resp[2] |= 0x80
	h.s.handleUpstream(resp, h.g.cfg.ANSAddr)
	reply := h.io.buf[:h.io.n]
	wantReply := append([]byte(nil), resp...)
	wantReply[0], wantReply[1] = 0xBE, 0xEF
	if !bytes.Equal(reply, wantReply) {
		t.Errorf("relayed response not raw:\ngot  %x\nwant %x", reply, wantReply)
	}
	if h.g.Stats.Load().RepliesToClient != 1 {
		t.Errorf("RepliesToClient = %d", h.g.Stats.Load().RepliesToClient)
	}
}

// TestFastPathWireAllocs pins the whole verified cycle — cookie query in,
// rewritten forward out, empty response in, fabricated reply out — at zero
// allocations against stub I/O, and the inactive passthrough relay likewise.
// The last case replaces the stub capture interface with a real SocketIO on
// a loopback socket, so the count includes the ingest read and the reply
// write a deployed guard makes.
func TestFastPathWireAllocs(t *testing.T) {
	h := newFastHarness(t, nil)
	src := mustAP("10.0.0.53:4444")
	query := h.nsQueryWire(t, src.Addr(), "www.foo.com", 0x42)
	ans := h.g.cfg.ANSAddr
	pkt := Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: query}

	// Warm: one slow exchange installs the verified entry and sizes the
	// entry-pool buffers.
	h.handle(pkt)
	resp := make([]byte, 0, dnswire.MaxUDPSize)
	consume := func() {
		resp = append(resp[:0], h.up.buf[:h.up.n]...)
		resp[2] |= 0x80
		resp[3] |= byte(dnswire.RCodeNXDomain)
		h.s.handleUpstream(resp, ans)
	}
	consume()

	if n := testing.AllocsPerRun(200, func() {
		h.handle(pkt)
		consume()
	}); n != 0 {
		t.Errorf("verified NS cycle allocates %.1f/op, want 0", n)
	}

	hp := newFastHarness(t, func(cfg *RemoteConfig) {
		cfg.ActivationThreshold = 1e12
	})
	plain, err := dnswire.NewQuery(0x43, dnswire.MustName("www.foo.com"), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	ppkt := Packet{Src: src, Dst: hp.g.cfg.PublicAddr, Payload: plain}
	hp.handle(ppkt)
	presp := make([]byte, 0, dnswire.MaxUDPSize)
	pconsume := func() {
		presp = append(presp[:0], hp.up.buf[:hp.up.n]...)
		presp[2] |= 0x80
		hp.s.handleUpstream(presp, hp.g.cfg.ANSAddr)
	}
	pconsume()
	if n := testing.AllocsPerRun(200, func() {
		hp.handle(ppkt)
		pconsume()
	}); n != 0 {
		t.Errorf("passthrough relay cycle allocates %.1f/op, want 0", n)
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
	hs := newFastHarness(t, func(cfg *RemoteConfig) {
		cfg.IO = sio
		cfg.PublicAddr = guardSock.LocalAddr()
	})
	squery := hs.nsQueryWire(t, client.LocalAddr().Addr(), "www.foo.com", 0x44)
	slab := make([]Packet, 8)
	replies := netapi.NewSlab(1, dnswire.MaxUDPSize)
	cycle := func() {
		if err := client.WriteTo(squery, guardSock.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		n, err := sio.ReadBatch(slab, time.Second)
		if n != 1 || err != nil {
			t.Fatalf("SocketIO.ReadBatch = (%d, %v)", n, err)
		}
		hs.handle(slab[0])
		resp = append(resp[:0], hs.up.buf[:hs.up.n]...)
		resp[2] |= 0x80
		resp[3] |= byte(dnswire.RCodeNXDomain)
		hs.s.handleUpstream(resp, hs.g.cfg.ANSAddr)
		if n, err := netapi.AsBatch(client).ReadBatch(replies, time.Second); n != 1 || err != nil {
			t.Fatalf("no reply on the client socket: (%d, %v)", n, err)
		}
	}
	cycle() // slow exchange: installs the verified entry, allocates the slab
	cycle()
	hits := hs.g.Stats.Load().FastPathHits
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("verified NS cycle through SocketIO on loopback allocates %.1f/op, want 0", n)
	}
	if got := hs.g.Stats.Load().FastPathHits - hits; got != 201 {
		t.Errorf("%d of 201 socket cycles took the fast path", got)
	}
}
