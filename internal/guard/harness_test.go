package guard

import (
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netsim"
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
	g  *Remote
	s  *remoteShard
	io *sinkIO
	up *sinkConn
}

func newShardHarness(t *testing.T, mutate func(*RemoteConfig)) *shardHarness {
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
	return &shardHarness{g: g, s: g.shards[0], io: io, up: up}
}

// handle runs one packet through the shard as the engine does: inside a
// batch bracket of one.
func (h *shardHarness) handle(pkt Packet) {
	h.s.BeginBatch(1)
	h.s.HandlePacket(pkt)
	h.s.EndBatch()
}

// nsQueryWire packs a query for the fabricated name carrying src's cookie.
func (h *shardHarness) nsQueryWire(t *testing.T, src netip.Addr, child string, id uint16) []byte {
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

// TestFastPathWireAllocs pins the whole verified cycle — cookie query in,
// rewritten forward out, empty response in, fabricated reply out — at zero
// allocations against stub I/O, and the inactive passthrough relay likewise.
// The last case replaces the stub capture interface with a real SocketIO on
// a loopback socket, so the count includes the ingest read and the reply
// write a deployed guard makes.
func TestFastPathWireAllocs(t *testing.T) {
	h := newShardHarness(t, nil)
	src := mustAP("10.0.0.53:4444")
	query := h.nsQueryWire(t, src.Addr(), "www.foo.com", 0x42)
	ans := h.g.cfg.ANSAddr
	pkt := Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: query}

	// Warm: the first exchange pays the MAC, installs the verified entry and
	// sizes the entry-pool buffers.
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

	hp := newShardHarness(t, func(cfg *RemoteConfig) {
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
	hs := newShardHarness(t, func(cfg *RemoteConfig) {
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
	cycle() // first exchange: installs the verified entry, allocates the slab
	cycle()
	hits := hs.g.Stats.Load().FastPathHits
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("verified NS cycle through SocketIO on loopback allocates %.1f/op, want 0", n)
	}
	if got := hs.g.Stats.Load().FastPathHits - hits; got != 201 {
		t.Errorf("%d of 201 socket cycles hit the verified cache", got)
	}
}
