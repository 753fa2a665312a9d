package guard

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
	"dnsguard/internal/realnet"
)

// chanIO is a channel-backed PacketIO: the real-scheduler test stand-in for
// one SO_REUSEPORT member socket feeding one direct shard. It records the
// destination of every datagram written through it.
type chanIO struct {
	ch     chan Packet
	closed chan struct{}
	once   sync.Once
	mu     sync.Mutex
	sent   []netip.AddrPort
}

func newChanIO() *chanIO {
	return &chanIO{ch: make(chan Packet, 16), closed: make(chan struct{})}
}

func (c *chanIO) Read(timeout time.Duration) (Packet, error) {
	select {
	case p := <-c.ch:
		return p, nil
	case <-c.closed:
		return Packet{}, netapi.ErrClosed
	}
}

func (c *chanIO) WriteFromTo(src, dst netip.AddrPort, payload []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sent = append(c.sent, dst)
	return nil
}

func (c *chanIO) sentTo() []netip.AddrPort {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]netip.AddrPort(nil), c.sent...)
}

func (c *chanIO) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// echoANS is a stand-in ANS on a loopback socket: it answers every query
// with the query itself, QR set. Closed with the test.
func echoANS(t *testing.T, env *realnet.Env) netapi.UDPConn {
	t.Helper()
	conn, err := env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		for {
			b, src, err := conn.ReadFrom(netapi.NoTimeout)
			if err != nil {
				return
			}
			if len(b) > 2 {
				b[2] |= 0x80
				_ = conn.WriteTo(b, src)
			}
		}
	}()
	return conn
}

// TestAffineGuardShardExplicitFastPath pins where a verified source is
// checked and charged: on a direct engine a source's owning shard is the
// delivering socket's, which can disagree with the engine's source hash. The
// handler runs the MAC and charges its own shard's Rate-Limiter2 — charging
// by source hash would put the bucket where the owning worker never reads,
// silently lifting the per-source limit in exactly the deployment
// (per-shard SO_REUSEPORT sockets) the sharded dataplane exists for.
func TestAffineGuardShardExplicitFastPath(t *testing.T) {
	env := realnet.New()
	ansConn := echoANS(t, env)

	ios := []*chanIO{newChanIO(), newChanIO()}
	g, err := NewRemote(RemoteConfig{
		Env:        env,
		IOs:        []PacketIO{ios[0], ios[1]},
		Shards:     2,
		PublicAddr: mustAP("192.0.2.1:53"),
		ANSAddr:    ansConn.LocalAddr(),
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
	defer g.Close()
	eng := g.Engine()
	if !eng.Direct() {
		t.Fatal("two sockets for two shards must be read directly")
	}

	// A source whose hash shard disagrees with its delivering socket.
	src := netip.AddrPortFrom(netip.MustParseAddr("203.0.113.77"), 5353)
	hashShard := eng.ShardOf(src.Addr())
	socket := 1 - hashShard

	fab, err := FabricateNSName(cookie.NSCodec{}, g.cfg.Auth.Mint(src.Addr()), dnswire.MustName("www.foo.com"))
	if err != nil {
		t.Fatal(err)
	}
	query := func(id uint16) Packet {
		wire, err := dnswire.NewQuery(id, fab, dnswire.TypeA).PackUDP(512)
		if err != nil {
			t.Fatal(err)
		}
		return Packet{Src: src, Dst: mustAP("192.0.2.1:53"), Payload: wire}
	}
	waitStat := func(name string, f *uint64, want uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for atomic.LoadUint64(f) < want {
			if time.Now().After(deadline) {
				t.Fatalf("%s = %d, want %d (stats %+v)", name, atomic.LoadUint64(f), want, g.Stats.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Each query is forwarded after its charge, and the worker then leaves
	// the limiter alone until the next one.
	ios[socket].ch <- query(1)
	waitStat("ForwardedToANS", &g.Stats.ForwardedToANS, 1)

	// The bucket must live in the delivering shard's limiter, and only there
	// — presence in the hash shard would mean the handler charged through
	// the source-hashing legacy path.
	if n := g.shards[socket].rl2.Sources(); n != 1 {
		t.Errorf("owning shard %d's Rate-Limiter2 holds %d sources, want 1", socket, n)
	}
	if n := g.shards[hashShard].rl2.Sources(); n != 0 {
		t.Errorf("the source leaked into hash shard %d's Rate-Limiter2", hashShard)
	}

	// The second query over the same socket pays its own MAC there.
	ios[socket].ch <- query(2)
	waitStat("ForwardedToANS", &g.Stats.ForwardedToANS, 2)
	if n := atomic.LoadUint64(&g.shards[socket].work.Checks); n != 2 {
		t.Errorf("owning shard %d ran %d MACs, want 2", socket, n)
	}
	if n := atomic.LoadUint64(&g.shards[hashShard].work.Checks); n != 0 {
		t.Errorf("hash shard %d ran %d MACs, want 0", hashShard, n)
	}
}

// TestDirectShardRepliesThroughItsSocket pins where a direct shard's replies
// leave: through the interface the shard reads. Both kinds of reply do — the
// grant the worker flushes at the end of its batch, and the answer the
// upstream loop relays from the ANS. Interface 0 sees nothing of a source
// read on interface 1.
func TestDirectShardRepliesThroughItsSocket(t *testing.T) {
	env := realnet.New()
	ansConn := echoANS(t, env)
	ios := []*chanIO{newChanIO(), newChanIO()}
	g, err := NewRemote(RemoteConfig{
		Env:        env,
		IOs:        []PacketIO{ios[0], ios[1]},
		Shards:     2,
		PublicAddr: mustAP("192.0.2.1:53"),
		ANSAddr:    ansConn.LocalAddr(),
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
	defer g.Close()

	src := netip.AddrPortFrom(netip.MustParseAddr("203.0.113.9"), 5353)
	fab, err := FabricateNSName(cookie.NSCodec{}, g.cfg.Auth.Mint(src.Addr()), dnswire.MustName("www.foo.com"))
	if err != nil {
		t.Fatal(err)
	}
	awaitReplies := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for len(ios[0].sentTo())+len(ios[1].sentTo()) < n {
			if time.Now().After(deadline) {
				t.Fatalf("%d replies, want %d (stats %+v)", len(ios[0].sentTo())+len(ios[1].sentTo()), n, g.Stats.Load())
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i, name := range []dnswire.Name{dnswire.MustName("www.foo.com"), fab} {
		wire, err := dnswire.NewQuery(uint16(i+1), name, dnswire.TypeA).PackUDP(512)
		if err != nil {
			t.Fatal(err)
		}
		ios[1].ch <- Packet{Src: src, Dst: mustAP("192.0.2.1:53"), Payload: wire}
		awaitReplies(i + 1)
	}
	if st := g.Stats.Load(); st.NewcomerGrants != 1 || st.ForwardedToANS != 1 || st.RepliesToClient != 2 {
		t.Fatalf("want one grant and one relayed answer, stats %+v", st)
	}
	if got := ios[0].sentTo(); len(got) != 0 {
		t.Errorf("interface 0 sent %v for a source read on interface 1", got)
	}
	if got := ios[1].sentTo(); len(got) != 2 || got[0] != src || got[1] != src {
		t.Errorf("interface 1 sent %v, want the grant and the answer to %v", got, src)
	}
}

// TestFanOutGuardOverOneSocket is the arrangement a multi-shard guard gets
// where sockets cannot be steered: one real socket, two shards. Its one
// reader must hash every source onto one shard and keep it there, and every
// query must still be answered.
func TestFanOutGuardOverOneSocket(t *testing.T) {
	env := realnet.New()
	ansConn := echoANS(t, env)
	sock, err := env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	seen := make(map[netip.Addr]map[int]bool)
	g, err := NewRemote(RemoteConfig{
		Env:                 env,
		IOs:                 []PacketIO{&SocketIO{Conn: sock}},
		Shards:              2,
		PublicAddr:          sock.LocalAddr(),
		ANSAddr:             ansConn.LocalAddr(),
		Zone:                dnswire.MustName("foo.com"),
		Auth:                testAuth(),
		ActivationThreshold: 1e6, // never active: every query is relayed
		ShardHashSeed:       7,   // 127.0.0.1–8 land on both shards
		observer: func(shard int, pkt Packet) {
			mu.Lock()
			defer mu.Unlock()
			if seen[pkt.Src.Addr()] == nil {
				seen[pkt.Src.Addr()] = make(map[int]bool)
			}
			seen[pkt.Src.Addr()][shard] = true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Engine().Direct() {
		t.Fatal("one socket for two shards must fan out")
	}

	wire, err := dnswire.NewQuery(1, dnswire.MustName("www.foo.com"), dnswire.TypeA).PackUDP(512)
	if err != nil {
		t.Fatal(err)
	}
	covered := make(map[int]bool)
	for i := 1; i <= 8; i++ {
		addr := netip.AddrFrom4([4]byte{127, 0, 0, byte(i)})
		c, err := env.ListenUDP(netip.AddrPortFrom(addr, 0))
		if err != nil {
			continue // a host whose loopback is 127.0.0.1 alone
		}
		defer c.Close()
		covered[g.Engine().ShardOf(addr)] = true
		for q := 0; q < 3; q++ {
			if err := c.WriteTo(wire, sock.LocalAddr()); err != nil {
				t.Fatal(err)
			}
			b, _, err := c.ReadFrom(5 * time.Second)
			if err != nil || len(b) < 3 || b[2]&0x80 == 0 {
				t.Fatalf("source %v query %d: answer %x, err %v", addr, q, b, err)
			}
		}
	}
	if len(covered) < 2 {
		t.Skip("this host binds too few loopback addresses to reach both shards")
	}
	mu.Lock()
	defer mu.Unlock()
	for addr, shards := range seen {
		if len(shards) != 1 || !shards[g.Engine().ShardOf(addr)] {
			t.Errorf("source %v seen by shards %v, want only %d", addr, shards, g.Engine().ShardOf(addr))
		}
	}
	if len(seen) < 2 {
		t.Errorf("observer saw %d sources", len(seen))
	}
}
