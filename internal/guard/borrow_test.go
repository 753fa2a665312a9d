package guard

import (
	"bytes"
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	runtimemetrics "runtime/metrics"
	"sort"
	"sync"
	"testing"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/engine"
	"dnsguard/internal/netapi"
	"dnsguard/internal/ratelimit"
	"dnsguard/internal/realnet"
)

// The borrow contract (engine.BatchReader, netapi.Datagram): a payload a
// read returns is valid until the next read on the same interface. The tests
// here make "next read" as hostile as the contract allows — every slot of
// the previous read is overwritten before the next one fills any — and
// require the guard to behave exactly as it does when nothing is overwritten.

const poisonByte = 0xA5

// poisonIO wraps a capture interface and scribbles over everything the
// previous read lent out before it reads again.
type poisonIO struct {
	PacketIO
	lent [][]byte
}

func (p *poisonIO) ReadBatch(pkts []Packet, timeout time.Duration) (int, error) {
	for _, b := range p.lent {
		b = b[:cap(b)]
		for i := range b {
			b[i] = poisonByte
		}
	}
	p.lent = p.lent[:0]
	n, err := p.PacketIO.(engine.BatchReader).ReadBatch(pkts, timeout)
	for i := 0; i < n; i++ {
		p.lent = append(p.lent, pkts[i].Payload)
	}
	return n, err
}

func (p *poisonIO) Read(timeout time.Duration) (Packet, error) {
	var one [1]Packet
	_, err := p.ReadBatch(one[:], timeout)
	return one[0], err
}

// The write side of the contract: a reply is the guard's — the egress slab's,
// a scratch buffer's — only until the write returns, so after every flush
// the bytes just written are scribbled over too. A reply the guard queued
// from memory it reuses before the flush, or one it reads again after, shows
// up as a 0xA5 run on the wire.
func (p *poisonIO) WriteBatch(pkts []Packet) error {
	err := p.PacketIO.(engine.BatchWriter).WriteBatch(pkts)
	for _, pkt := range pkts {
		scribble(pkt.Payload)
	}
	return err
}

func (p *poisonIO) WriteFromTo(from, to netip.AddrPort, payload []byte) error {
	err := p.PacketIO.WriteFromTo(from, to, payload)
	scribble(payload)
	return err
}

func scribble(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}

type memDgram struct {
	b    []byte
	addr netip.AddrPort
}

// memConn is an in-memory datagram socket with netapi.BatchConn slab
// semantics: reads store queued datagrams in the caller's slots
// (Datagram.Store: head or spill, cut to the slot's capacity), writes are
// recorded. With poison set it overwrites the whole slab it is handed, heads
// and spills, before filling it, as a kernel reusing the slots would. answer,
// when set, plays the peer: called on every write, what it returns is queued
// for reading.
type memConn struct {
	addr   netip.AddrPort
	poison bool
	answer func(b []byte) []byte

	mu     sync.Mutex
	cond   *sync.Cond
	in     []memDgram
	parked bool // a reader found nothing queued and is waiting
	out    []memDgram
	closed bool
}

func newMemConn(addr string) *memConn {
	c := &memConn{addr: mustAP(addr)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// push queues datagrams for the next read; a parked reader takes them all in
// one ReadBatch (up to its slab size).
func (c *memConn) push(ds ...memDgram) {
	c.mu.Lock()
	c.in = append(c.in, ds...)
	c.mu.Unlock()
	c.cond.Broadcast()
}

// waitParked blocks until the reader has consumed everything queued and come
// back for more: whatever the last read returned is fully handled.
func (c *memConn) waitParked(t *testing.T) {
	t.Helper()
	deadline := time.AfterFunc(5*time.Second, c.cond.Broadcast)
	defer deadline.Stop()
	start := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for !(c.parked && len(c.in) == 0) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("reader of %v never came back for more (%d queued)", c.addr, len(c.in))
		}
		c.cond.Wait()
	}
}

// takeOut returns and clears what was written since the last call.
func (c *memConn) takeOut() []memDgram {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.out
	c.out = nil
	return out
}

func (c *memConn) ReadBatch(msgs []netapi.Datagram, _ time.Duration) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.in) == 0 && !c.closed {
		c.parked = true
		c.cond.Broadcast()
		c.cond.Wait()
	}
	c.parked = false
	if c.closed {
		return 0, netapi.ErrClosed
	}
	if c.poison {
		for i := range msgs {
			for _, b := range [][]byte{msgs[i].Buf[:cap(msgs[i].Buf)], msgs[i].Spill[:cap(msgs[i].Spill)]} {
				for k := range b {
					b[k] = poisonByte
				}
			}
		}
	}
	n := 0
	for n < len(msgs) && len(c.in) > 0 {
		d := c.in[0]
		c.in = c.in[1:]
		msgs[n].Store(d.b, d.addr)
		n++
	}
	return n, nil
}

func (c *memConn) ReadFrom(timeout time.Duration) ([]byte, netip.AddrPort, error) {
	one := make([]netapi.Datagram, 1)
	one[0].Buf = make([]byte, 0, dnswire.MaxDatagram+1)
	if _, err := c.ReadBatch(one, timeout); err != nil {
		return nil, netip.AddrPort{}, err
	}
	return one[0].Payload(), one[0].Addr, nil
}

func (c *memConn) WriteTo(b []byte, to netip.AddrPort) error {
	d := memDgram{append([]byte(nil), b...), to}
	c.mu.Lock()
	c.out = append(c.out, d)
	if c.answer != nil {
		if resp := c.answer(d.b); resp != nil {
			c.in = append(c.in, memDgram{resp, to})
		}
	}
	c.mu.Unlock()
	c.cond.Broadcast()
	return nil
}

func (c *memConn) WriteBatch(msgs []netapi.Datagram) (int, error) {
	for i := range msgs {
		_ = c.WriteTo(msgs[i].Payload(), msgs[i].Addr)
	}
	return len(msgs), nil
}

func (c *memConn) LocalAddr() netip.AddrPort { return c.addr }

func (c *memConn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.cond.Broadcast()
	return nil
}

// memEnv is the real clock and real goroutines with a memConn where the
// guard would bind its upstream socket.
type memEnv struct {
	*realnet.Env
	up *memConn
}

func (e memEnv) ListenUDP(netip.AddrPort) (netapi.UDPConn, error) { return e.up, nil }

// ansAnswer plays the ANS behind the guard. The first label of the question
// picks the behaviour: "mute…" never answers (the entry stays pending),
// "ref…" gets a referral with glue and anything else an empty NXDOMAIN (both
// answered from spans: the entry's question, the response's addresses).
func ansAnswer(b []byte) []byte {
	q, err := dnswire.Unpack(b)
	if err != nil || len(q.Questions) == 0 {
		return nil
	}
	name := q.Questions[0].Name
	resp := q.Response()
	switch first := name.FirstLabel(); {
	case len(first) >= 4 && first[:4] == "mute":
		return nil
	case len(first) >= 3 && first[:3] == "ref":
		ns := dnswire.MustName("ns1.child.test")
		resp.Authority = []dnswire.RR{dnswire.NewRR(name, 300, &dnswire.NSData{Host: ns})}
		resp.Additional = []dnswire.RR{dnswire.NewRR(ns, 300, &dnswire.AData{Addr: mustAddr("198.51.100.7")})}
	default:
		resp.Flags.RCode = dnswire.RCodeNXDomain
	}
	wire, err := resp.Pack()
	if err != nil {
		return nil
	}
	return wire
}

// borrowOutcome is everything a run is compared on.
type borrowOutcome struct {
	egress  [][]string // per step: datagrams written to clients, sorted
	forward [][]string // per step: datagrams written upstream, transaction ID zeroed, sorted
	stats   RemoteStats
	pending []string // NAT-table entries without their transaction IDs, sorted
}

func sortedDgrams(ds []memDgram, zeroID bool) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		b := d.b
		if zeroID && len(b) >= 2 {
			b = append([]byte{0, 0}, b[2:]...)
		}
		out[i] = fmt.Sprintf("%v %x", d.addr, b)
	}
	sort.Strings(out)
	return out
}

// runBorrowScript boots a one-shard guard over a real SocketIO on an
// in-memory socket and feeds it the steps one read at a time, waiting after
// each for the worker and the upstream loop to come back for more.
func runBorrowScript(t *testing.T, poison bool, threshold float64, steps [][]memDgram) borrowOutcome {
	t.Helper()
	pub := newMemConn("192.0.2.1:53")
	up := newMemConn("192.0.2.1:40000")
	up.poison = poison
	up.answer = ansAnswer
	var io PacketIO = &SocketIO{Conn: pub}
	if poison {
		io = &poisonIO{PacketIO: io}
	}
	g, err := NewRemote(RemoteConfig{
		Env:                 memEnv{Env: realnet.New(), up: up},
		IOs:                 []PacketIO{io},
		Batch:               8,
		PublicAddr:          pub.addr,
		ANSAddr:             mustAP("10.99.0.2:53"),
		Zone:                dnswire.MustName("foo.com"),
		Fallback:            SchemeDNS,
		Auth:                testAuth(),
		ActivationThreshold: threshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	var o borrowOutcome
	for _, step := range steps {
		pub.waitParked(t)
		pub.push(step...)
		pub.waitParked(t) // the batch is dispatched and its replies flushed,
		up.waitParked(t)  // and every answer it drew has been relayed
		if poison {
			s := g.shards[0]
			scribblePool(s) // a recycled pending entry's spans are nobody's,
			// nor the scratch a forward or a relayed reply was re-encoded into
			// once its write has returned, every byte of it.
			scribble(s.wireBuf[:cap(s.wireBuf)])
			scribble(s.upBuf[:cap(s.upBuf)])
		}
		o.egress = append(o.egress, sortedDgrams(pub.takeOut(), false))
		o.forward = append(o.forward, sortedDgrams(up.takeOut(), true))
	}
	o.stats = g.Stats.Load()
	s := g.shards[0]
	s.inFlight(func(_ uint16, e *pendEntry) {
		o.pending = append(o.pending, fmt.Sprintf("kind=%d client=%v from=%v id=%d qwire=%x fwdWire=%x up=%v",
			e.kind, e.clientSrc, e.replyFrom, e.origID, e.qwire, e.fwdWire, e.upstream))
	})
	sort.Strings(o.pending)
	return o
}

// TestBorrowedPayloadPoison drives every handler shape — newcomer grant,
// first NS-cookie verification, verified repeat, the modified scheme's TXT
// cookie request and cookie query, bare and between OPTs, forged cookies,
// malformed and oversize datagrams, a referral relayed whole to a verified
// client and by the inactive guard, and that guard's relay of queries, OPT and
// mixed case and all — through a guard whose
// ingress and upstream slabs are overwritten before every read, and requires
// the bytes it emits, its counters and its NAT table to equal those of a
// twin nobody scribbles on. A handler or pending entry that keeps a slice
// of a lent payload shows up as a 0xA5 run in a forward or a reply; so does
// one that keeps a span of a pending entry it has returned to the pool,
// which is overwritten between steps too, as are the shard's scratch buffers,
// and one that queues a reply in the egress slab and reuses the bytes before
// the flush: every reply — a relayed one is re-encoded into scratch — is
// scribbled the moment it is written.
func TestBorrowedPayloadPoison(t *testing.T) {
	auth := testAuth()
	zone := "foo.com"
	src := func(i int) netip.AddrPort {
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 1, 0, byte(i)}), uint16(4000+i))
	}
	pack := func(m *dnswire.Message) []byte { return mustPack(t, m) }
	plain := func(i int, name string) memDgram {
		return memDgram{pack(dnswire.NewQuery(uint16(0x100+i), dnswire.MustName(name+"."+zone), dnswire.TypeA)), src(i)}
	}
	nsCookie := func(i int, child string, c cookie.Cookie) memDgram {
		t.Helper()
		fab, err := FabricateNSName(cookie.NSCodec{}, c, dnswire.MustName(child+"."+zone))
		if err != nil {
			t.Fatal(err)
		}
		return memDgram{pack(dnswire.NewQuery(uint16(0x200+i), fab, dnswire.TypeA)), src(i)}
	}
	txtCookie := func(i int, name string, c cookie.Cookie) memDgram {
		m := dnswire.NewQuery(uint16(0x300+i), dnswire.MustName(name+"."+zone), dnswire.TypeA)
		AttachCookie(m, c, 0)
		return memDgram{pack(m), src(i)}
	}
	// The same between two OPTs, as the record walk finds it: a zero cookie
	// draws message 3 from the egress slab, a valid one a forward spliced from
	// the ingest slot.
	txtOPTs := func(i int, name string, c cookie.Cookie) memDgram {
		return memDgram{withRecords(plain(i, name).b, 0, 0, 3, optRR, txtRR(c), optOptions), src(i)}
	}
	upper := func(d memDgram) memDgram { return memDgram{upperName(append([]byte(nil), d.b...)), d.addr} }
	garbage := memDgram{[]byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3}, src(90)}
	response := plain(91, "www")
	response.b[2] |= 0x80 // QR set: not a query
	oversize := plain(92, "www")
	oversize.b = append(oversize.b, make([]byte, dnswire.MaxDatagram+1-len(oversize.b))...)
	// A well-formed query over netapi.SlabHead bytes is served from its
	// slot's spill.
	long := memDgram{padTo(t, dnswire.NewQuery(0x193, dnswire.MustName("www."+zone), dnswire.TypeA), 700), src(93)}
	var forged cookie.Cookie
	for i := range forged {
		forged[i] = byte(0x40 + i)
	}
	mint := func(i int) cookie.Cookie { return auth.Mint(src(i).Addr()) }

	active := [][]memDgram{
		// Newcomers, with the unparseable in between so every slot of the
		// slab holds a different shape.
		{plain(1, "www"), garbage, txtOPTs(8, "www", cookie.Cookie{}), plain(2, "ref"), oversize, plain(3, "mute"), response,
			txtCookie(4, "www", cookie.Cookie{}), long},
		// First verification of each credential; forged ones beside them.
		{nsCookie(1, "www", mint(1)), nsCookie(5, "www", forged), nsCookie(2, "ref", mint(2)), txtCookie(4, "www", mint(4)),
			txtCookie(6, "www", forged), nsCookie(3, "mute", mint(3)), upper(txtOPTs(8, "www", mint(8)))},
		// Verified repeats: cache hits, mixed case included, a referral, some
		// left pending, the TXT repeats.
		{nsCookie(1, "www", mint(1)), upper(nsCookie(1, "www", mint(1))), nsCookie(2, "ref", mint(2)), nsCookie(3, "mute", mint(3)),
			txtCookie(4, "www", mint(4)), nsCookie(1, "mute", mint(1)), txtOPTs(8, "mute", mint(8)), upper(txtCookie(4, "mute", mint(4))),
			txtCookie(4, "ref", mint(4))},
		{nsCookie(2, "www", mint(2)), plain(7, "www")},
	}
	withOPT := func(d memDgram) memDgram { return memDgram{withRecords(d.b, 0, 0, 1, optRR), d.addr} }
	relay := [][]memDgram{
		{plain(1, "www"), upper(plain(2, "www")), garbage, plain(3, "mute"), oversize, plain(4, "ref"), withOPT(plain(6, "mute")), long},
		{plain(1, "www"), response, plain(5, "mute"), plain(2, "ref"), withOPT(plain(6, "www"))},
	}
	for _, tc := range []struct {
		name      string
		threshold float64
		steps     [][]memDgram
	}{
		{"active", 0, active},
		{"passthrough", 1e12, relay},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := runBorrowScript(t, false, tc.threshold, tc.steps)
			got := runBorrowScript(t, true, tc.threshold, tc.steps)
			for i := range tc.steps {
				if fmt.Sprint(got.egress[i]) != fmt.Sprint(want.egress[i]) {
					t.Errorf("step %d: replies differ under poison:\ngot  %v\nwant %v", i, got.egress[i], want.egress[i])
				}
				if fmt.Sprint(got.forward[i]) != fmt.Sprint(want.forward[i]) {
					t.Errorf("step %d: forwards differ under poison:\ngot  %v\nwant %v", i, got.forward[i], want.forward[i])
				}
			}
			if got.stats != want.stats {
				t.Errorf("counters differ under poison:\ngot  %+v\nwant %+v", got.stats, want.stats)
			}
			if fmt.Sprint(got.pending) != fmt.Sprint(want.pending) {
				t.Errorf("NAT table differs under poison:\ngot  %v\nwant %v", got.pending, want.pending)
			}

			// The script must have reached the shapes it names, or the
			// comparison above proves nothing.
			st := want.stats
			if st.Malformed == 0 || st.ForwardedToANS == 0 || st.RepliesToClient == 0 || len(want.pending) == 0 {
				t.Errorf("script too tame: %+v, %d pending", st, len(want.pending))
			}
			if tc.threshold == 0 {
				if st.NewcomerGrants < 4 || st.CookieValid < 8 || st.CookieInvalid != 2 {
					t.Errorf("active script missed a shape: %+v", st)
				}
			} else if st.Passthrough < 7 {
				t.Errorf("relay script relayed %d", st.Passthrough)
			}
		})
	}
}

// padTo packs m as a well-formed message of exactly size bytes, with as
// many TXT records added to its additional section as that takes.
func padTo(t *testing.T, m *dnswire.Message, size int) []byte {
	t.Helper()
	pack := func() []byte {
		wire, err := m.Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	pad := func(n int) {
		m.Additional = append(m.Additional, dnswire.NewRR(dnswire.MustName("pad.test"), 0,
			&dnswire.TXTData{Strings: [][]byte{bytes.Repeat([]byte{'x'}, n)}}))
	}
	pad(0) // the first record spells the owner name out; later ones point at it
	first := len(pack())
	pad(0)
	perRecord := len(pack()) - first
	for {
		missing := size - len(pack())
		if missing == 0 {
			break
		}
		// Full records while two more still fit, then one that lands
		// exactly (a record's fixed cost is a few tens of bytes).
		if n := missing - perRecord; missing >= 2*perRecord+200 {
			pad(200)
		} else if n >= 0 && n <= 255 {
			pad(n)
		} else {
			t.Fatalf("cannot land on %d bytes: %d missing", size, missing)
		}
	}
	wire := pack()
	if _, err := dnswire.Unpack(wire); err != nil {
		t.Fatalf("the padded message must be well-formed: %v", err)
	}
	return wire
}

// TestOversizeIngressDropped: a datagram over dnswire.MaxDatagram is counted
// malformed before any parse — this one would parse and be served if it were
// looked at, as its twin one byte shorter is — and nothing reaches the ANS,
// active guard or not.
func TestOversizeIngressDropped(t *testing.T) {
	query := func(size int) []byte {
		return padTo(t, dnswire.NewQuery(0x99, dnswire.MustName("www.foo.com"), dnswire.TypeA), size)
	}
	over, atLimit := query(dnswire.MaxDatagram+1), query(dnswire.MaxDatagram)
	for _, threshold := range []float64{0, 1e12} {
		h := newShardHarness(t, func(cfg *RemoteConfig) { cfg.ActivationThreshold = threshold })
		src := mustAP("10.0.0.53:4444")
		h.handle(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: over})
		st := h.g.Stats.Load()
		if want := (RemoteStats{Received: 1, Malformed: 1}); st != want {
			t.Errorf("threshold %g: oversize datagram: stats %+v, want %+v", threshold, st, want)
		}
		if h.up.wrote != 0 || h.io.wrote != 0 || h.g.PendingEntries() != 0 {
			t.Errorf("threshold %g: an oversize datagram drew %d forwards, %d replies", threshold, h.up.wrote, h.io.wrote)
		}
		h.handle(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: atLimit})
		st = h.g.Stats.Load()
		if st.Malformed != 1 || st.Passthrough+st.NewcomerGrants != 1 || h.up.wrote+h.io.wrote != 1 {
			t.Errorf("threshold %g: a %d-byte datagram is inside the limit and must be served: %+v", threshold, dnswire.MaxDatagram, st)
		}
	}
}

// TestOversizeUpstreamDropped: an upstream datagram over the limit — even a
// well-formed answer to the pending question from the right address — is
// dropped as malformed and leaves the pending entry for an answer that fits.
func TestOversizeUpstreamDropped(t *testing.T) {
	h := newShardHarness(t, func(cfg *RemoteConfig) { cfg.ActivationThreshold = 1e12 })
	src := mustAP("10.0.0.53:5555")
	query, err := dnswire.NewQuery(0xBEEF, dnswire.MustName("www.foo.com"), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	h.handle(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: query})
	if h.g.PendingEntries() != 1 {
		t.Fatalf("pending = %d after one relay", h.g.PendingEntries())
	}
	fwd, err := dnswire.Unpack(h.up.buf[:h.up.n])
	if err != nil {
		t.Fatal(err)
	}
	want := h.g.Stats.Load()
	want.UpstreamMalformed++
	h.s.handleUpstream(padTo(t, fwd.Response(), dnswire.MaxDatagram+1), h.g.cfg.ANSAddr)
	if h.g.PendingEntries() != 1 || h.io.wrote != 0 || h.g.Stats.Load() != want {
		t.Fatalf("oversize upstream datagram was acted on: pending %d, replies %d, stats %+v",
			h.g.PendingEntries(), h.io.wrote, h.g.Stats.Load())
	}
	h.s.handleUpstream(padTo(t, fwd.Response(), dnswire.MaxDatagram), h.g.cfg.ANSAddr)
	if h.g.PendingEntries() != 0 || h.io.wrote != 1 {
		t.Errorf("answer of %d bytes after the oversize one: pending %d, replies %d", dnswire.MaxDatagram, h.g.PendingEntries(), h.io.wrote)
	}
}

// TestRemoteFootprint bounds what running a one-shard, Batch-32 guard on
// real loopback sockets adds to the heap once both of its packet slabs
// exist: 2 × 32 slots of a 512-byte head and a 4097-byte spill are 288 KiB
// allocated, where 64 KiB slots were 4 MiB. Of that, short datagrams keep
// only the heads resident, 32 KiB (TestStateBudget pins the layout). The
// baseline is the constructed guard: its source tables are allocated whole at
// construction (TestSourceStateFootprint bounds them) and are not packet
// memory.
func TestRemoteFootprint(t *testing.T) {
	env := realnet.New()
	lo := netip.MustParseAddrPort("127.0.0.1:0")
	listen := func() netapi.UDPConn {
		c, err := env.ListenUDP(lo)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ansConn, client, guardSock := listen(), listen(), listen()
	defer ansConn.Close()
	defer client.Close()
	go func() {
		for {
			b, from, err := ansConn.ReadFrom(netapi.NoTimeout)
			if err != nil {
				return
			}
			b[2] |= 0x80
			_ = ansConn.WriteTo(b, from)
		}
	}()
	query, err := dnswire.NewQuery(7, dnswire.MustName("www.foo.com"), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}

	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	g, err := NewRemote(RemoteConfig{
		Env:                 env,
		IOs:                 []PacketIO{&SocketIO{Conn: guardSock}},
		Batch:               32,
		PublicAddr:          guardSock.LocalAddr(),
		ANSAddr:             ansConn.LocalAddr(),
		Zone:                dnswire.MustName("foo.com"),
		Auth:                testAuth(),
		ActivationThreshold: 1e12, // relay: one packet each way through both slabs
	})
	if err != nil {
		t.Fatal(err)
	}
	before := heap()
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := client.WriteTo(query, guardSock.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := client.ReadFrom(5 * time.Second); err != nil {
		t.Fatalf("no reply through the guard: %v (stats %+v)", err, g.Stats.Load())
	}
	if st := g.Stats.Load(); st.ForwardedToANS != 1 || st.RepliesToClient != 1 {
		t.Fatalf("the packet did not cross both slabs: %+v", st)
	}
	after := heap()
	const limit = 1 << 20
	if grown := int64(after) - int64(before); grown > limit {
		t.Errorf("running the guard added %d KiB of heap, want <= %d KiB", grown>>10, limit>>10)
	} else {
		t.Logf("running the guard added %d KiB of heap", grown>>10)
	}
	runtime.KeepAlive(g)
}

// heapAllocated reports the bytes the process has ever allocated on the heap.
// A small object counts only once the span it came from leaves its P's cache,
// so the count lags: the collection first flushes every cache. Without it a
// collection finishing inside a measurement would charge the measurement with
// whatever the set-up before it allocated.
func heapAllocated() uint64 {
	runtime.GC()
	s := []runtimemetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	runtimemetrics.Read(s)
	return s[0].Value.Uint64()
}

// TestLegitTrafficHeapFlat: legitimate traffic makes no garbage. 20 000
// newcomer sessions — grant, cookie query built from the grant as a resolver
// would, referral with glue, message 6 — then 200 000 verified cycles from
// 2048 sources that verified before, through one guard, and the bytes the
// process has ever allocated grow by less than one per packet: nothing a
// collector would have to come for, however long the guard runs.
func TestLegitTrafficHeapFlat(t *testing.T) {
	sessions, cycles := 20000, 200000
	if testing.Short() {
		sessions, cycles = 5000, 20000
	}
	h := newShardHarness(t, func(cfg *RemoteConfig) {
		cfg.Zone = dnswire.MustName("foo.com")
		// The harness clock stands still: no limiter may run dry.
		cfg.RL1 = ratelimit.DefaultLimiter1Config()
		cfg.RL1.GlobalRate, cfg.RL1.GlobalBurst = 1e12, 1e12
		cfg.RL2 = ratelimit.Limiter2Config{PerSourceRate: 1, PerSourceBurst: 1e9, TrackedSources: 8192}
	})
	plain, err := dnswire.NewQuery(1, dnswire.MustName("c5.foo.com"), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	src := func(i int) netip.AddrPort {
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 5353)
	}
	// A session's cookie query asks for the NS target of its grant: the
	// first label as granted, then the zone. The last 2048 are kept, each in
	// its own buffer, to be sent again.
	const repeaters = 2048
	queries := make([][]byte, repeaters)
	for i := range queries {
		queries[i] = make([]byte, 0, 64)
	}
	resp := make([]byte, 0, dnswire.MaxUDPSize)
	cycle := func(i int) {
		h.handle(Packet{Src: src(i), Dst: h.g.cfg.PublicAddr, Payload: queries[i%repeaters]})
		resp = appendReferral(resp, h.up.buf[:h.up.n])
		h.s.handleUpstream(resp, h.g.cfg.ANSAddr)
	}
	session := func(i int) {
		h.handle(Packet{Src: src(i), Dst: h.g.cfg.PublicAddr, Payload: plain})
		label := h.io.buf[len(plain)+12:]
		q := append(queries[i%repeaters][:0], 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
		q = append(q, label[:1+int(label[0])]...)
		queries[i%repeaters] = append(q, "\x03foo\x03com\x00\x00\x01\x00\x01"...)
		cycle(i)
	}
	session(0) // sizes the entry pool and the reply queue
	before := heapAllocated()
	for i := 1; i <= sessions; i++ {
		session(i)
	}
	for i := 0; i < cycles; i++ {
		cycle(sessions - i%repeaters)
	}
	grown := heapAllocated() - before
	packets := uint64(3*sessions + 2*cycles)
	st := h.g.Stats.Load()
	if n := uint64(sessions + 1); st.NewcomerGrants != n || st.CookieValid != n+uint64(cycles) ||
		st.RepliesToClient != 2*n+uint64(cycles) {
		t.Fatalf("the traffic did not run to completion: %+v", st)
	}
	t.Logf("%d packets, %d bytes allocated", packets, grown)
	if grown >= packets {
		t.Errorf("%d packets of legitimate traffic allocated %d bytes, want < 1 per packet", packets, grown)
	}
}

// TestRelayTrafficHeapFlat: nor does the guard that is not active, which is
// what a deployment runs most of its life. 200 000 queries from 2048 sources
// relayed to the ANS and the referral with glue that answers each relayed
// back, both re-encoded from wire to wire, and the bytes the process has ever
// allocated grow by less than one per packet.
func TestRelayTrafficHeapFlat(t *testing.T) {
	cycles := 200000
	if testing.Short() {
		cycles = 20000
	}
	h := newShardHarness(t, func(cfg *RemoteConfig) { cfg.ActivationThreshold = 1e12 })
	query := upperName(mustPack(t, dnswire.NewQuery(1, dnswire.MustName("www.c5.foo.com"), dnswire.TypeA)))
	resp := make([]byte, 0, dnswire.MaxUDPSize)
	cycle := func(i int) {
		src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{11, 0, byte(i >> 8 & 7), byte(i)}), 5353)
		h.handle(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: query})
		resp = appendReferral(resp, h.up.buf[:h.up.n])
		h.s.handleUpstream(resp, h.g.cfg.ANSAddr)
	}
	cycle(0) // sizes the entry pool
	before := heapAllocated()
	for i := 1; i <= cycles; i++ {
		cycle(i)
	}
	grown := heapAllocated() - before
	packets := uint64(2 * cycles)
	if st, n := h.g.Stats.Load(), uint64(cycles+1); st.Passthrough != n || st.ForwardedToANS != n || st.RepliesToClient != n ||
		h.io.n != len(resp) || st.Malformed+st.UpstreamStrays+st.UpstreamSpoofed != 0 {
		t.Fatalf("the traffic did not run to completion: %+v, a reply of %d bytes", st, h.io.n)
	}
	t.Logf("%d packets, %d bytes allocated", packets, grown)
	if grown >= packets {
		t.Errorf("%d relayed packets allocated %d bytes, want < 1 per packet", packets, grown)
	}
}

// TestSpoofMixHeapFlat: an attack makes no garbage either. 300 000 packets in
// the benchmark's spoof_flood thirds — forged cookie labels, cookie-less first
// contacts, forged TXT cookies — each from a source never seen before, with a
// verified cycle from one of 2048 legitimate sources after every ten, as that
// workload's rates have it, and the bytes the process has ever allocated grow
// by less than one per packet.
func TestSpoofMixHeapFlat(t *testing.T) {
	attack := 300000
	if testing.Short() {
		attack = 30000
	}
	h := newShardHarness(t, func(cfg *RemoteConfig) {
		cfg.Zone = dnswire.MustName("foo.com")
		// The harness clock stands still: every first contact is granted, the
		// most a newcomer can cost, and no legitimate source runs dry.
		cfg.RL1 = ratelimit.DefaultLimiter1Config()
		cfg.RL1.GlobalRate, cfg.RL1.GlobalBurst = 1e12, 1e12
		cfg.RL2 = ratelimit.Limiter2Config{PerSourceRate: 1, PerSourceBurst: 1e9, TrackedSources: 8192}
	})
	stranger := mustAddr("10.66.0.1") // whose cookies the attack presents
	plain := mustPack(t, dnswire.NewQuery(1, dnswire.MustName("www.c5.foo.com"), dnswire.TypeA))
	thirds := [3][]byte{
		h.nsQueryWire(t, stranger, "c5.foo.com", 2),
		plain,
		withRecords(plain, 0, 0, 1, txtRR(h.g.cfg.Auth.Mint(stranger))),
	}
	const repeaters = 2048
	legit := func(i int) netip.AddrPort {
		return netip.AddrPortFrom(netip.AddrFrom4([4]byte{11, 0, byte(i >> 8), byte(i)}), 5353)
	}
	queries := make([][]byte, repeaters)
	for i := range queries {
		queries[i] = h.nsQueryWire(t, legit(i).Addr(), "c5.foo.com", 3)
	}
	resp := make([]byte, 0, dnswire.MaxUDPSize)
	cycle := func(i int) {
		h.handle(Packet{Src: legit(i % repeaters), Dst: h.g.cfg.PublicAddr, Payload: queries[i%repeaters]})
		resp = appendReferral(resp, h.up.buf[:h.up.n])
		h.s.handleUpstream(resp, h.g.cfg.ANSAddr)
	}
	for i := 0; i < repeaters; i++ {
		cycle(i) // first verification: sizes the entry pool, fills Rate-Limiter2
	}
	h.handle(Packet{Src: legit(0), Dst: h.g.cfg.PublicAddr, Payload: plain}) // sizes the reply queue
	warm := h.g.Stats.Load()
	before := heapAllocated()
	for i := 0; i < attack; i++ {
		src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 4444)
		h.handle(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: thirds[i%3]})
		if i%10 == 9 {
			cycle(i / 10)
		}
	}
	grown := heapAllocated() - before
	packets := uint64(attack + 2*(attack/10))
	st, third := h.g.Stats.Load(), uint64(attack/3)
	if st.CookieInvalid != 2*third || st.NewcomerGrants-warm.NewcomerGrants != third ||
		st.CookieValid-warm.CookieValid != uint64(attack/10) ||
		st.RepliesToClient-warm.RepliesToClient != third+uint64(attack/10) || st.Malformed+st.RL1Dropped+st.RL2Dropped != 0 {
		t.Fatalf("the traffic did not run as meant: %+v", st)
	}
	t.Logf("%d packets, %d bytes allocated", packets, grown)
	if grown >= packets {
		t.Errorf("%d packets, %d of them attack, allocated %d bytes, want < 1 per packet", packets, attack, grown)
	}
}

// TestSourceStateFootprint bounds everything a one-shard guard keeps per
// source, from before it is built to after 50 000 never-repeating newcomer
// sessions (grant, cookie query, answer) have filled and churned both
// tables. With the default bounds the tables are, in bytes per entry plus 4
// per index slot at two slots per entry rounded up to a power of two
// (DESIGN.md, "Per-source state"; TestStateBudget pins them):
//
//	RL1      4096 × 40 + 8192 × 4           = 192 KiB
//	RL2      4096 × 72 + 8192 × 4           = 320 KiB
//
// 512 KiB, which the limit rounds up to 808 KiB to leave room for the rest
// of the guard (the NAT table's first chunk, scratch buffers, the keyring).
// As maps of heap objects the limiters, a verified cache and a top-k sketch
// held 3.5 MiB. None
// of it may be memory
// the collector scans: that is bounded separately, at what the rest of the
// guard accounts for.
//
// Then the ANS goes dark: 60 000 more verified queries, each from a source and
// under an ID never seen before, none answered. The NAT table fills to
// maxPending and refuses the rest, and what it adds is its other 64 chunks
// and two question spans a slot (DESIGN.md, "State budget"):
//
//	NAT      4160 × 168 + 4096 × (48 + 32)  = 1003 KiB
//
// which the second limit rounds up to 1.25 MiB. That table holds pointers —
// addresses, the spans — and is the one a collector scans.
func TestSourceStateFootprint(t *testing.T) {
	scan := []runtimemetrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	heap := func() (total, scannable int64) {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runtimemetrics.Read(scan)
		return int64(ms.HeapAlloc), int64(scan[0].Value.Uint64())
	}
	total0, scan0 := heap()
	h := newShardHarness(t, func(cfg *RemoteConfig) {
		// The harness clock stands still: lift the global ceiling so all
		// 50 000 grants pass Rate-Limiter1 and reach its tables.
		cfg.RL1 = ratelimit.DefaultLimiter1Config()
		cfg.RL1.GlobalRate, cfg.RL1.GlobalBurst = 1e12, 1e12
	})
	plain, err := dnswire.NewQuery(1, dnswire.MustName("www.foo.com"), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 50000
	resp := make([]byte, 0, dnswire.MaxUDPSize)
	for i := 0; i < sessions; i++ {
		src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 5353)
		h.handle(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: plain})
		h.handle(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: h.nsQueryWire(t, src.Addr(), "www.foo.com", 2)})
		resp = append(resp[:0], h.up.buf[:h.up.n]...)
		resp[2] |= 0x80
		h.s.handleUpstream(resp, h.g.cfg.ANSAddr)
	}
	st := h.g.Stats.Load()
	if st.NewcomerGrants != sessions || st.CookieValid != sessions || st.RepliesToClient != 2*sessions {
		t.Fatalf("sessions did not run to completion: %+v", st)
	}
	if n := h.s.rl2.Sources(); n != 4096 {
		t.Fatalf("Rate-Limiter2 holds %d sources, want all 4096 it tracks: on a clock that stands still no bucket refills", n)
	}
	total1, scan1 := heap()
	const limit, scanLimit = 808 << 10, 1 << 15
	t.Logf("guard and %d sessions: %d KiB of heap, %d KiB of it scannable", sessions, (total1-total0)>>10, (scan1-scan0)>>10)
	if grown := total1 - total0; grown > limit {
		t.Errorf("guard and %d newcomer sessions added %d KiB of heap, want <= %d KiB", sessions, grown>>10, limit>>10)
	}
	if grown := scan1 - scan0; grown > scanLimit {
		t.Errorf("%d KiB of the added heap is scannable, want <= %d KiB: a source table holds pointers", grown>>10, scanLimit>>10)
	}

	const dark = 60000
	fillPending(t, h, sessions, dark)
	if st := h.g.Stats.Load(); h.g.PendingEntries() != maxPending || st.PendingDropped != dark-maxPending || st.CookieValid != sessions+dark {
		t.Fatalf("%d pending after %d unanswered forwards: %+v", h.g.PendingEntries(), dark, st)
	}
	total2, _ := heap()
	const darkLimit = 5 << 18
	t.Logf("a dark ANS and %d more queries: %d KiB of heap", dark, (total2-total1)>>10)
	if grown := total2 - total1; grown > darkLimit {
		t.Errorf("%d unanswered forwards added %d KiB of heap, want <= %d KiB", dark, grown>>10, darkLimit>>10)
	}
	runtime.KeepAlive(h)
}

// TestSourceStateRecycles is TestSourceStateFootprint's sessions on a clock
// that moves, at the benchmark's 4 000 newcomer sessions a second for two
// seconds. A newcomer's Rate-Limiter1 bucket is charged once, at its grant,
// and is back at its burst 1 ÷ PerSourceRate = 10 ms later, when it decides
// what an absent bucket would: the next newcomer takes its entry. So the
// table writes about the 40 entries of the newcomers granted within the last
// 10 ms, not all 4096 of its bound, and decides every grant as before. Each
// session's cookie query charges Rate-Limiter2 once, and its bucket is back
// at its burst in 1 ÷ 2000 s: that table writes two or three entries.
func TestSourceStateRecycles(t *testing.T) {
	h := newShardHarness(t, nil)
	plain, err := dnswire.NewQuery(1, dnswire.MustName("www.foo.com"), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	tabs := [2]reflect.Value{
		reflect.ValueOf(h.s).Elem().FieldByName("rl1").Elem().FieldByName("perSrc").FieldByName("tab").Elem(),
		reflect.ValueOf(h.s).Elem().FieldByName("rl2").Elem().FieldByName("perSrc").FieldByName("tab").Elem(),
	}
	written := func(i int) int { return int(tabs[i].FieldByName("used").Uint()) }
	const sessions, perSec = 8000, 4000
	var most [2]int
	resp := make([]byte, 0, dnswire.MaxUDPSize)
	h.sched.Go("sessions", func() {
		for i := 0; i < sessions; i++ {
			src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 5353)
			h.handle(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: plain})
			h.handle(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: h.nsQueryWire(t, src.Addr(), "www.foo.com", 2)})
			resp = append(resp[:0], h.up.buf[:h.up.n]...)
			resp[2] |= 0x80
			h.s.handleUpstream(resp, h.g.cfg.ANSAddr)
			// A mitigation transition would empty the tables.
			most = [2]int{max(most[0], written(0)), max(most[1], written(1))}
			h.sched.Sleep(time.Second / perSec)
		}
	})
	h.sched.Run(sessions/perSec*time.Second + time.Second)
	st := h.g.Stats.Load()
	if st.NewcomerGrants != sessions || st.CookieValid != sessions || st.RL1Dropped != 0 {
		t.Fatalf("sessions did not run to completion: %+v", st)
	}
	t.Logf("%d sessions at %d/s: Rate-Limiter1 wrote %d entries, Rate-Limiter2 %d", sessions, perSec, most[0], most[1])
	for i, n := range most {
		if n > 64 {
			t.Errorf("Rate-Limiter%d wrote %d entries for %d one-shot sources at %d/s, want <= 64", i+1, n, sessions, perSec)
		}
	}
}

// TestStateBudget pins the two per-source tables a default shard builds —
// each one's entry and index slot (reflect's Size, which is unsafe.Sizeof)
// and the bytes its two arrays hold — to what DESIGN.md §18 and §19 quote:
//
//	RL1      4096 × 40 + 8192 × 4   = 192 KiB
//	RL2      4096 × 40 + 8192 × 4   = 192 KiB
//
// 384 KiB a shard, with each table's list sentinel, and no table in the
// engine: the guard keeps no verified credentials. Then a
// shard's receive slabs (recvSlab) at Batch 32:
//
//	heads     32 × 512, one after another = 16 KiB
//	spills    32 × 4097                   = 128 KiB, touched by long datagrams
func TestStateBudget(t *testing.T) {
	h := newShardHarness(t, nil)
	field := func(v reflect.Value, path ...string) reflect.Value {
		for _, name := range path {
			v = reflect.Indirect(v).FieldByName(name)
		}
		return reflect.Indirect(v)
	}
	total := 0
	for _, c := range []struct {
		name              string
		tab               reflect.Value
		entry, cap, slots int
	}{
		{"RL1", field(reflect.ValueOf(h.s), "rl1", "perSrc", "tab"), 40, 4096, 8192},
		{"RL2", field(reflect.ValueOf(h.s), "rl2", "perSrc", "tab"), 40, 4096, 8192},
	} {
		entries, index := field(c.tab, "entries"), field(c.tab, "index")
		entry, slot := int(entries.Type().Elem().Size()), int(index.Type().Elem().Size())
		if entry != c.entry || slot != 4 || entries.Len() != c.cap+1 || index.Len() != c.slots {
			t.Errorf("%s: %d entries of %d bytes and %d index slots of %d, want %d of %d and %d of 4",
				c.name, entries.Len(), entry, index.Len(), slot, c.cap+1, c.entry, c.slots)
		}
		total += entries.Len()*entry + index.Len()*slot
	}
	if total>>10 != 384 {
		t.Errorf("the source tables hold %d KiB a shard, want 384", total>>10)
	}
	if tab := reflect.ValueOf(h.g.eng).Elem().FieldByName("shards").Index(0).Elem().FieldByName("verified").FieldByName("tab"); !tab.IsNil() {
		t.Error("the engine built a verified-source table for the guard")
	}

	slab, heads := recvSlab(32), 0
	for i, d := range slab {
		heads += cap(d.Buf)
		if cap(d.Buf) != netapi.SlabHead || cap(d.Spill) != dnswire.MaxDatagram+1 {
			t.Errorf("receive slot %d: head %d and spill %d bytes, want %d and %d",
				i, cap(d.Buf), cap(d.Spill), netapi.SlabHead, dnswire.MaxDatagram+1)
		}
		if stride := reflect.ValueOf(d.Buf).Pointer() - reflect.ValueOf(slab[0].Buf).Pointer(); i > 0 && stride != uintptr(i*netapi.SlabHead) {
			t.Errorf("receive slot %d's head lies %d bytes past slot 0's, want %d", i, stride, i*netapi.SlabHead)
		}
	}
	if heads != 16<<10 {
		t.Errorf("a receive slab's heads hold %d bytes, want 16 KiB", heads)
	}
}

// TestLimiterToggleAllocs: the mitigation ladder's strict/normal switch and
// a supervised shard restart each empty both limiters in place. Neither
// allocates.
func TestLimiterToggleAllocs(t *testing.T) {
	h := newShardHarness(t, func(cfg *RemoteConfig) { cfg.Mitigation.Enabled = true })
	src := netip.MustParseAddr("10.0.0.53")
	if n := testing.AllocsPerRun(10, func() {
		h.s.rl2.AllowRequest(src, 0)
		rung := LayerSourceLimit
		if h.s.strict {
			rung = LayerCookies
		}
		h.g.mit.layer.Store(int32(rung))
		h.s.syncLimiters()
		if h.s.rl2.Sources() != 0 {
			t.Fatal("a strict/normal transition left sources in Rate-Limiter2")
		}
	}); n != 0 {
		t.Errorf("strict/normal toggle allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(10, h.s.ResetShard); n != 0 {
		t.Errorf("ResetShard allocates %.1f times, want 0", n)
	}
	h.s.rl2.AllowRequest(src, 0)
	h.s.ResetShard()
	if h.s.rl2.Sources() != 0 {
		t.Error("ResetShard left sources in Rate-Limiter2")
	}
}
