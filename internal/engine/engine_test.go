package engine

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netsim"
	"dnsguard/internal/realnet"
	"dnsguard/internal/vclock"
)

// fakeIO is a channel-backed PacketIO for real-scheduler tests. Not for
// netsim procs (channel blocking would deadlock the virtual clock).
type fakeIO struct {
	ch     chan Packet
	closed chan struct{}
	once   sync.Once
}

func newFakeIO(buf int) *fakeIO {
	return &fakeIO{ch: make(chan Packet, buf), closed: make(chan struct{})}
}

// expiry returns a channel that fires once a netapi read timeout elapses —
// nil, which never fires, under NoTimeout — and the func that releases it.
func expiry(timeout time.Duration) (<-chan time.Time, func()) {
	if timeout < 0 {
		return nil, func() {}
	}
	tm := time.NewTimer(timeout)
	return tm.C, func() { tm.Stop() }
}

// ReadBatch takes one packet a read, as a socket without a backlog would.
func (f *fakeIO) ReadBatch(pkts []Packet, timeout time.Duration) (int, error) {
	expired, stop := expiry(timeout)
	defer stop()
	select {
	case pkts[0] = <-f.ch:
		return 1, nil
	case <-f.closed:
		return 0, netapi.ErrClosed
	case <-expired:
		return 0, netapi.ErrTimeout
	}
}

func (f *fakeIO) WriteFromTo(src, dst netip.AddrPort, payload []byte) error { return nil }

func (f *fakeIO) Close() error {
	f.once.Do(func() { close(f.closed) })
	return nil
}

// recHandler records which shard handled each source.
type recHandler struct {
	shard int
	mu    *sync.Mutex
	bySrc map[netip.Addr][]int
	count *atomic.Uint64
}

func (h *recHandler) HandlePacket(pkt Packet) {
	h.mu.Lock()
	h.bySrc[pkt.Src.Addr()] = append(h.bySrc[pkt.Src.Addr()], h.shard)
	h.mu.Unlock()
	h.count.Add(1)
}

type rig struct {
	mu    sync.Mutex
	bySrc map[netip.Addr][]int
	count atomic.Uint64
}

func (rg *rig) newHandler(shard int) Handler {
	return &recHandler{shard: shard, mu: &rg.mu, bySrc: rg.bySrc, count: &rg.count}
}

func srcAP(i int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}), 5353)
}

func waitCount(t *testing.T, c *atomic.Uint64, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("handled %d packets, want %d", c.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestInlineModeHandlesDirectly(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	io := newFakeIO(16)
	var observed atomic.Uint64
	e, err := New(Config{
		Env:        realnet.New(),
		IOs:        []PacketIO{io},
		NewHandler: rg.newHandler,
		Observer:   func(shard int, pkt Packet) { observed.Add(uint64(shard + 1)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Close()
	for i := 0; i < 5; i++ {
		io.ch <- Packet{Src: srcAP(i), Dst: srcAP(100), Payload: []byte{byte(i)}}
	}
	waitCount(t, &rg.count, 5)
	if got := e.Stats(0).Handled; got != 5 {
		t.Fatalf("shard 0 handled = %d, want 5", got)
	}
	if observed.Load() != 5 { // shard is always 0, so +1 each
		t.Fatalf("observer saw %d, want 5", observed.Load())
	}
}

// simWorld is a netsim host whose traffic for 192.0.2.0/24 reaches n taps,
// and a client host that sends it.
type simWorld struct {
	sched        *vclock.Scheduler
	guard, peers *netsim.Host
	taps         []*netsim.Tap
	ios          []PacketIO
}

func newSimWorld(t *testing.T, n, queueCap int) *simWorld {
	t.Helper()
	sched := vclock.New(42)
	net := netsim.New(sched, time.Millisecond)
	w := &simWorld{sched: sched, guard: net.AddHost("guard", netip.MustParseAddr("10.0.0.1"))}
	w.peers = net.AddHost("peers", netip.MustParseAddr("10.0.0.2"))
	w.guard.ClaimPrefix(netip.MustParsePrefix("192.0.2.0/24"))
	w.guard.SetQueueCap(queueCap)
	taps, err := w.guard.OpenTaps(n)
	if err != nil {
		t.Fatal(err)
	}
	w.taps = taps
	for _, tap := range taps {
		w.ios = append(w.ios, tap)
	}
	return w
}

// send spoofs a datagram from src to the guard's claimed prefix.
func (w *simWorld) send(src netip.AddrPort, payload []byte) {
	w.peers.SendRaw(src, netip.MustParseAddrPort("192.0.2.1:53"), payload)
}

// Every source is handled by the shard whose tap the host steers it to, on
// its one shard only, and the sources spread over several shards — all
// inside a deterministic single-goroutine simulation, the shards parked on
// the taps' vclock queues.
func TestShardAffinityAndCoverage(t *testing.T) {
	w := newSimWorld(t, 4, 64)
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	e, err := New(Config{Env: w.guard, IOs: w.ios, NewHandler: rg.newHandler})
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() != 4 {
		t.Fatalf("%d shards on 4 taps", e.Shards())
	}
	e.Start()

	const sources, perSource = 64, 8
	w.sched.Go("producer", func() {
		for round := 0; round < perSource; round++ {
			for i := 0; i < sources; i++ {
				w.send(srcAP(i), []byte{byte(i)})
				w.guard.Sleep(10 * time.Microsecond)
			}
		}
		w.guard.Sleep(time.Second)
		e.Close()
	})
	w.sched.Run(0)

	if got := rg.count.Load(); got != sources*perSource {
		t.Fatalf("handled %d, want %d", got, sources*perSource)
	}
	shardsUsed := make(map[int]bool)
	for src, shards := range rg.bySrc {
		want := w.guard.TapOf(src)
		for _, s := range shards {
			if s != want {
				t.Fatalf("source %v handled on shards %v, its tap is %d", src, shards, want)
			}
		}
		if len(shards) != perSource {
			t.Fatalf("source %v handled %d times, want %d", src, len(shards), perSource)
		}
		shardsUsed[want] = true
	}
	if len(shardsUsed) < 2 {
		t.Fatalf("only %d shards used for %d sources", len(shardsUsed), sources)
	}
}

func TestVerifiedSourceCache(t *testing.T) {
	env := &manualEnv{Env: realnet.New()}
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	e, err := New(Config{
		Env:         env,
		IOs:         []PacketIO{newFakeIO(1), newFakeIO(1)},
		FastPathTTL: 50 * time.Millisecond,
		NewHandler:  rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := srcAP(1).Addr()

	if _, ok := e.VerifiedCredOn(shardOf(a, 2), a); ok {
		t.Fatal("hit on empty cache")
	}
	e.MarkVerifiedOn(shardOf(a, 2), a, "cred-a")
	if cred, ok := e.VerifiedCredOn(shardOf(a, 2), a); !ok || cred != "cred-a" {
		t.Fatalf("VerifiedCred = (%q, %v), want (cred-a, true)", cred, ok)
	}
	// Re-verification replaces the credential (key rotation).
	e.MarkVerifiedOn(shardOf(a, 2), a, "cred-a2")
	if cred, _ := e.VerifiedCredOn(shardOf(a, 2), a); cred != "cred-a2" {
		t.Fatalf("cred = %q, want cred-a2", cred)
	}

	// TTL expiry.
	env.now += 60 * time.Millisecond
	if _, ok := e.VerifiedCredOn(shardOf(a, 2), a); ok {
		t.Fatal("hit after TTL expiry")
	}

	// Capacity bound is per shard: overfill one shard and the oldest goes.
	shard := shardOf(a, 2)
	same := []netip.Addr{a}
	for i := 10; len(same) <= fastPathSources; i++ {
		addr := srcAP(i).Addr()
		if shardOf(addr, 2) == shard {
			same = append(same, addr)
		}
	}
	for i, addr := range same {
		e.MarkVerifiedOn(shard, addr, fmt.Sprintf("cred-%d", i))
	}
	if _, ok := e.VerifiedCredOn(shard, same[0]); ok {
		t.Fatal("oldest entry survived a full shard")
	}
	if _, ok := e.VerifiedCredOn(shard, same[len(same)-1]); !ok {
		t.Fatal("newest entry evicted")
	}

	// Disabled cache: everything is a silent miss.
	off, err := New(Config{
		Env:        env,
		IOs:        []PacketIO{newFakeIO(1)},
		NewHandler: rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	off.MarkVerifiedOn(0, a, "x")
	if _, ok := off.VerifiedCredOn(0, a); ok {
		t.Fatal("disabled cache returned a hit")
	}
}

// shardOf is the shard tests file src under when they pick one themselves:
// the engine keeps no source-to-shard map of its own.
func shardOf(src netip.Addr, shards int) int { return int(src.As16()[15]) % shards }

// What a tap tail-drops is its shard's ShedNew: taps of 8 slots flooded
// with nobody reading until the flood is over drop the excess, and each
// shard reports exactly its own tap's drops, summing to the host's.
func TestEngineUnderNetsim(t *testing.T) {
	w := newSimWorld(t, 2, 8)
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	e, err := New(Config{Env: w.guard, IOs: w.ios, NewHandler: rg.newHandler})
	if err != nil {
		t.Fatal(err)
	}
	r := metrics.NewRegistry()
	e.MetricsInto(r, "guard_engine_")
	const sources = 64
	w.sched.Go("flood", func() {
		for i := 0; i < sources; i++ {
			w.send(srcAP(i), []byte{byte(i)})
		}
		w.guard.Sleep(10 * time.Millisecond) // every datagram has reached its tap
		e.Start()
		w.guard.Sleep(time.Second)
		e.Close()
	})
	w.sched.Run(0)

	var shed uint64
	for i, tap := range w.taps {
		st := e.Stats(i)
		if st.ShedNew != tap.Dropped() {
			t.Errorf("shard %d ShedNew %d, its tap dropped %d", i, st.ShedNew, tap.Dropped())
		}
		shed += st.ShedNew
	}
	if dropped := w.guard.Stats.RecvDropped; shed != dropped || shed == 0 {
		t.Errorf("shards shed %d, the host dropped %d: want equal and > 0", shed, dropped)
	}
	if got := rg.count.Load(); got+shed != sources {
		t.Errorf("handled %d and shed %d of %d", got, shed, sources)
	}
	if v, _ := r.Get("guard_engine_shed_new"); uint64(v) != shed {
		t.Errorf("guard_engine_shed_new = %v, want %d", v, shed)
	}
}

func TestMetricsInto(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	ios, raw := newFakeIOs(2, 8)
	ios[1] = &droppingIO{fakeIO: raw[1], dropped: 3}
	e, err := New(Config{
		Env:        realnet.New(),
		IOs:        ios,
		NewHandler: rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := metrics.NewRegistry()
	e.MetricsInto(r, "guard_engine_")
	e.Start()
	defer e.Close()

	raw[0].ch <- Packet{Src: srcAP(1), Payload: []byte{1}}
	waitCount(t, &rg.count, 1)

	for series, want := range map[string]float64{
		"guard_engine_shards":          2,
		"guard_engine_handled":         1,
		"guard_engine_shard0_handled":  1,
		"guard_engine_shard1_handled":  0,
		"guard_engine_shed_new":        3,
		"guard_engine_shard0_shed_new": 0,
		"guard_engine_shard1_shed_new": 3,
		"guard_engine_ingest_packets":  1,
	} {
		if v, ok := r.Get(series); !ok || v != want {
			t.Errorf("%s = (%v, %v), want %v", series, v, ok, want)
		}
	}
	// The verified cache is bench/layers' alone: the engine exports no
	// series of it, and no queue is left to export.
	for _, s := range r.Snapshot() {
		for _, gone := range []string{"fast_path_", "enqueued", "queue_depth", "_wait", "ingest_affine"} {
			if strings.Contains(s.Name, gone) {
				t.Errorf("the engine registers %s", s.Name)
			}
		}
	}
}

// droppingIO is a fakeIO that reports a fixed drop count (Dropper).
type droppingIO struct {
	*fakeIO
	dropped uint64
}

func (d *droppingIO) Dropped() uint64 { return d.dropped }
