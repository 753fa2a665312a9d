package engine

import (
	"fmt"
	"net/netip"
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

func (f *fakeIO) Read(timeout time.Duration) (Packet, error) {
	expired, stop := expiry(timeout)
	defer stop()
	select {
	case p := <-f.ch:
		return p, nil
	case <-f.closed:
		return Packet{}, netapi.ErrClosed
	case <-expired:
		return Packet{}, netapi.ErrTimeout
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
	block chan struct{} // when non-nil, HandlePacket waits on it
}

func (h *recHandler) HandlePacket(pkt Packet) {
	if h.block != nil {
		<-h.block
	}
	h.mu.Lock()
	h.bySrc[pkt.Src.Addr()] = append(h.bySrc[pkt.Src.Addr()], h.shard)
	h.mu.Unlock()
	h.count.Add(1)
}

type rig struct {
	mu    sync.Mutex
	bySrc map[netip.Addr][]int
	count atomic.Uint64
	block chan struct{}
}

func (rg *rig) newHandler(shard int) Handler {
	return &recHandler{shard: shard, mu: &rg.mu, bySrc: rg.bySrc, count: &rg.count, block: rg.block}
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

func waitShard(t *testing.T, e *Engine, shard int, ok func(ShardStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok(e.Stats(shard)) {
		if time.Now().After(deadline) {
			t.Fatalf("shard %d stats = %+v", shard, e.Stats(shard))
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
	if !e.Direct() {
		t.Fatal("a single shard does not read its single IO directly")
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
	if e.QueueDepth(0) != 0 {
		t.Fatal("a direct shard reported a queue depth")
	}
}

func TestShardAffinityAndCoverage(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	io := newFakeIO(64)
	e, err := New(Config{
		Env:        realnet.New(),
		IOs:        []PacketIO{io},
		Shards:     4,
		NewHandler: rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Close()

	const sources, perSource = 64, 8
	for round := 0; round < perSource; round++ {
		for i := 0; i < sources; i++ {
			io.ch <- Packet{Src: srcAP(i), Payload: []byte{byte(i)}}
		}
	}
	waitCount(t, &rg.count, sources*perSource)

	rg.mu.Lock()
	defer rg.mu.Unlock()
	shardsUsed := make(map[int]bool)
	for src, shards := range rg.bySrc {
		want := e.ShardOf(src)
		for _, s := range shards {
			if s != want {
				t.Fatalf("source %v handled on shard %d and %d", src, want, s)
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

func TestBackpressureDropNewestForUnverified(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int), block: make(chan struct{})}
	io := newFakeIO(0)
	e, err := New(Config{
		Env:        realnet.New(),
		IOs:        []PacketIO{io},
		Shards:     2, // one interface, two shards: the fan-out
		QueueDepth: 2,
		NewHandler: rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Close()
	sh := e.ShardOf(srcAP(7).Addr())

	// First packet occupies the (blocked) worker — wait for it to be
	// dequeued so the flood below deterministically fills the queue — then
	// two fill the queue and the rest must tail-drop.
	io.ch <- Packet{Src: srcAP(7), Payload: []byte{0}}
	waitShard(t, e, sh, func(st ShardStats) bool { return st.Handled == 1 })
	for i := 1; i < 6; i++ {
		io.ch <- Packet{Src: srcAP(7), Payload: []byte{byte(i)}}
	}
	waitShard(t, e, sh, func(st ShardStats) bool { return st.ShedNew == 3 })
	close(rg.block)
	waitCount(t, &rg.count, 3)
	st := e.Stats(sh)
	if st.Enqueued != 3 {
		t.Fatalf("stats = %+v, want Enqueued=3", st)
	}
}

// A source in the verified cache gets no admission of its own: its packets
// meet a full fan-out queue as any other source's do, tail-dropped and
// counted in ShedNew. Which packet deserves service is the handler's call.
func TestBackpressureDropsCachedSourceToo(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int), block: make(chan struct{})}
	io := newFakeIO(0)
	e, err := New(Config{
		Env:         realnet.New(),
		IOs:         []PacketIO{io},
		Shards:      2,
		QueueDepth:  2,
		FastPathTTL: time.Hour,
		NewHandler:  rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := e.ShardOf(srcAP(7).Addr())
	e.MarkVerifiedOn(sh, srcAP(7).Addr(), "cred")
	e.Start()
	defer e.Close()

	io.ch <- Packet{Src: srcAP(7), Payload: []byte{0}}
	waitShard(t, e, sh, func(st ShardStats) bool { return st.Handled == 1 })
	for i := 1; i < 6; i++ {
		io.ch <- Packet{Src: srcAP(7), Payload: []byte{byte(i)}}
	}
	waitShard(t, e, sh, func(st ShardStats) bool { return st.ShedNew == 3 })
	if n := e.Backlog(); n != 2 {
		t.Fatalf("Backlog = %d with a full queue of 2, want 2", n)
	}
	close(rg.block)
	// The worker consumes its in-flight packet and the 2 queued ones; the 3
	// that arrived at a full queue never reach the handler.
	waitCount(t, &rg.count, 3)
	if st := e.Stats(sh); st.Enqueued != 3 {
		t.Fatalf("stats = %+v, want Enqueued=3", st)
	}
	if n := e.Backlog(); n != 0 {
		t.Fatalf("Backlog = %d after the worker caught up, want 0", n)
	}
}

func TestVerifiedSourceCache(t *testing.T) {
	env := &manualEnv{Env: realnet.New()}
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	e, err := New(Config{
		Env:         env,
		IOs:         []PacketIO{newFakeIO(1)},
		Shards:      2,
		FastPathTTL: 50 * time.Millisecond,
		NewHandler:  rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := srcAP(1).Addr()

	if _, ok := e.VerifiedCredOn(e.ShardOf(a), a); ok {
		t.Fatal("hit on empty cache")
	}
	e.MarkVerifiedOn(e.ShardOf(a), a, "cred-a")
	if cred, ok := e.VerifiedCredOn(e.ShardOf(a), a); !ok || cred != "cred-a" {
		t.Fatalf("VerifiedCred = (%q, %v), want (cred-a, true)", cred, ok)
	}
	// Re-verification replaces the credential (key rotation).
	e.MarkVerifiedOn(e.ShardOf(a), a, "cred-a2")
	if cred, _ := e.VerifiedCredOn(e.ShardOf(a), a); cred != "cred-a2" {
		t.Fatalf("cred = %q, want cred-a2", cred)
	}

	// TTL expiry.
	env.now += 60 * time.Millisecond
	if _, ok := e.VerifiedCredOn(e.ShardOf(a), a); ok {
		t.Fatal("hit after TTL expiry")
	}

	// Capacity bound is per shard: overfill one shard and the oldest goes.
	shard := e.ShardOf(a)
	same := []netip.Addr{a}
	for i := 10; len(same) <= fastPathSources; i++ {
		addr := srcAP(i).Addr()
		if e.ShardOf(addr) == shard {
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
	if got := e.FastPath().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
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
	off.MarkVerifiedOn(off.ShardOf(a), a, "x")
	if _, ok := off.VerifiedCredOn(off.ShardOf(a), a); ok {
		t.Fatal("disabled cache returned a hit")
	}
}

// simIO adapts a netsim host queue to PacketIO so engine procs block through
// vclock primitives.
type simIO struct {
	q netapi.Queue
}

func (s *simIO) Read(timeout time.Duration) (Packet, error) {
	v, err := s.q.Get(timeout)
	if err != nil {
		return Packet{}, err
	}
	return v.(Packet), nil
}

func (s *simIO) WriteFromTo(src, dst netip.AddrPort, payload []byte) error { return nil }
func (s *simIO) Close() error                                              { s.q.Close(); return nil }

// The queued engine must run entirely on the virtual clock: workers park on
// vclock queues, every packet is handled, and affinity holds — all inside a
// deterministic single-goroutine simulation.
func TestEngineUnderNetsim(t *testing.T) {
	sched := vclock.New(42)
	n := netsim.New(sched, time.Millisecond)
	h := n.AddHost("guard", netip.MustParseAddr("10.0.0.1"))

	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	io := &simIO{q: h.NewQueue(64)}
	e, err := New(Config{
		Env:        h,
		IOs:        []PacketIO{io},
		Shards:     4,
		NewHandler: rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()

	const sources, perSource = 32, 4
	sched.Go("producer", func() {
		for round := 0; round < perSource; round++ {
			for i := 0; i < sources; i++ {
				io.q.Put(Packet{Src: srcAP(i), Payload: []byte{byte(i)}})
				h.Sleep(10 * time.Microsecond)
			}
		}
		h.Sleep(time.Second)
		e.Close()
	})
	sched.Run(0)

	if got := rg.count.Load(); got != sources*perSource {
		t.Fatalf("handled %d, want %d", got, sources*perSource)
	}
	for src, shards := range rg.bySrc {
		want := e.ShardOf(src)
		for _, s := range shards {
			if s != want {
				t.Fatalf("source %v crossed shards: %v (want all %d)", src, shards, want)
			}
		}
	}
}

func TestMetricsInto(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	io := newFakeIO(8)
	e, err := New(Config{
		Env:         realnet.New(),
		IOs:         []PacketIO{io},
		Shards:      2,
		FastPathTTL: time.Hour,
		NewHandler:  rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := metrics.NewRegistry()
	e.MetricsInto(r, "guard_engine_")
	e.Start()
	defer e.Close()

	e.MarkVerifiedOn(e.ShardOf(srcAP(1).Addr()), srcAP(1).Addr(), "c")
	e.VerifiedCredOn(e.ShardOf(srcAP(1).Addr()), srcAP(1).Addr())
	io.ch <- Packet{Src: srcAP(1), Payload: []byte{1}}
	waitCount(t, &rg.count, 1)

	for series, want := range map[string]float64{
		"guard_engine_shards":            2,
		"guard_engine_handled":           1,
		"guard_engine_enqueued":          1,
		"guard_engine_shed_new":          0,
		"guard_engine_fast_path_hits":    1,
		"guard_engine_fast_path_inserts": 1,
		"guard_engine_fast_path_sources": 1,
		"guard_engine_queue_depth":       0,
	} {
		if v, ok := r.Get(series); !ok || v != want {
			t.Errorf("%s = (%v, %v), want %v", series, v, ok, want)
		}
	}
	// Per-shard series exist for both shards, including wait histograms.
	for i := 0; i < 2; i++ {
		for _, suffix := range []string{"handled", "queue_depth", "wait_count"} {
			name := fmt.Sprintf("guard_engine_shard%d_%s", i, suffix)
			if _, ok := r.Get(name); !ok {
				t.Errorf("missing series %s", name)
			}
		}
	}
}
