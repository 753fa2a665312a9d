package engine

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnsguard/internal/realnet"
)

// fsFakeIO is a channel-backed PacketIO claiming stable kernel flow
// steering — the test stand-in for one SO_REUSEPORT member socket.
type fsFakeIO struct{ *fakeIO }

func (fsFakeIO) FlowStable() bool { return true }

func newFSFakeIOs(n, buf int) ([]PacketIO, []*fakeIO) {
	ios := make([]PacketIO, n)
	raw := make([]*fakeIO, n)
	for i := range ios {
		raw[i] = newFakeIO(buf)
		ios[i] = fsFakeIO{raw[i]}
	}
	return ios, raw
}

// Affine mode's shard identity is the delivering socket, not the source
// hash: a packet fed to socket k must be handled by shard k even when
// ShardOf(src) disagrees, with no queue hop and no cross-shard handoff.
func TestAffineShardIsDeliveringSocket(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	ios, raw := newFSFakeIOs(4, 16)
	e, err := New(Config{
		Env:        realnet.New(),
		IOs:        ios,
		Shards:     4,
		NewHandler: rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Affine() {
		t.Fatal("IngestAuto with one flow-stable IO per shard must go affine")
	}
	e.Start()
	defer e.Close()

	// Deliver each source to the socket that *disagrees* with its hash.
	sent := make(map[netip.Addr]int)
	for i := 0; i < 32; i++ {
		src := srcAP(i)
		socket := (e.ShardOf(src.Addr()) + 1) % 4
		sent[src.Addr()] = socket
		raw[socket].ch <- Packet{Src: src, Payload: []byte{1}}
	}
	waitCount(t, &rg.count, 32)

	rg.mu.Lock()
	defer rg.mu.Unlock()
	for addr, socket := range sent {
		got := rg.bySrc[addr]
		if len(got) != 1 || got[0] != socket {
			t.Errorf("src %v delivered to socket %d handled by shards %v (hash says %d)",
				addr, socket, got, e.ShardOf(addr))
		}
	}
	var handled uint64
	for i := 0; i < 4; i++ {
		st := e.Stats(i)
		handled += st.Handled
		if st.Enqueued != 0 || st.ShedNew != 0 || st.ShedOld != 0 {
			t.Errorf("shard %d has queue-path counts %+v in affine mode", i, st)
		}
	}
	if handled != 32 {
		t.Errorf("handled %d packets, want 32", handled)
	}
}

// A packet handed to a shard whose socket never delivers anything must still
// be handled, within a small multiple of handoffPoll: the liveness half of
// the Handoff contract. (Before the bounded read, the ring was drained only
// between datagrams and this packet waited forever.)
func TestHandoffIdleSocket(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	ios, _ := newFSFakeIOs(2, 0)
	e, err := New(Config{
		Env:        realnet.New(),
		IOs:        ios,
		Shards:     2,
		NewHandler: rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Close()
	// Let both loops park in their reads before the packet is handed over.
	time.Sleep(2 * handoffPoll)

	start := time.Now()
	migrant := srcAP(7)
	if !e.Handoff(1, Packet{Src: migrant, Payload: []byte{42}}) {
		t.Fatal("Handoff refused on an affine engine")
	}
	waitCount(t, &rg.count, 1)
	if d := time.Since(start); d > 100*handoffPoll {
		t.Errorf("handoff to an idle shard took %v, want within a few × %v", d, handoffPoll)
	}
	rg.mu.Lock()
	if got := rg.bySrc[migrant.Addr()]; len(got) != 1 || got[0] != 1 {
		t.Errorf("handoff packet handled by shards %v, want [1]", got)
	}
	rg.mu.Unlock()
	if st := e.Stats(1); st.Handoff != 1 || st.Handled != 1 {
		t.Errorf("shard 1 stats = %+v, want Handoff=1 Handled=1", st)
	}
	if ing := e.Ingest(); ing.Reads != 0 || ing.Packets != 0 {
		t.Errorf("ingest = %+v on silent sockets; timed-out reads must not count", ing)
	}
}

// Handoff parks a packet on another shard's migration ring; the owning loop
// drains it before its next read, counts it, and observes its ring wait.
func TestAffineHandoff(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	ios, raw := newFSFakeIOs(2, 16)
	e, err := New(Config{
		Env:        realnet.New(),
		IOs:        ios,
		Shards:     2,
		NewHandler: rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Close()

	migrant := srcAP(7)
	if !e.Handoff(1, Packet{Src: migrant, Payload: []byte{42}}) {
		t.Fatal("Handoff refused on an affine engine")
	}
	// The ring drains before shard 1's next blocking read returns; feed it a
	// wakeup packet so the loop cycles deterministically.
	raw[1].ch <- Packet{Src: srcAP(8), Payload: []byte{1}}
	waitCount(t, &rg.count, 2)

	rg.mu.Lock()
	if got := rg.bySrc[migrant.Addr()]; len(got) != 1 || got[0] != 1 {
		t.Errorf("handoff packet handled by shards %v, want [1]", got)
	}
	rg.mu.Unlock()
	if st := e.Stats(1); st.Handoff != 1 {
		t.Errorf("shard 1 Handoff = %d, want 1", st.Handoff)
	}
	if st := e.Stats(0); st.Handoff != 0 {
		t.Errorf("shard 0 Handoff = %d, want 0", st.Handoff)
	}
}

// Handoff is affine-only: on a hash-mode engine the central fan-out already
// routes every packet, so the API reports false rather than double-routing.
func TestHandoffRefusedOutsideAffine(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	e, err := New(Config{
		Env:        realnet.New(),
		IOs:        []PacketIO{newFakeIO(4), newFakeIO(4)},
		Shards:     2,
		NewHandler: rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Close()
	if e.Affine() {
		t.Fatal("non-flow-stable IOs must not select affine ingest")
	}
	if e.Handoff(0, Packet{Src: srcAP(1)}) {
		t.Error("Handoff accepted on a hash-mode engine")
	}
}

// IngestMode resolution: forced affine demands one IO per shard; auto falls
// back to hash fan-out when the IO count or flow stability disqualifies the
// topology; forced hash never goes affine even when eligible.
func TestIngestModeResolution(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	newCfg := func(ios []PacketIO, shards int, mode IngestMode) Config {
		return Config{
			Env:        realnet.New(),
			IOs:        ios,
			Shards:     shards,
			Ingest:     mode,
			NewHandler: rg.newHandler,
		}
	}

	fs2, _ := newFSFakeIOs(2, 4)
	if _, err := New(newCfg(fs2, 4, IngestAffine)); err == nil {
		t.Error("IngestAffine with 2 IOs for 4 shards must error")
	}

	fs4, _ := newFSFakeIOs(4, 4)
	e, err := New(newCfg(fs4, 4, IngestHash))
	if err != nil {
		t.Fatal(err)
	}
	if e.Affine() {
		t.Error("IngestHash engine reports affine")
	}

	// Auto + one non-flow-stable IO in the set: hash fan-out.
	mixed, _ := newFSFakeIOs(3, 4)
	mixed = append(mixed, newFakeIO(4))
	e, err = New(newCfg(mixed, 4, IngestAuto))
	if err != nil {
		t.Fatal(err)
	}
	if e.Affine() {
		t.Error("auto ingest went affine over a non-flow-stable IO")
	}

	// Forced affine over flow-stable per-shard sockets: affine.
	e, err = New(newCfg(fs4, 4, IngestAffine))
	if err != nil {
		t.Fatal(err)
	}
	if !e.Affine() {
		t.Error("IngestAffine engine not affine")
	}
}

// TestAffineTorture is the per-shard-socket counterpart of the guard's
// 8-shard netsim torture: 8 affine read loops under the real scheduler,
// every source pinned to its delivering socket, poison packets restarting
// individual shards mid-flood, and handoffs migrating packets between live
// loops. Run under -race by `make check`.
func TestAffineTorture(t *testing.T) {
	const shards = 8
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	ios, raw := newFSFakeIOs(shards, 64)
	e, err := New(Config{
		Env:        realnet.New(),
		IOs:        ios,
		Shards:     shards,
		NewHandler: rg.newHandler,
		Observer:   panicOnPoison,
		Supervisor: SupervisorConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Close()

	const perSocket = 200
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSocket; i++ {
				src := srcAP(s*perSocket + i)
				if i%50 == 25 {
					raw[s].ch <- Packet{Src: src, Dst: srcAP(0), Payload: poison}
					continue
				}
				raw[s].ch <- Packet{Src: src, Payload: []byte{byte(s)}}
			}
		}(s)
	}
	// Concurrent migrations onto every ring while the flood runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 64; i++ {
			e.Handoff(i%shards, Packet{Src: srcAP(100000 + i), Payload: []byte{byte(i)}})
		}
	}()
	wg.Wait()

	want := uint64(shards*(perSocket-4) + 64) // 4 poison packets per socket
	waitCount(t, &rg.count, want)

	rg.mu.Lock()
	for addr, got := range rg.bySrc {
		if len(got) > 1 {
			first := got[0]
			for _, s := range got[1:] {
				if s != first {
					t.Errorf("src %v wandered across shards %v", addr, got)
					break
				}
			}
		}
	}
	rg.mu.Unlock()

	var handled, handoff uint64
	for i := 0; i < shards; i++ {
		st := e.Stats(i)
		handled += st.Handled
		handoff += st.Handoff
		if st.Handled == 0 {
			t.Errorf("shard %d handled nothing", i)
		}
	}
	if handoff != 64 {
		t.Errorf("handoff sum = %d, want 64", handoff)
	}
	// Every non-poison packet plus every migration was handled; poison
	// packets die in the recover boundary but still count as handled reads.
	if handled != uint64(shards*perSocket+64) {
		t.Errorf("handled sum = %d, want %d", handled, shards*perSocket+64)
	}
	if sup := e.Supervision(); sup.ShardRestarts == 0 {
		t.Error("poison packets caused no shard restarts")
	}
}
