package engine

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/realnet"
)

// newFakeIOs returns n channel-backed interfaces, each the test stand-in for
// one SO_REUSEPORT member socket, as PacketIOs and as themselves.
func newFakeIOs(n, buf int) ([]PacketIO, []*fakeIO) {
	ios := make([]PacketIO, n)
	raw := make([]*fakeIO, n)
	for i := range ios {
		raw[i] = newFakeIO(buf)
		ios[i] = raw[i]
	}
	return ios, raw
}

// A direct shard's identity is the delivering socket, not the source hash: a
// packet fed to socket k must be handled by shard k even when ShardOf(src)
// disagrees, with no queue hop.
func TestAffineShardIsDeliveringSocket(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	ios, raw := newFakeIOs(4, 16)
	e, err := New(Config{
		Env:        realnet.New(),
		IOs:        ios,
		Shards:     4,
		NewHandler: rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Direct() {
		t.Fatal("one IO per shard must be read directly")
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
		if st.Enqueued != 0 || st.ShedNew != 0 {
			t.Errorf("shard %d has queue-path counts %+v on a direct engine", i, st)
		}
	}
	if handled != 32 {
		t.Errorf("handled %d packets, want 32", handled)
	}
}

// countingIO counts the reads a loop issues on an interface that never
// delivers, and the ones that came back as timeouts.
type countingIO struct {
	*fakeIO
	reads, timeouts atomic.Uint64
}

func (c *countingIO) ReadBatch(pkts []Packet, timeout time.Duration) (int, error) {
	c.reads.Add(1)
	pkt, err := c.Read(timeout)
	if errors.Is(err, netapi.ErrTimeout) {
		c.timeouts.Add(1)
	}
	pkts[0] = pkt
	if err != nil {
		return 0, err
	}
	return 1, nil
}

// A direct shard whose interface is silent parks in one read and stays there:
// no poll, no timer, nothing for an idle guard to wake up for.
func TestDirectShardBlocksWhenIdle(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	ios := []*countingIO{{fakeIO: newFakeIO(0)}, {fakeIO: newFakeIO(0)}}
	e, err := New(Config{
		Env:        realnet.New(),
		IOs:        []PacketIO{ios[0], ios[1]},
		Shards:     2,
		NewHandler: rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !e.Direct() {
		t.Fatal("one IO per shard must be read directly")
	}
	e.Start()
	defer e.Close()
	for _, io := range ios {
		waitCount(t, &io.reads, 1)
	}
	time.Sleep(100 * time.Millisecond)
	for i, io := range ios {
		if r, to := io.reads.Load(), io.timeouts.Load(); r != 1 || to != 0 {
			t.Errorf("idle shard %d issued %d reads, %d timed out; want 1 blocking read", i, r, to)
		}
	}
}

// The topology is a function of two counts: direct with one interface per
// shard, fan-out from exactly one reader with one interface for several
// shards, and an error for any other shape.
func TestTopologyRule(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	env := &procCountEnv{Env: realnet.New()}
	for _, c := range []struct {
		ios, shards int
		direct, ok  bool
	}{
		{1, 0, true, true},
		{1, 1, true, true},
		{2, 2, true, true},
		{1, 2, false, true},
		{1, 8, false, true},
		{3, 2, false, false},
		{2, 1, false, false},
		{2, 4, false, false},
	} {
		name := fmt.Sprintf("%d IOs, %d shards", c.ios, c.shards)
		ios, _ := newFakeIOs(c.ios, 4)
		e, err := New(Config{Env: env, IOs: ios, Shards: c.shards, NewHandler: rg.newHandler})
		if !c.ok {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d interfaces for %d shards", c.ios, c.shards)) {
				t.Errorf("%s: New error = %v, want one naming both counts", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Direct() != c.direct {
			t.Errorf("%s: direct = %v, want %v", name, e.Direct(), c.direct)
		}
		for i := 0; i < e.Shards(); i++ {
			if hasQueue := e.shards[i].queue != nil; hasQueue == c.direct {
				t.Errorf("%s: shard %d queue present = %v", name, i, hasQueue)
			}
		}
		env.names = nil
		e.Start()
		e.Close()
		readers, workers := 0, 0
		for _, n := range env.names {
			if strings.Contains(n, "-worker-") {
				workers++
			} else {
				readers++
			}
		}
		wantWorkers := 0
		if !c.direct {
			wantWorkers = e.Shards()
		}
		if readers != c.ios || workers != wantWorkers {
			t.Errorf("%s: procs %v, want %d reading and %d workers", name, env.names, c.ios, wantWorkers)
		}
	}
}

// procCountEnv records the name of every proc the engine spawns.
type procCountEnv struct {
	netapi.Env
	mu    sync.Mutex
	names []string
}

func (p *procCountEnv) Go(name string, fn func()) {
	p.mu.Lock()
	p.names = append(p.names, name)
	p.mu.Unlock()
	p.Env.Go(name, fn)
}

// TestAffineTorture is the per-shard-socket counterpart of the guard's
// 8-shard netsim torture: 8 direct read loops under the real scheduler,
// every source pinned to its delivering socket, poison packets restarting
// individual shards mid-flood. Run under -race by `make check`.
func TestAffineTorture(t *testing.T) {
	const shards = 8
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	ios, raw := newFakeIOs(shards, 64)
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
	wg.Wait()

	want := uint64(shards * (perSocket - 4)) // 4 poison packets per socket
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

	var handled uint64
	for i := 0; i < shards; i++ {
		st := e.Stats(i)
		handled += st.Handled
		if st.Handled == 0 {
			t.Errorf("shard %d handled nothing", i)
		}
	}
	// Poison packets die in the recover boundary but still count as handled
	// reads.
	if handled != shards*perSocket {
		t.Errorf("handled sum = %d, want %d", handled, shards*perSocket)
	}
	if sup := e.Supervision(); sup.ShardRestarts == 0 {
		t.Error("poison packets caused no shard restarts")
	}
}
