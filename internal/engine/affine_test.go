package engine

import (
	"errors"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsguard/internal/netapi"
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

// A direct shard's identity is the delivering socket, not the source hash: a
// packet fed to socket k must be handled by shard k even when ShardOf(src)
// disagrees, with no queue hop.
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
	if !e.Direct() {
		t.Fatal("one flow-stable IO per shard must be read directly")
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
	fsFakeIO
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
	ios := []*countingIO{{fsFakeIO: fsFakeIO{newFakeIO(0)}}, {fsFakeIO: fsFakeIO{newFakeIO(0)}}}
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
		t.Fatal("one flow-stable IO per shard must be read directly")
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

// The topology is a function of the interfaces and the shard count: direct
// with one interface per shard when there is a single shard or every interface
// is flow-stable, the fan-out for everything else.
func TestTopologyRule(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	ios := func(stable, plain int) []PacketIO {
		out, _ := newFSFakeIOs(stable, 4)
		for i := 0; i < plain; i++ {
			out = append(out, newFakeIO(4))
		}
		return out
	}
	for _, c := range []struct {
		name   string
		ios    []PacketIO
		shards int
		direct bool
	}{
		{"1 plain IO, 1 shard", ios(0, 1), 1, true},
		{"1 plain IO, shards unset", ios(0, 1), 0, true},
		{"1 stable IO, 1 shard", ios(1, 0), 1, true},
		{"2 stable IOs, 2 shards", ios(2, 0), 2, true},
		{"4 stable IOs, 4 shards", ios(4, 0), 4, true},
		{"2 plain IOs, 2 shards", ios(0, 2), 2, false},
		{"3 stable + 1 plain IO, 4 shards", ios(3, 1), 4, false},
		{"1 stable IO, 2 shards", ios(1, 0), 2, false},
		{"3 stable IOs, 2 shards", ios(3, 0), 2, false},
		{"2 stable IOs, 1 shard", ios(2, 0), 1, false},
	} {
		e, err := New(Config{Env: realnet.New(), IOs: c.ios, Shards: c.shards, NewHandler: rg.newHandler})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if e.Direct() != c.direct {
			t.Errorf("%s: direct = %v, want %v", c.name, e.Direct(), c.direct)
		}
		for i := 0; i < e.Shards(); i++ {
			if hasQueue := e.shards[i].queue != nil; hasQueue == c.direct {
				t.Errorf("%s: shard %d queue present = %v", c.name, i, hasQueue)
			}
		}
	}
}

// TestAffineTorture is the per-shard-socket counterpart of the guard's
// 8-shard netsim torture: 8 direct read loops under the real scheduler,
// every source pinned to its delivering socket, poison packets restarting
// individual shards mid-flood. Run under -race by `make check`.
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
