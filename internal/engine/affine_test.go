package engine

import (
	"errors"
	"fmt"
	"net/netip"
	"slices"
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

// A shard's identity is the delivering socket: a packet fed to socket k is
// handled by shard k, with no queue hop, whatever its source.
func TestAffineShardIsDeliveringSocket(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	ios, raw := newFakeIOs(4, 16)
	e, err := New(Config{
		Env:        realnet.New(),
		IOs:        ios,
		NewHandler: rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Close()

	// Deliver each source to a socket no hash of it would pick.
	sent := make(map[netip.Addr]int)
	for i := 0; i < 32; i++ {
		src := srcAP(i)
		socket := (i*3 + 1) % 4
		sent[src.Addr()] = socket
		raw[socket].ch <- Packet{Src: src, Payload: []byte{1}}
	}
	waitCount(t, &rg.count, 32)

	rg.mu.Lock()
	defer rg.mu.Unlock()
	for addr, socket := range sent {
		got := rg.bySrc[addr]
		if len(got) != 1 || got[0] != socket {
			t.Errorf("src %v delivered to socket %d handled by shards %v", addr, socket, got)
		}
	}
	var handled uint64
	for i := 0; i < 4; i++ {
		st := e.Stats(i)
		handled += st.Handled
		if st.ShedNew != 0 {
			t.Errorf("shard %d sheds %d from an interface that counts no drops", i, st.ShedNew)
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
	n, err := c.fakeIO.ReadBatch(pkts, timeout)
	if errors.Is(err, netapi.ErrTimeout) {
		c.timeouts.Add(1)
	}
	return n, err
}

// A direct shard whose interface is silent parks in one read and stays there:
// no poll, no timer, nothing for an idle guard to wake up for.
func TestDirectShardBlocksWhenIdle(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	ios := []*countingIO{{fakeIO: newFakeIO(0)}, {fakeIO: newFakeIO(0)}}
	e, err := New(Config{
		Env:        realnet.New(),
		IOs:        []PacketIO{ios[0], ios[1]},
		NewHandler: rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
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

// The topology is a function of one count: a shard and its loop per
// interface, a lone one named as the pre-engine capture proc, and no
// interface at all an error.
func TestTopologyRule(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	env := &procCountEnv{Env: realnet.New()}
	if _, err := New(Config{Env: env, NewHandler: rg.newHandler}); err == nil {
		t.Error("New accepted no interface")
	}
	for n := 1; n <= 3; n++ {
		ios, _ := newFakeIOs(n, 4)
		e, err := New(Config{Env: env, IOs: ios, NewHandler: rg.newHandler})
		if err != nil {
			t.Fatalf("%d IOs: %v", n, err)
		}
		if e.Shards() != n {
			t.Errorf("%d IOs: %d shards", n, e.Shards())
		}
		for i := 0; i < n; i++ {
			if e.IO(i) != ios[i] {
				t.Errorf("%d IOs: shard %d reads another interface", n, i)
			}
		}
		env.names = nil
		e.Start()
		e.Close()
		want := []string{"guard-capture"}
		if n > 1 {
			want = nil
			for i := 0; i < n; i++ {
				want = append(want, fmt.Sprintf("guard-shard-%d", i))
			}
		}
		slices.Sort(env.names)
		if !slices.Equal(env.names, want) {
			t.Errorf("%d IOs: procs %v, want %v", n, env.names, want)
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
