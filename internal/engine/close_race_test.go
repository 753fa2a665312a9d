package engine

import (
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/realnet"
)

// floodIO is a BatchReader that synthesizes packets as fast as the engine
// can read them, until closed — the sustained-ingest source the shutdown
// regression tests need. Sources rotate so every shard stays busy.
type floodIO struct {
	closed chan struct{}
	seq    atomic.Uint64
	reads  atomic.Uint64
}

func newFloodIO() *floodIO { return &floodIO{closed: make(chan struct{})} }

func (f *floodIO) gen() Packet {
	i := f.seq.Add(1)
	return Packet{
		Src:     netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 7, byte(i >> 8), byte(i)}), 4242),
		Dst:     srcAP(9999),
		Payload: []byte{byte(i), byte(i >> 8)},
	}
}

func (f *floodIO) ReadBatch(pkts []Packet, timeout time.Duration) (int, error) {
	select {
	case <-f.closed:
		return 0, netapi.ErrClosed
	default:
	}
	f.reads.Add(1)
	for i := range pkts {
		pkts[i] = f.gen()
	}
	return len(pkts), nil
}

func (f *floodIO) WriteFromTo(src, dst netip.AddrPort, payload []byte) error { return nil }

func (f *floodIO) Close() error {
	select {
	case <-f.closed:
	default:
		close(f.closed)
	}
	return nil
}

// TestCloseUnderBatchIngest closes a four-shard engine while every shard
// is mid-slab in a flood. Run under -race this pins the shutdown contract:
// Close joins every shard loop instead of racing its last dispatch, and once
// it returns every packet a loop read was handled.
func TestCloseUnderBatchIngest(t *testing.T) {
	for iter := 0; iter < 5; iter++ {
		rg := &rig{bySrc: make(map[netip.Addr][]int)}
		e, err := New(Config{
			Env:        realnet.New(),
			IOs:        []PacketIO{newFloodIO(), newFloodIO(), newFloodIO(), newFloodIO()},
			Batch:      8,
			NewHandler: rg.newHandler,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		// Let the flood reach the handlers, then tear down mid-stream.
		deadline := time.Now().Add(time.Second)
		for rg.count.Load() < 256 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		if rg.count.Load() == 0 {
			t.Fatal("flood never reached the handlers")
		}
		e.Close()

		var handled uint64
		for i := 0; i < e.Shards(); i++ {
			handled += e.Stats(i).Handled
		}
		if read := e.Ingest().Packets; handled != read || rg.count.Load() != read {
			t.Fatalf("iter %d: read %d, counted %d handled, handlers saw %d — packets vanished at shutdown",
				iter, read, handled, rg.count.Load())
		}
	}
}

// TestCloseUnderAffineIngest is the same teardown storm on two shards, each
// loop on its own interface, closed mid-flood.
func TestCloseUnderAffineIngest(t *testing.T) {
	for iter := 0; iter < 5; iter++ {
		rg := &rig{bySrc: make(map[netip.Addr][]int)}
		e, err := New(Config{
			Env:        realnet.New(),
			IOs:        []PacketIO{newFloodIO(), newFloodIO()},
			Batch:      8,
			NewHandler: rg.newHandler,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		deadline := time.Now().Add(time.Second)
		for rg.count.Load() < 256 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		if rg.count.Load() == 0 {
			t.Fatal("flood never reached the handlers")
		}
		e.Close()
	}
}
