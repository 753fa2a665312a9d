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

func (f *floodIO) Read(timeout time.Duration) (Packet, error) {
	select {
	case <-f.closed:
		return Packet{}, netapi.ErrClosed
	default:
		return f.gen(), nil
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

// TestCloseUnderBatchIngest closes the engine while the batch reader is
// mid-slab and shard queues are full of pooled groups. Run under -race this
// pins the shutdown ownership contract the qbatch pool relies on: a
// group a closed queue refused must be recycled exactly once, never handed
// to a worker afterwards, and Close must join every proc instead of racing
// their final pool puts.
func TestCloseUnderBatchIngest(t *testing.T) {
	for iter := 0; iter < 5; iter++ {
		rg := &rig{bySrc: make(map[netip.Addr][]int)}
		e, err := New(Config{
			Env:        realnet.New(),
			IOs:        []PacketIO{newFloodIO()},
			Shards:     4,
			Batch:      8,
			QueueDepth: 16,
			NewHandler: rg.newHandler,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		// Let the flood saturate the queues, then tear down mid-stream.
		deadline := time.Now().Add(time.Second)
		for rg.count.Load() < 256 && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		if rg.count.Load() == 0 {
			t.Fatal("flood never reached the handlers")
		}
		e.Close()

		// Workers empty a closed queue before they exit, so once Close has
		// joined them every enqueued packet was handled: a refused group that
		// was also counted Enqueued would break this.
		var enq, handled uint64
		for i := 0; i < e.Shards(); i++ {
			st := e.Stats(i)
			enq += st.Enqueued
			handled += st.Handled
		}
		if handled != enq {
			t.Fatalf("iter %d: enqueued %d, handled %d — packets vanished at shutdown", iter, enq, handled)
		}
	}
}

// TestCloseUnderAffineIngest is the same teardown storm on the direct
// topology: per-shard read loops, closed mid-flood.
func TestCloseUnderAffineIngest(t *testing.T) {
	for iter := 0; iter < 5; iter++ {
		rg := &rig{bySrc: make(map[netip.Addr][]int)}
		e, err := New(Config{
			Env:        realnet.New(),
			IOs:        []PacketIO{newFloodIO(), newFloodIO()},
			Shards:     2,
			Batch:      8,
			NewHandler: rg.newHandler,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !e.Direct() {
			t.Fatal("one IO per shard must be read directly")
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
