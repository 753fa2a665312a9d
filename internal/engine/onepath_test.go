package engine

import (
	"fmt"
	"net/netip"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/netsim"
	"dnsguard/internal/realnet"
	"dnsguard/internal/vclock"
)

// scriptIO delivers a fixed packet sequence and then blocks until closed.
// ReadBatch hands out as many of the remaining packets as the slab holds, so
// the split into reads is a function of the slab size alone.
type scriptIO struct {
	mu     sync.Mutex
	pkts   []Packet
	closed chan struct{}
	once   sync.Once
}

func newScriptIO(pkts []Packet) *scriptIO {
	return &scriptIO{pkts: pkts, closed: make(chan struct{})}
}

func (s *scriptIO) ReadBatch(pkts []Packet, timeout time.Duration) (int, error) {
	s.mu.Lock()
	n := copy(pkts, s.pkts)
	s.pkts = s.pkts[n:]
	s.mu.Unlock()
	if n > 0 {
		return n, nil
	}
	expired, stop := expiry(timeout)
	defer stop()
	select {
	case <-s.closed:
		return 0, netapi.ErrClosed
	case <-expired:
		return 0, netapi.ErrTimeout
	}
}

func (s *scriptIO) WriteFromTo(src, dst netip.AddrPort, payload []byte) error { return nil }

func (s *scriptIO) Close() error {
	s.once.Do(func() { close(s.closed) })
	return nil
}

// topologies are the ways a test hands packets to interfaces, a shard per
// interface: all to one, round robin over two (one source can reach both),
// and over three by a netsim host's source hash (Host.TapOf), as its taps
// would get them.
var topologies = []struct {
	name string
	ios  int
	// steer picks the interface of the seq-th packet, from src.
	steer func(seq int, src netip.Addr) int
}{
	{"inline", 1, func(int, netip.Addr) int { return 0 }},
	{"affine", 2, func(seq int, _ netip.Addr) int { return seq % 2 }},
	{"hash", 3, func(_ int, src netip.Addr) int { return tapHash.TapOf(src) }},
}

// tapHash is a host with three taps: TapOf is the simulator's steering.
var tapHash = func() *netsim.Host {
	h := netsim.New(vclock.New(1), 0).AddHost("steer", netip.MustParseAddr("10.255.0.1"))
	if _, err := h.OpenTaps(3); err != nil {
		panic(err)
	}
	return h
}()

// deal hands pkts to m.ios scripts as m steers them.
func deal(m int, pkts []Packet) [][]Packet {
	scripts := make([][]Packet, topologies[m].ios)
	for i, p := range pkts {
		k := topologies[m].steer(i, p.Src.Addr())
		scripts[k] = append(scripts[k], p)
	}
	return scripts
}

// srcOn is the k-th of the sources that topology m steers to interface io
// when each is its packet's only sequence number.
func srcOn(m, io, k int) netip.AddrPort {
	for i := 0; ; i++ {
		if src := srcAP(i); topologies[m].steer(io, src.Addr()) == io {
			if k == 0 {
				return src
			}
			k--
		}
	}
}

// orderHandler appends each handled packet's sequence number (its payload
// byte) to its shard's list.
type orderHandler struct {
	order *[]byte
	count *atomic.Uint64
}

func (h orderHandler) HandlePacket(pkt Packet) {
	*h.order = append(*h.order, pkt.Payload[0])
	h.count.Add(1)
}

// One scripted sequence read at slab sizes 1 and 8 must reach the handlers
// in the same per-shard order with the same shard counters, in every
// topology: the slab size changes how many datagrams a read returns and
// nothing else.
func TestOnePathDifferential(t *testing.T) {
	const total = 96
	variants := []struct {
		name  string
		batch int
	}{
		{"slab/1", 1},
		{"slab/8", 8},
	}
	type outcome struct {
		order [][]byte
		stats []ShardStats
	}
	for mi, m := range topologies {
		t.Run(m.name, func(t *testing.T) {
			var ref outcome
			for vi, v := range variants {
				pkts := make([]Packet, total)
				for i := range pkts {
					pkts[i] = Packet{Src: srcAP(i % 17), Payload: []byte{byte(i)}}
				}
				scripts := deal(mi, pkts)
				fullSlabs := 0
				for _, sc := range scripts {
					fullSlabs += (len(sc) + 7) / 8
				}
				ios := make([]PacketIO, m.ios)
				for i := range ios {
					ios[i] = newScriptIO(scripts[i])
				}
				order := make([][]byte, m.ios)
				var count atomic.Uint64
				e, err := New(Config{
					Env:        realnet.New(),
					IOs:        ios,
					Batch:      v.batch,
					NewHandler: func(i int) Handler { return orderHandler{&order[i], &count} },
				})
				if err != nil {
					t.Fatal(err)
				}
				e.Start()
				waitCount(t, &count, total)
				e.Close() // joins the procs: order and stats are final

				ing := e.Ingest()
				if ing.Packets != total || ing.Reads == 0 || ing.Reads > ing.Packets {
					t.Errorf("%s: ingest = %+v, want %d packets", v.name, ing, total)
				}
				if v.batch == 1 && ing.Reads != ing.Packets {
					t.Errorf("%s: %d reads for %d packets, want one datagram per read", v.name, ing.Reads, ing.Packets)
				}
				if v.batch == 8 && ing.Reads != uint64(fullSlabs) {
					t.Errorf("%s: %d reads, want full slabs", v.name, ing.Reads)
				}
				got := outcome{order, e.StatsAll()}
				if vi == 0 {
					ref = got
					continue
				}
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%s diverges from %s:\ngot  %+v\nwant %+v", v.name, variants[0].name, got, ref)
				}
			}
		})
	}
}

// bracketHandler enforces the BatchHandler contract from the handler's side:
// HandlePacket only inside a BeginBatch/EndBatch pair, at most n packets per
// bracket, no nesting, and every bracket closed. Its fields are touched only
// in the owning shard's context; violations are reported through the rig.
type bracketHandler struct {
	rig    *bracketRig
	shard  int
	open   bool
	want   int
	seen   int
	resets int
}

type bracketRig struct {
	t       *testing.T
	handled atomic.Uint64
	all     []*bracketHandler // constructed by New, before any shard runs
}

func (r *bracketRig) newHandler(resetter bool) func(int) Handler {
	return func(shard int) Handler {
		h := &bracketHandler{rig: r, shard: shard}
		r.all = append(r.all, h)
		if resetter {
			return resettableBracket{h}
		}
		return h
	}
}

func (h *bracketHandler) BeginBatch(n int) {
	if h.open || n < 1 {
		h.rig.t.Errorf("shard %d: BeginBatch(%d) with open=%v", h.shard, n, h.open)
	}
	h.open, h.want, h.seen = true, n, 0
}

func (h *bracketHandler) HandlePacket(Packet) {
	h.seen++
	if !h.open || h.seen > h.want {
		h.rig.t.Errorf("shard %d: HandlePacket #%d with open=%v, bracket of %d",
			h.shard, h.seen, h.open, h.want)
	}
	h.rig.handled.Add(1)
}

func (h *bracketHandler) EndBatch() {
	if !h.open {
		h.rig.t.Errorf("shard %d: EndBatch without BeginBatch", h.shard)
	}
	h.open = false
}

// resettableBracket is a bracketHandler that counts its supervised resets.
type resettableBracket struct{ *bracketHandler }

func (r resettableBracket) ResetShard() { r.resets++ }

// Every HandlePacket runs inside a bracket, and a supervised restart in the
// middle of a slab keeps it so: the shard keeps its handler, reset in place
// if it is a Resetter.
func TestBatchBracketContract(t *testing.T) {
	for mi, m := range topologies {
		for _, resetter := range []bool{false, true} {
			for _, batch := range []int{1, 8} {
				name := fmt.Sprintf("%s/resetter=%v/batch=%d", m.name, resetter, batch)
				t.Run(name, func(t *testing.T) {
					// Three poison packets per interface, mid-slab at batch
					// 8: no shard restarts often enough to trip.
					const perIO = 64
					poisoned := map[int]bool{2: true, 21: true, 42: true}
					clean := 0
					ios := make([]PacketIO, m.ios)
					for i := range ios {
						var script []Packet
						for k := 0; k < perIO; k++ {
							p := Packet{Src: srcOn(mi, i, k%9), Dst: srcAP(0), Payload: []byte{byte(k)}}
							if poisoned[k] {
								p.Payload = poison
							} else {
								clean++
							}
							script = append(script, p)
						}
						ios[i] = newScriptIO(script)
					}
					rg := &bracketRig{t: t}
					e, err := New(Config{
						Env:        realnet.New(),
						IOs:        ios,
						Batch:      batch,
						NewHandler: rg.newHandler(resetter),
						Observer:   panicOnPoison,
						Supervisor: SupervisorConfig{Enabled: true},
					})
					if err != nil {
						t.Fatal(err)
					}
					e.Start()
					waitCount(t, &rg.handled, uint64(clean))
					e.Close() // joins the procs: handler fields are safe to read

					if got := rg.handled.Load(); got != uint64(clean) {
						t.Errorf("handled %d packets, want %d", got, clean)
					}
					restarts := e.Supervision().ShardRestarts
					if want := uint64(3 * m.ios); restarts != want {
						t.Errorf("%d restarts, want %d", restarts, want)
					}
					if len(rg.all) != m.ios {
						t.Errorf("%d handlers constructed for %d shards", len(rg.all), m.ios)
					}
					resets := 0
					for _, h := range rg.all {
						resets += h.resets
						if h.open {
							t.Errorf("shard %d: a bracket was left open", h.shard)
						}
					}
					if resetter && resets != int(restarts) {
						t.Errorf("%d resets over %d restarts", resets, restarts)
					}
				})
			}
		}
	}
}
