// Package engine is the guard's dataplane: a sharded, multi-worker packet
// pipeline between capture interfaces and a protocol handler.
//
// The paper's premise (§IV, Figure 6) is that the guard must keep absorbing
// line-rate floods while the ANS behind it collapses; operational follow-ups
// (Rizvi et al.'s layered root defense, Wei & Heidemann's spoof studies)
// absorb anycast-scale floods by partitioning per-source state and steering
// each source to its partition where packets arrive. The engine provides the
// partition:
//
//   - one shard per capture interface (Config.IOs): interface i is shard i,
//     and shard i owns all per-source guard state of the sources its
//     interface delivers (pending-NAT table, cookie verifier, rate limiters),
//     so the hot path takes no cross-shard locks. The environment steers
//     every datagram of a source to one interface — SO_REUSEPORT siblings on
//     a real host, the source-hashed taps of netsim.Host.OpenTaps in the
//     simulator — and the engine does not check;
//   - backpressure that judges nothing: an interface that is not read fast
//     enough tail-drops what arrives, as a kernel socket buffer does, and an
//     interface that counts those drops (Dropper) reports them as ShedNew;
//     which packet deserves service is the handler's decision alone;
//   - per-shard counter sinks on private cachelines: nothing on the packet
//     hot path writes a cacheline another shard writes; engine-wide totals
//     are aggregated only at metrics-scrape time.
//
// One loop carries every datagram (batch.go): each shard blocks in a read on
// its own interface and handles what it reads in place. With one shard on
// one interface that is one proc with the event ordering of a plain capture
// loop, so deterministic simulations reproduce byte-for-byte. The loop moves
// Config.Batch-slot slabs; a single datagram is a slab of one, not a
// separate path.
package engine

import (
	"errors"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
	"dnsguard/internal/srctab"
)

// Packet is a raw datagram as the dataplane sees it.
type Packet = netapi.Packet

// PacketIO is a capture interface: it reads intercepted datagrams through
// its BatchReader, which every interface the engine starts has, and writes
// datagrams with arbitrary (owned) source addresses. A netsim tap is one as
// it is, a realnet socket through guard.SocketIO.
//
// ReadBatch is outside this method set only while bench/layers builds an
// engine it never starts, for the verified cache, over an interface with no
// read; both go with ROADMAP item 1(a), and BatchReader folds in here.
type PacketIO interface {
	// WriteFromTo emits a datagram with an explicit source.
	WriteFromTo(src, dst netip.AddrPort, payload []byte) error
	Close() error
}

// Handler consumes packets on one shard. HandlePacket is called from that
// shard's worker only, so a handler may keep per-shard state without locks.
// pkt.Payload is borrowed for the call: the handler may patch it in place
// but copies whatever it keeps.
type Handler interface {
	HandlePacket(pkt Packet)
}

// Dropper is an optional PacketIO capability: the number of datagrams the
// interface tail-dropped because its receive queue was full, a count that
// only grows. A netsim tap has it; a real socket has not yet, so its shard
// reports 0.
type Dropper interface {
	Dropped() uint64
}

// Config parameterizes an Engine.
type Config struct {
	// Env supplies clock and procs.
	Env netapi.Env
	// IOs are the capture interfaces, one per shard: interface i is shard
	// i, and the shard count is len(IOs). Handing over several asserts that
	// the environment steers every datagram of a source to the same
	// interface, as SO_REUSEPORT siblings and netsim's taps do; the engine
	// does not check.
	IOs []PacketIO
	// NewHandler constructs the handler for shard i, called once per shard by
	// New: a shard keeps its handler for the engine's life.
	NewHandler func(shard int) Handler
	// Batch is the slab size: the most datagrams one read may return. 0
	// and 1 mean one datagram per read. The loop is the same at every
	// value; larger slabs amortize the read call over the packets that were
	// already waiting.
	Batch int
	// FastPathTTL is the verified-source cache's TTL. 0 means no cache: no
	// table is built, MarkVerifiedOn is a no-op and every probe misses. A
	// shard caches at most fastPathSources sources.
	//
	// Deprecated: only bench/layers sets it; the guard keeps verified
	// sources in Rate-Limiter2's records. It goes with ROADMAP item 1(a).
	FastPathTTL time.Duration
	// Observer, when non-nil, is called in the shard's loop right before
	// the handler sees each packet. Test hook for affinity assertions; keep
	// it cheap. It runs inside the shard's recover boundary, which makes it
	// the panic-injection hook too.
	Observer func(shard int, pkt Packet)
	// Supervisor gates shard supervision (packet quarantine, restart budget,
	// trip policy). The zero value re-raises a handler panic.
	Supervisor SupervisorConfig
}

func (c *Config) fillDefaults() error {
	switch {
	case c.Env == nil:
		return errors.New("engine: Config.Env is required")
	case len(c.IOs) == 0:
		return errors.New("engine: Config.IOs is required")
	case c.NewHandler == nil:
		return errors.New("engine: Config.NewHandler is required")
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	return nil
}

const (
	// fastPathSources bounds each shard's verified-source cache.
	fastPathSources = 4096
	// procPrefix prefixes proc names ("guard-capture", "guard-shard-3"). The
	// loop of a lone shard is "guard-capture", the pre-engine guard's proc
	// name, which recorded simulations replay against.
	procPrefix = "guard"
)

// ShardStats counts one shard's dataplane activity.
type ShardStats struct {
	ShedNew uint64 // datagrams the shard's interface tail-dropped (Dropper)
	Handled uint64 // packets the shard handler consumed
}

// shardState is everything one shard touches on the packet hot path, one
// heap allocation per shard so no two shards write the same cacheline. The
// atomic counter sinks sit at the head of the struct; pad at the tail keeps
// a neighboring allocation's hot head off this shard's last line.
type shardState struct {
	ingest IngestStats // the shard loop's read counters, written atomically

	dropper  Dropper // the interface's drop count; nil when it keeps none
	verified verifiedShard

	_ [64]byte // tail pad: next allocation's hot fields get their own line
}

// Engine is the running dataplane. Create with New, then Start.
type Engine struct {
	cfg      Config
	handlers []Handler     // fixed for the engine's life
	shards   []*shardState // one allocation per shard: no shared cachelines
	sup      supervisor
	coop     bool // Env schedules cooperatively: Close must not OS-join procs
	closed   atomic.Bool
	wg       sync.WaitGroup // tracks the shard loops for Close
}

// IngestStats counts capture reads. Reads is I/O calls that returned
// datagrams, Packets the datagrams — Packets/Reads is the achieved slab
// fill, exactly 1 at Batch 1.
type IngestStats struct {
	Reads   uint64
	Packets uint64
}

// New validates cfg, constructs the per-shard handlers, and returns the
// engine (not yet started).
func New(cfg Config) (*Engine, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	n := len(cfg.IOs)
	e := &Engine{
		cfg:      cfg,
		handlers: make([]Handler, n),
		shards:   make([]*shardState, n),
		coop:     netapi.Capabilities(cfg.Env).Cooperative,
	}
	e.sup.shards = make([]supShard, n)
	for i, io := range cfg.IOs {
		e.handlers[i] = cfg.NewHandler(i)
		sh := new(shardState)
		sh.dropper, _ = io.(Dropper)
		if cfg.FastPathTTL > 0 {
			sh.verified.tab = srctab.New[verifiedEntry](fastPathSources, srctab.FIFO)
		}
		e.shards[i] = sh
	}
	return e, nil
}

// Shards reports the shard count: one per capture interface.
func (e *Engine) Shards() int { return len(e.shards) }

// IO returns the interface shard i reads, which is the one its replies should
// leave through.
func (e *Engine) IO(i int) PacketIO { return e.cfg.IOs[i] }

// Start spawns one shard loop per interface; a lone one is "guard-capture".
// It panics on an interface that is no BatchReader.
func (e *Engine) Start() {
	for i, io := range e.cfg.IOs {
		i, br := i, io.(BatchReader)
		name := procPrefix + "-shard-" + strconv.Itoa(i)
		if len(e.shards) == 1 {
			name = procPrefix + "-capture"
		}
		e.spawn(name, func() { e.runShard(i, br) })
	}
}

// spawn launches a tracked engine proc so Close can join it on preemptive
// environments.
func (e *Engine) spawn(name string, fn func()) {
	e.wg.Add(1)
	e.cfg.Env.Go(name, func() {
		defer e.wg.Done()
		fn()
	})
}

// Close stops the dataplane: the capture interfaces close and the shard
// loops exit. On preemptive environments Close then joins every engine proc,
// so a caller that closes the engine holds no leaked goroutines still
// touching handlers or stats. Cooperative environments (netsim) skip the
// join — their procs may only block through vclock primitives, and an
// OS-level WaitGroup wait from inside a simulated proc would wedge the
// scheduler; the simulator's own drain semantics retire the procs instead.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	for _, io := range e.cfg.IOs {
		io.Close()
	}
	if !e.coop {
		e.wg.Wait()
	}
}

// Stats returns shard i's counters: Handled is every packet the shard loop
// read, each of which it handed to the handler; ShedNew is the interface's
// drop count at this moment.
func (e *Engine) Stats(i int) ShardStats {
	sh := e.shards[i]
	st := ShardStats{Handled: atomic.LoadUint64(&sh.ingest.Packets)}
	if sh.dropper != nil {
		st.ShedNew = sh.dropper.Dropped()
	}
	return st
}

// StatsAll returns every shard's counters, indexed by shard — the per-shard
// view benchmarks and fleet roll-ups serialize (Stats(i) in one call).
func (e *Engine) StatsAll() []ShardStats {
	out := make([]ShardStats, len(e.shards))
	for i := range e.shards {
		out[i] = e.Stats(i)
	}
	return out
}

// Ingest returns the engine-wide capture-read counters, summed across the
// shards at call time.
func (e *Engine) Ingest() IngestStats {
	var t IngestStats
	for _, sh := range e.shards {
		metrics.AddUint64(&t, &sh.ingest)
	}
	return t
}

// MetricsInto registers the engine's series on r under prefix (e.g.
// "guard_engine_"): the shard count, shed and handled totals, ingest
// counters, supervision counters, and per-shard shard<i>_* series. Totals
// sum the per-shard sinks and the interfaces' drop counts at scrape time —
// the hot path never writes a shared counter.
func (e *Engine) MetricsInto(r *metrics.Registry, prefix string) {
	r.FuncUint(prefix+"shards", func() uint64 { return uint64(len(e.shards)) })
	for _, f := range [...]struct {
		name string
		of   func(ShardStats) uint64
	}{
		{"shed_new", func(s ShardStats) uint64 { return s.ShedNew }},
		{"handled", func(s ShardStats) uint64 { return s.Handled }},
	} {
		r.FuncUint(prefix+f.name, func() (t uint64) {
			for i := range e.shards {
				t += f.of(e.Stats(i))
			}
			return t
		})
		for i := range e.shards {
			r.FuncUint(prefix+"shard"+strconv.Itoa(i)+"_"+f.name, func() uint64 { return f.of(e.Stats(i)) })
		}
	}
	r.FuncUint(prefix+"ingest_reads", func() uint64 { return e.Ingest().Reads })
	r.FuncUint(prefix+"ingest_packets", func() uint64 { return e.Ingest().Packets })
	// Supervision series (shard_restarts, panics_quarantined, …) are
	// registered unconditionally: a flat zero from an unsupervised engine is
	// more operable than a series that appears only after the first panic.
	metrics.RegisterUint64Fields(r, prefix, SupervisionStatsNames, e.Supervision)
}
