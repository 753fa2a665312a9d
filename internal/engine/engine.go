// Package engine is the guard's dataplane: a sharded, multi-worker packet
// pipeline between capture interfaces and a protocol handler.
//
// The paper's premise (§IV, Figure 6) is that the guard must keep absorbing
// line-rate floods while the ANS behind it collapses; operational follow-ups
// (Rizvi et al.'s layered root defense, Wei & Heidemann's spoof studies)
// absorb anycast-scale floods by partitioning per-source state and giving
// recently-vetted sources a cheap admission path. The engine provides the
// partition (the cheap path is the guard's, in the state a shard owns):
//
//   - N worker shards, each owning all per-source guard state (pending-NAT
//     table, cookie verifier, rate limiters and the verified sources'
//     records), so the hot path takes no cross-shard locks;
//   - two ingest arrangements, told apart by counting what the caller hands
//     over (Config.IOs): direct, one interface per shard, where interface i is
//     shard i and each shard runs one blocking read loop on its own socket
//     and dispatches in place — no queue hop, nothing crosses shards; and
//     fan-out, one interface for several shards, where its one reader hashes
//     each source onto a bounded per-shard ingress queue;
//   - backpressure that judges nothing: a full fan-out queue tail-drops what
//     arrives (counted as ShedNew), as a direct shard's kernel socket buffer
//     does; which packet deserves service is the handler's decision alone;
//   - per-shard counter sinks on private cachelines: nothing on the packet
//     hot path writes a cacheline another shard writes; engine-wide totals
//     are aggregated only at metrics-scrape time.
//
// Three loops carry every datagram (batch.go). The shard loop reads an
// interface and handles what it reads in place: the direct topology runs one
// per shard, and with one shard on one interface that is one proc with the
// event ordering of a plain capture loop, so deterministic simulations
// reproduce byte-for-byte. The fan-out pairs one reader loop with a worker
// loop per shard. All three move Config.Batch-slot slabs; a
// single datagram is a slab of one, not a separate path.
package engine

import (
	"errors"
	"hash/maphash"
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

// PacketIO is a capture interface: read intercepted datagrams, write
// datagrams with arbitrary (owned) source addresses. netsim taps and realnet
// sockets both adapt to it.
type PacketIO interface {
	// Read blocks until a packet arrives, the timeout elapses, or the
	// interface closes. The payload is lent: it is valid until the next
	// read on the interface, and a caller that keeps it longer copies it.
	Read(timeout time.Duration) (Packet, error)
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

// Config parameterizes an Engine.
type Config struct {
	// Env supplies clock, procs, and (optionally) netapi.QueueEnv.
	Env netapi.Env
	// IOs are the capture interfaces: one per shard (direct — interface i
	// is shard i) or exactly one for all of them (fan-out from its reader);
	// New refuses any other count. One interface per shard asserts that the
	// environment steers every datagram of a source to the same interface,
	// as SO_REUSEPORT siblings do; the engine does not check.
	IOs []PacketIO
	// NewHandler constructs the handler for shard i, called once per shard by
	// New: a shard keeps its handler for the engine's life.
	NewHandler func(shard int) Handler
	// Shards is the worker count. 0 and 1 mean one shard. How packets reach a
	// shard follows from len(IOs) and Shards; nothing selects it.
	Shards int
	// QueueDepth bounds each shard's ingress queue in the fan-out. 0 means
	// 512.
	QueueDepth int
	// Batch is the slab size: the most datagrams one read may return (an
	// interface without BatchReader returns one regardless). 0 and 1 mean
	// one datagram per read. The loops are the same at every value; larger
	// slabs amortize the read call, and in the fan-out the queue operation
	// and its lock, over the packets that were already waiting.
	Batch int
	// FastPathTTL is the verified-source cache's TTL. 0 means no cache: no
	// table is built, MarkVerifiedOn is a no-op and every probe misses. A
	// shard caches at most fastPathSources sources.
	//
	// Deprecated: only bench/layers sets it; the guard keeps verified
	// sources in Rate-Limiter2's records. It goes with ROADMAP item 1(a).
	FastPathTTL time.Duration
	// Observer, when non-nil, is called in the shard's context (the worker,
	// or the direct shard loop) right before the handler sees each packet.
	// Test hook for affinity assertions; keep it cheap. It runs inside the
	// shard's recover boundary, which makes it the panic-injection hook too.
	Observer func(shard int, pkt Packet)
	// Supervisor gates shard supervision (packet quarantine, restart budget,
	// trip policy). The zero value re-raises a handler panic.
	Supervisor SupervisorConfig
	// HashSeed, when non-zero, replaces the per-engine random shard hash
	// with a fixed FNV-1a keyed by this value, so the source→shard mapping
	// is identical across runs and processes. Deterministic simulations use
	// it for bit-identical multi-shard replays; production keeps 0 (a fresh
	// random seed per engine, unpredictable to attackers probing shard
	// placement).
	HashSeed uint64
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
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if n := len(c.IOs); n != 1 && n != c.Shards {
		return errors.New("engine: " + strconv.Itoa(n) + " interfaces for " + strconv.Itoa(c.Shards) + " shards: want one per shard or one for all")
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 512
	}
	if c.Batch <= 0 {
		c.Batch = 1
	}
	return nil
}

const (
	// fastPathSources bounds each shard's verified-source cache.
	fastPathSources = 4096
	// procPrefix prefixes proc names ("guard-capture", "guard-worker-3"). The
	// proc reading a lone interface is "guard-capture", the pre-engine guard's
	// proc name, which recorded simulations replay against.
	procPrefix = "guard"
)

// ShardStats counts one shard's dataplane activity. Fields are written
// atomically (readers and the shard worker race under real clocks).
type ShardStats struct {
	Enqueued uint64 // packets accepted onto the shard queue (fan-out)
	ShedNew  uint64 // packets tail-dropped at a full or closed queue
	Handled  uint64 // packets the shard handler consumed
}

// ShardStatsNames names ShardStats' fields in order (summed and per shard).
var ShardStatsNames = []string{"enqueued", "shed_new", "handled"}

// shardState is everything one shard touches on the packet hot path, one
// heap allocation per shard so no two shards write the same cacheline. The
// atomic counter sinks sit at the head of the struct; pad at the tail keeps
// a neighboring allocation's hot head off this shard's last line.
type shardState struct {
	stats ShardStats // this shard's dataplane counters

	verified verifiedShard
	queue    netapi.Queue // ingress queue (fan-out; nil on a direct shard)
	wait     *metrics.Histogram

	_ [64]byte // tail pad: next allocation's hot fields get their own line
}

// ingestSink is one reading proc's read counters, padded to a full cacheline
// so two direct shards never share one.
type ingestSink struct {
	IngestStats
	_ [48]byte
}

// Engine is the running dataplane. Create with New, then Start.
type Engine struct {
	cfg      Config
	handlers []Handler     // fixed for the engine's life
	shards   []*shardState // one allocation per shard: no shared cachelines
	ingest   []*ingestSink // one per interface, likewise isolated
	sup      supervisor
	seed     maphash.Seed
	direct   bool // interface i is shard i: one shard loop each, no queues
	coop     bool // Env schedules cooperatively: Close must not OS-join procs
	closed   atomic.Bool
	wg       sync.WaitGroup // tracks reader and worker procs for Close
}

// IngestStats counts capture reads. Reads is I/O calls that returned
// datagrams, Packets the datagrams — Packets/Reads is the achieved slab
// fill, exactly 1 at Batch 1.
type IngestStats struct {
	Reads   uint64
	Packets uint64
}

func (s *IngestStats) add(o IngestStats) {
	s.Reads += o.Reads
	s.Packets += o.Packets
}

// New validates cfg, constructs the per-shard handlers, and returns the
// engine (not yet started).
func New(cfg Config) (*Engine, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:      cfg,
		handlers: make([]Handler, cfg.Shards),
		shards:   make([]*shardState, cfg.Shards),
		ingest:   make([]*ingestSink, len(cfg.IOs)),
		seed:     maphash.MakeSeed(),
		direct:   len(cfg.IOs) == cfg.Shards,
	}
	caps := netapi.Capabilities(cfg.Env)
	e.coop = caps.Cooperative
	e.sup.shards = make([]supShard, cfg.Shards)
	for i := range e.handlers {
		e.handlers[i] = cfg.NewHandler(i)
		sh := &shardState{wait: metrics.NewHistogram()}
		if cfg.FastPathTTL > 0 {
			sh.verified.tab = srctab.New[verifiedEntry](fastPathSources, srctab.FIFO)
		}
		if !e.direct {
			sh.queue = caps.NewQueue(cfg.QueueDepth)
		}
		e.shards[i] = sh
	}
	for i := range e.ingest {
		e.ingest[i] = new(ingestSink)
	}
	return e, nil
}

// Shards reports the configured shard count.
func (e *Engine) Shards() int { return e.cfg.Shards }

// Direct reports whether each shard reads its own interface (shard identity =
// delivering interface) rather than sitting behind the source-hash fan-out.
func (e *Engine) Direct() bool { return e.direct }

// IO returns the interface shard i reads, which is the one its replies should
// leave through: interface i on a direct engine, the lone one in the fan-out.
func (e *Engine) IO(i int) PacketIO {
	if e.direct {
		return e.cfg.IOs[i]
	}
	return e.cfg.IOs[0]
}

// ShardOf maps a source address to its owning shard in the fan-out, where
// affinity is the correctness contract: every packet from one source is
// handled by one shard, so per-source guard state never crosses workers. On a
// direct engine the delivering interface — not this hash — decides ownership.
func (e *Engine) ShardOf(src netip.Addr) int {
	if e.cfg.Shards == 1 {
		return 0
	}
	a16 := src.As16()
	if e.cfg.HashSeed != 0 {
		// Fixed-seed FNV-1a: same mapping every run (see Config.HashSeed).
		h := e.cfg.HashSeed ^ 0xcbf29ce484222325
		for _, b := range a16 {
			h ^= uint64(b)
			h *= 0x100000001b3
		}
		return int(h % uint64(e.cfg.Shards))
	}
	var h maphash.Hash
	h.SetSeed(e.seed)
	h.Write(a16[:])
	return int(h.Sum64() % uint64(e.cfg.Shards))
}

// Start spawns the engine's procs. A direct engine runs one shard loop per
// interface (a lone one is "guard-capture"); the fan-out runs a worker per
// shard and the one reader, under that same name.
func (e *Engine) Start() {
	if e.direct {
		for i, io := range e.cfg.IOs {
			i, br := i, batchReader(io)
			name := procPrefix + "-shard-" + strconv.Itoa(i)
			if e.cfg.Shards == 1 {
				name = procPrefix + "-capture"
			}
			e.spawn(name, func() { e.runShard(i, br) })
		}
		return
	}
	// Workers first, then the reader: under the simulator this spawn order
	// is deterministic, and workers must exist before the reader can enqueue.
	for i := range e.shards {
		i := i
		e.spawn(procPrefix+"-worker-"+strconv.Itoa(i), func() { e.runWorker(i) })
	}
	br := batchReader(e.cfg.IOs[0])
	e.spawn(procPrefix+"-capture", func() { e.runReader(br) })
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

// Close stops the dataplane: capture interfaces close (readers exit) and
// queues close (workers exit after draining). On preemptive environments
// Close then joins every engine proc, so a caller that closes the engine
// holds no leaked goroutines still touching handlers or stats. Cooperative
// environments (netsim) skip the join — their procs may only block through
// vclock primitives, and an OS-level WaitGroup wait from inside a simulated
// proc would wedge the scheduler; the simulator's own drain semantics retire
// the procs instead.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	for _, io := range e.cfg.IOs {
		io.Close()
	}
	for _, sh := range e.shards {
		if sh.queue != nil {
			sh.queue.Close()
		}
	}
	if !e.coop {
		e.wg.Wait()
	}
}

// Stats returns an atomically-read copy of shard i's counters.
func (e *Engine) Stats(i int) ShardStats {
	return metrics.SnapshotUint64(&e.shards[i].stats)
}

// StatsAll returns an atomically-read copy of every shard's counters,
// indexed by shard — the per-shard view benchmarks and fleet roll-ups
// serialize (Stats(i) in one call).
func (e *Engine) StatsAll() []ShardStats {
	out := make([]ShardStats, len(e.shards))
	for i := range e.shards {
		out[i] = metrics.SnapshotUint64(&e.shards[i].stats)
	}
	return out
}

// Ingest returns the engine-wide capture-read counters, summed across the
// per-interface sinks at call time.
func (e *Engine) Ingest() IngestStats {
	var t IngestStats
	for _, s := range e.ingest {
		t.add(metrics.SnapshotUint64(&s.IngestStats))
	}
	return t
}

// QueueDepth reports the current backlog of shard i (0 on a direct engine,
// which has no ingress queue).
func (e *Engine) QueueDepth(i int) int {
	if e.shards[i].queue == nil {
		return 0
	}
	return e.shards[i].queue.Len()
}

// Backlog totals the packets parked in the ingress queues: what the fan-out
// has accepted and no handler has seen yet (always 0 on a direct engine).
func (e *Engine) Backlog() int {
	t := 0
	for i := range e.shards {
		t += e.QueueDepth(i)
	}
	return t
}

// QueueBound reports the depth each shard's ingress queue is bounded at:
// Config.QueueDepth, or the default it left to the engine.
func (e *Engine) QueueBound() int { return e.cfg.QueueDepth }

// MetricsInto registers the engine's series on r under prefix (e.g.
// "guard_engine_"): aggregate enqueued/shed/handled/queue_depth
// counters, ingest counters, and per-shard shard<i>_* series
// including the queue-wait histogram. Aggregates sum the per-shard and
// per-interface sinks at scrape time — the hot path never writes a shared
// counter.
func (e *Engine) MetricsInto(r *metrics.Registry, prefix string) {
	r.FuncUint(prefix+"shards", func() uint64 { return uint64(e.cfg.Shards) })
	// 1 when several shards each read their own interface; the name predates
	// the topology rule and recorded exports carry it.
	r.FuncUint(prefix+"ingest_affine", func() uint64 {
		if e.direct && e.cfg.Shards > 1 {
			return 1
		}
		return 0
	})
	stats := make([]*ShardStats, len(e.shards))
	for i, sh := range e.shards {
		stats[i] = &sh.stats
	}
	metrics.RegisterUint64Fields(r, prefix, ShardStatsNames, stats...)
	r.Func(prefix+"queue_depth", func() float64 { return float64(e.Backlog()) })
	r.FuncUint(prefix+"ingest_reads", func() uint64 { return e.Ingest().Reads })
	r.FuncUint(prefix+"ingest_packets", func() uint64 { return e.Ingest().Packets })
	// Supervision series (shard_restarts, panics_quarantined, …) are
	// registered unconditionally: a flat zero from an unsupervised engine is
	// more operable than a series that appears only after the first panic.
	metrics.RegisterUint64Fields(r, prefix, SupervisionStatsNames, &e.sup.stats)
	for i := range e.shards {
		i := i
		p := prefix + "shard" + strconv.Itoa(i) + "_"
		metrics.RegisterUint64Fields(r, p, ShardStatsNames, &e.shards[i].stats)
		r.Func(p+"queue_depth", func() float64 { return float64(e.QueueDepth(i)) })
		r.RegisterHistogram(p+"wait", e.shards[i].wait)
	}
}
