package layers

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dnsguard/bench/gen"
	"dnsguard/internal/engine"
	"dnsguard/internal/guard"
	"dnsguard/internal/netapi"
	"dnsguard/internal/ratelimit"
	"dnsguard/internal/realnet"
)

// The guard rig runs a real guard.Remote — one shard, batch 32, supervised,
// fast path on, as the daemon is booted — over synthetic I/O: a capture
// interface that hands out prepared batches as fast as the engine asks for
// them, and an upstream "socket" that answers every forwarded query with
// ansd's referral for that child. What it times is everything between the
// two system calls of a packet's life and nothing of the calls themselves.

var (
	rigPublic = netip.MustParseAddrPort("127.0.0.1:5355")
	rigANS    = netip.MustParseAddrPort("127.0.0.1:5353")
)

// maxInFlight bounds forwarded queries awaiting their stub answer, far
// under the guard's 4096-entry pending table.
const maxInFlight = 256

// feedIO is the synthetic capture interface.
type feedIO struct {
	rig *guardRig

	mu      sync.Mutex
	armed   chan struct{} // closed when a run is armed
	batches [][]engine.Packet
	next    int
	closed  bool
}

func (f *feedIO) FlowStable() bool { return true }

func (f *feedIO) Read(timeout time.Duration) (engine.Packet, error) {
	var one [1]engine.Packet
	if _, err := f.ReadBatch(one[:], timeout); err != nil {
		return engine.Packet{}, err
	}
	return one[0], nil
}

// ReadBatch hands out the armed run's next batch. The call after the last
// batch is the engine coming back for more, which means the last batch is
// fully dispatched and its replies flushed: that call ends the run.
func (f *feedIO) ReadBatch(pkts []engine.Packet, _ time.Duration) (int, error) {
	for {
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			return 0, netapi.ErrClosed
		}
		if f.batches != nil && f.next < len(f.batches) {
			b := f.batches[f.next]
			f.next++
			f.mu.Unlock()
			for f.rig.inFlight.Load() > maxInFlight {
				runtime.Gosched()
			}
			return copy(pkts, b), nil
		}
		if f.batches != nil {
			f.batches = nil
			f.rig.feedDone <- time.Now()
		}
		armed := f.armed
		f.mu.Unlock()
		<-armed
	}
}

func (f *feedIO) arm(batches [][]engine.Packet) {
	f.mu.Lock()
	f.batches, f.next = batches, 0
	close(f.armed)
	f.armed = make(chan struct{})
	f.mu.Unlock()
}

// WriteFromTo is how the upstream loop emits a reply: one forwarded query
// has completed its cycle.
func (f *feedIO) WriteFromTo(_, _ netip.AddrPort, _ []byte) error {
	f.rig.inFlight.Add(-1)
	f.rig.replied(1)
	return nil
}

// WriteBatch is the worker flushing the replies it made itself (grants).
func (f *feedIO) WriteBatch(pkts []engine.Packet) error {
	f.rig.replied(len(pkts))
	return nil
}

func (f *feedIO) Close() error {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		close(f.armed)
	}
	f.mu.Unlock()
	return nil
}

// stubUpstream is the guard's ANS-facing socket: a write is answered at once
// with the referral for the child the forwarded question names.
type stubUpstream struct {
	rig *guardRig

	mu     sync.Mutex
	cond   *sync.Cond
	queue  [][]byte // ring of reusable response buffers
	head   int
	count  int
	closed bool
}

func newStubUpstream(rig *guardRig) *stubUpstream {
	u := &stubUpstream{rig: rig, queue: make([][]byte, 4*maxInFlight)}
	u.cond = sync.NewCond(&u.mu)
	for i := range u.queue {
		u.queue[i] = make([]byte, 0, 256)
	}
	return u
}

func (u *stubUpstream) ReadFrom(timeout time.Duration) ([]byte, netip.AddrPort, error) {
	var one [1]netapi.Datagram
	if _, err := u.ReadBatch(one[:], timeout); err != nil {
		return nil, netip.AddrPort{}, err
	}
	return one[0].Payload(), one[0].Addr, nil
}

func (u *stubUpstream) ReadBatch(msgs []netapi.Datagram, _ time.Duration) (int, error) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for u.count == 0 && !u.closed {
		u.cond.Wait()
	}
	if u.closed {
		return 0, netapi.ErrClosed
	}
	n := 0
	for n < len(msgs) && u.count > 0 {
		msgs[n].Set(u.queue[u.head], rigANS)
		u.head = (u.head + 1) % len(u.queue)
		u.count--
		n++
	}
	return n, nil
}

func (u *stubUpstream) WriteBatch(msgs []netapi.Datagram) (int, error) {
	for i := range msgs {
		if err := u.WriteTo(msgs[i].Payload(), msgs[i].Addr); err != nil {
			return i, err
		}
	}
	return len(msgs), nil
}

// WriteTo answers the forwarded query b: its question's first label is
// "c<k>", and the answer is child k's referral under b's transaction ID.
func (u *stubUpstream) WriteTo(b []byte, _ netip.AddrPort) error {
	if len(b) < 15 || b[12] < 2 || b[12] > 3 || b[13] != 'c' {
		return fmt.Errorf("stub upstream: unexpected forward %x", b)
	}
	k := int(b[14] - '0')
	if b[12] == 3 {
		k = k*10 + int(b[15]-'0')
	}
	u.rig.inFlight.Add(1)
	u.mu.Lock()
	if u.count == len(u.queue) {
		u.mu.Unlock()
		return fmt.Errorf("stub upstream: response queue full")
	}
	slot := (u.head + u.count) % len(u.queue)
	buf := append(u.queue[slot][:0], u.rig.suite.referral[k]...)
	buf[0], buf[1] = b[0], b[1]
	u.queue[slot] = buf
	u.count++
	u.mu.Unlock()
	u.cond.Signal()
	return nil
}

func (u *stubUpstream) LocalAddr() netip.AddrPort { return netip.MustParseAddrPort("127.0.0.1:5399") }

func (u *stubUpstream) Close() error {
	u.mu.Lock()
	u.closed = true
	u.mu.Unlock()
	u.cond.Broadcast()
	return nil
}

// rigEnv is the real clock and goroutines with the stub upstream in place of
// the socket the guard would bind.
type rigEnv struct {
	*realnet.Env
	rig *guardRig
}

func (e rigEnv) ListenUDP(netip.AddrPort) (netapi.UDPConn, error) {
	return newStubUpstream(e.rig), nil
}

// guardRig is one guard over synthetic I/O.
type guardRig struct {
	suite    *Suite
	g        *guard.Remote
	feeds    []*feedIO
	feedDone chan time.Time
	inFlight atomic.Int64
	replies  atomic.Int64
	want     int64
	allDone  chan time.Time
}

func (r *guardRig) replied(n int) {
	if got := r.replies.Add(int64(n)); got >= r.want && got-int64(n) < r.want {
		r.allDone <- time.Now()
	}
}

// newGuardRig boots a guard with the daemon's rig configuration. RL1's
// global ceiling is lifted: the rig offers newcomers far faster than the
// 50 000/s the ceiling allows on a wire, and a denied grant is not the path
// being timed. Per-source limits and table sizes stay at their defaults.
func (s *Suite) newGuardRig(shards int, threshold float64) (*guardRig, error) {
	r := &guardRig{suite: s, feedDone: make(chan time.Time, shards), allDone: make(chan time.Time, 1)}
	ios := make([]engine.PacketIO, shards)
	for i := range ios {
		f := &feedIO{rig: r, armed: make(chan struct{})}
		r.feeds = append(r.feeds, f)
		ios[i] = f
	}
	rl1 := ratelimit.DefaultLimiter1Config()
	rl1.GlobalRate, rl1.GlobalBurst = 1e12, 1e12
	g, err := guard.NewRemote(guard.RemoteConfig{
		Env:                 rigEnv{Env: realnet.New(), rig: r},
		IOs:                 ios,
		Shards:              shards,
		Batch:               32,
		FastPathTTL:         time.Minute,
		PublicAddr:          rigPublic,
		ANSAddr:             rigANS,
		Zone:                s.apex,
		Fallback:            guard.SchemeDNS,
		Auth:                s.auth,
		RL1:                 rl1,
		ActivationThreshold: threshold,
		Supervision:         engine.SupervisorConfig{Enabled: true},
	})
	if err != nil {
		return nil, err
	}
	if err := g.Start(); err != nil {
		return nil, err
	}
	r.g = g
	return r, nil
}

func (r *guardRig) close() {
	r.g.Close()
	for _, f := range r.feeds {
		_ = f.Close()
	}
}

// batchesOf groups wires from srcs into 32-packet batches addressed to the
// guard's public address.
func batchesOf(wires [][]byte, srcs []netip.Addr) [][]engine.Packet {
	var out [][]engine.Packet
	for i := 0; i < len(wires); i += 32 {
		end := i + 32
		if end > len(wires) {
			end = len(wires)
		}
		b := make([]engine.Packet, 0, 32)
		for j := i; j < end; j++ {
			b = append(b, engine.Packet{Src: netip.AddrPortFrom(srcs[j], 4242), Dst: rigPublic, Payload: wires[j]})
		}
		out = append(out, b)
	}
	return out
}

// run feeds one prepared set of batches per shard, waits until every shard
// has come back for more and (when replies are expected) every reply is out,
// and returns the elapsed time and the heap allocations made meanwhile.
func (r *guardRig) run(perShard [][][]engine.Packet, wantReplies int) (time.Duration, uint64, error) {
	r.replies.Store(0)
	r.want = int64(wantReplies)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	t0 := time.Now()
	for i, f := range r.feeds {
		f.arm(perShard[i])
	}
	end := t0
	timeout := time.After(10 * time.Second)
	for range r.feeds {
		select {
		case t := <-r.feedDone:
			if t.After(end) {
				end = t
			}
		case <-timeout:
			return 0, 0, fmt.Errorf("guard rig: engine stopped reading")
		}
	}
	if wantReplies > 0 {
		select {
		case t := <-r.allDone:
			if t.After(end) {
				end = t
			}
		case <-timeout:
			return 0, 0, fmt.Errorf("guard rig: %d of %d replies", r.replies.Load(), wantReplies)
		}
	}
	runtime.ReadMemStats(&ms)
	return end.Sub(t0), ms.Mallocs - before, nil
}

// timeGuard runs make(rep) Reps times on a one-shard rig and records ns and
// allocations per packet. replies says whether each packet earns a reply.
func (s *Suite) timeGuard(r *guardRig, name, allocsName string, replies bool, build func(rep int) [][]engine.Packet) error {
	var ns, allocs []float64
	for rep := -1; rep < Reps; rep++ { // rep -1 warms pools and caches, unrecorded
		batches := build(rep)
		n := 0
		for _, b := range batches {
			n += len(b)
		}
		want := 0
		if replies {
			want = n
		}
		d, mallocs, err := r.run([][][]engine.Packet{batches}, want)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if rep < 0 {
			continue
		}
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(mallocs)/float64(n))
	}
	s.record(name, "ns", ns)
	if allocsName != "" {
		s.record(allocsName, "count", allocs)
	}
	return nil
}

// freshSrcs returns n never-used source addresses.
func (s *Suite) freshSrcs(n int) []netip.Addr {
	out := make([]netip.Addr, n)
	for i := range out {
		out[i] = s.freshSrc()
	}
	return out
}

// RunGuard times the guard's whole handling of each packet shape.
func (s *Suite) RunGuard() error {
	// One P, so wall time is CPU time: the worker and the upstream loop take
	// turns as they would on the guard's single pinned core.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n = 2048

	r, err := s.newGuardRig(1, 0)
	if err != nil {
		return err
	}
	defer r.close()
	if err := s.timeGuard(r, "guard.reject_nslabel_ns", "guard.reject_nslabel_allocs", false, func(int) [][]engine.Packet {
		return batchesOf(s.forgedQ[:n], s.freshSrcs(n))
	}); err != nil {
		return err
	}
	if err := s.timeGuard(r, "guard.reject_txt_ns", "guard.reject_txt_allocs", false, func(int) [][]engine.Packet {
		return batchesOf(s.txtQ[:n], s.freshSrcs(n))
	}); err != nil {
		return err
	}
	if err := s.timeGuard(r, "guard.grant_ns", "guard.grant_allocs", true, func(int) [][]engine.Packet {
		return batchesOf(s.plainQ[:n], s.freshSrcs(n))
	}); err != nil {
		return err
	}
	if err := s.timeGuard(r, "guard.verified_cycle_ns", "guard.verified_cycle_allocs", true, func(int) [][]engine.Packet {
		return batchesOf(s.cookieQ[:n], s.srcs[:n])
	}); err != nil {
		return err
	}
	if err := s.timeGuard(r, "guard.first_verify_cycle_ns", "", true, func(rep int) [][]engine.Packet {
		count := n / 2
		if rep < 0 {
			count = 4096 // the warm-up fills the verified cache, so every timed insert evicts
		}
		srcs := s.freshSrcs(count)
		wires := make([][]byte, len(srcs))
		for i, src := range srcs {
			label := s.nsc.EncodeLabel(s.auth.Mint(src))
			wires[i] = gen.AppendQuery(nil, uint16(i), []byte(label), s.child[i%nSources])
		}
		return batchesOf(wires, srcs)
	}); err != nil {
		return err
	}

	pass, err := s.newGuardRig(1, 1e6)
	if err != nil {
		return err
	}
	defer pass.close()
	if err := s.timeGuard(pass, "guard.passthrough_cycle_ns", "guard.passthrough_cycle_allocs", true, func(int) [][]engine.Packet {
		return batchesOf(s.plainQ[:n], s.srcs[:n])
	}); err != nil {
		return err
	}

	// Two shards rejecting the same shape at once, one P each where the host
	// has them: per-packet time above the one-shard figure is what the
	// shards cost each other (guard-wide counters, the shared keyring).
	runtime.GOMAXPROCS(2)
	two, err := s.newGuardRig(2, 0)
	if err != nil {
		return err
	}
	defer two.close()
	var ns []float64
	for rep := -1; rep < Reps; rep++ {
		per := [][][]engine.Packet{
			batchesOf(s.forgedQ[:n], s.freshSrcs(n)),
			batchesOf(s.forgedQ[:n], s.freshSrcs(n)),
		}
		d, _, err := two.run(per, 0)
		if err != nil {
			return fmt.Errorf("guard.reject_nslabel_2shard_ns: %w", err)
		}
		if rep >= 0 {
			ns = append(ns, float64(d.Nanoseconds())/n)
		}
	}
	s.record("guard.reject_nslabel_2shard_ns", "ns", ns)
	return nil
}
