package guard

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
	"dnsguard/internal/ratelimit"
)

// Hostile timing on the NAT table. Every pending entry lives in a slot of the
// shard's table, and four parties take entries off its in-flight list: the
// upstream loop (a response, in time or expired, and its sweep), forward's
// reap when the table is full, ResetShard and Drain. Whoever takes an entry
// off owns its slot until it releases it; the tests below run all of them
// against each other on real goroutines (make race: -race -cpu 1,2,4) and
// check that each forwarded query ends exactly once and that no reply is
// built from a slot somebody else already has.

// raceConn is the shard's upstream socket: each forward is copied to the
// hostile ANS's queue, or dropped when that is full (a query nobody answers).
type raceConn struct{ ch chan []byte }

func (c *raceConn) WriteTo(b []byte, _ netip.AddrPort) error {
	select {
	case c.ch <- append([]byte(nil), b...):
	default:
	}
	return nil
}

func (c *raceConn) ReadBatch([]netapi.Datagram, time.Duration) (int, error) {
	return 0, netapi.ErrClosed
}
func (c *raceConn) WriteBatch(msgs []netapi.Datagram) (int, error) {
	for i := range msgs {
		c.WriteTo(msgs[i].Payload(), msgs[i].Addr)
	}
	return len(msgs), nil
}
func (c *raceConn) LocalAddr() netip.AddrPort { return netip.AddrPort{} }
func (c *raceConn) Close() error              { return nil }

// Query k of a race run carries k three times: as its transaction ID (low 16
// bits), its client port, and eight hex digits in its first label. A reply
// must agree with itself on all three and be the only one for its k.
const raceMute = 1 << 31 // queries the ANS never answers

func racePort(k uint32) uint16 { return uint16(10000 + k%50000) }

// raceIO is the capture interface: it checks every reply the guard emits.
type raceIO struct {
	t         *testing.T
	cookieLen int

	mu      sync.Mutex
	replied map[uint32]bool
}

func (io *raceIO) ReadBatch([]Packet, time.Duration) (int, error) { return 0, netapi.ErrClosed }
func (io *raceIO) Close() error                                   { return nil }

func (io *raceIO) WriteFromTo(_, to netip.AddrPort, payload []byte) error {
	m, err := dnswire.Unpack(payload)
	if err != nil || !m.Flags.QR || len(m.Questions) != 1 {
		io.t.Errorf("reply to %v does not parse as a response with one question: %x (%v)", to, payload, err)
		return nil
	}
	label := m.Questions[0].Name.FirstLabel()
	if len(label) != io.cookieLen+9 {
		io.t.Errorf("reply to %v names %q", to, label)
		return nil
	}
	k64, err := strconv.ParseUint(label[io.cookieLen+1:], 16, 32)
	k := uint32(k64)
	if err != nil || m.ID != uint16(k) || to.Port() != racePort(k) {
		io.t.Errorf("reply mixes queries: name %q, id %#04x, client port %d", label, m.ID, to.Port())
		return nil
	}
	for _, rr := range m.Answers {
		if rr.Name != m.Questions[0].Name {
			io.t.Errorf("reply to query %#x answers for %q", k, rr.Name)
		}
	}
	io.mu.Lock()
	if io.replied[k] {
		io.t.Errorf("query %#x was answered twice", k)
	}
	io.replied[k] = true
	io.mu.Unlock()
	return nil
}

// scribblePool overwrites the buffers of the table's released slots, the 512
// to be issued next.
func scribblePool(s *remoteShard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, n := s.pend.free, 0; id != 0 && n < 512; id, n = s.pend.slot(id).next, n+1 {
		e := s.pend.slot(id)
		for _, b := range [][]byte{e.qwire[:cap(e.qwire)], e.fwdWire[:cap(e.fwdWire)]} {
			for i := range b {
				b[i] = poisonByte
			}
		}
	}
}

// raceEnv is a skewEnv a goroutine can sleep on: the clock moves, the
// goroutine yields. Only Drain sleeps here.
type raceEnv struct{ skewEnv }

func (e raceEnv) Sleep(d time.Duration) {
	e.skew.Add(int64(d))
	runtime.Gosched()
}

func TestPendingLifecycleRaces(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		health, resets, drains bool
	}{
		// Without probes the counters close exactly: every forwarded query
		// is answered, expired, drained or discarded by a restart, once.
		{"exact", false, false, false},
		{"exact with drains", false, false, true},
		{"exact with restarts", false, true, false},
		{"health and restarts", true, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) { runPendingRace(t, tc.health, tc.resets, tc.drains) })
	}
}

func runPendingRace(t *testing.T, health, resets, drains bool) {
	var skew atomic.Int64
	rio := &raceIO{t: t, replied: make(map[uint32]bool)}
	h := newShardHarness(t, func(cfg *RemoteConfig) {
		cfg.Env = raceEnv{skewEnv{cfg.Env, &skew}}
		cfg.IOs = []PacketIO{rio}
		cfg.pendingTimeout = time.Second
		cfg.RL2 = ratelimit.Limiter2Config{PerSourceRate: 1e12, PerSourceBurst: 1e12, TrackedSources: 16}
		if health {
			// Fail open: the breaker trips and probes, the forwards go on.
			cfg.Health = HealthConfig{FailOpen: true, enabled: true, threshold: 8, cooldown: time.Nanosecond}
		}
	})
	g, s := h.g, h.s
	rio.cookieLen = g.nsPrefixLen
	up := &raceConn{ch: make(chan []byte, 256)}
	s.upstream = up
	ans := g.cfg.ANSAddr
	client := mustAddr("10.0.0.53")
	template := h.nsQueryWire(t, client, "q00000000.foo.com", 0)
	digits := 12 + 1 + g.nsPrefixLen + 1

	var wg sync.WaitGroup
	stop := make(chan struct{})
	background := func(tick func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					tick()
					runtime.Gosched()
				}
			}
		}()
	}
	// The sweeper. Under health tracking the sweep is the upstream loop's,
	// the breaker's one writer, so the ANS below runs it between datagrams.
	if !health {
		background(func() { s.sweepPending(g.now()) })
	}
	// The scribbler: what sits in the pool belongs to nobody, so nobody may
	// notice its buffers being overwritten. A handler that still reads an
	// entry it has recycled is a data race here, or 0xA5 in a reply.
	background(func() { scribblePool(s) })
	// The operator: a drain waits pendingTimeout out on the clock everybody
	// reads, drops what is left, and serving resumes.
	if drains {
		background(func() {
			if err := g.Drain(context.Background()); err != nil {
				t.Errorf("Drain: %v", err)
			}
			g.Resume()
		})
	}
	// The ANS, hostile in timing and in content. It stops once quit is closed
	// and what is queued is answered: the worker has sent its last query by
	// then, and only the ANS's own sweep still sends (probes), so the queue
	// is not closed under a sender.
	quit, ansDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ansDone)
		respond := func(fwd []byte, rcode dnswire.RCode) []byte {
			r := append([]byte(nil), fwd...)
			r[2] |= 0x80
			r[3] |= byte(rcode)
			return r
		}
		referral := func(fwd []byte) []byte {
			q, err := dnswire.Unpack(fwd)
			if err != nil {
				t.Errorf("forward does not parse: %x", fwd)
				return nil
			}
			resp := q.Response()
			ns := dnswire.MustName("ns1.child.test")
			resp.Authority = []dnswire.RR{dnswire.NewRR(q.Questions[0].Name, 300, &dnswire.NSData{Host: ns})}
			resp.Additional = []dnswire.RR{dnswire.NewRR(ns, 300, &dnswire.AData{Addr: mustAddr("198.51.100.7")})}
			return upperName(mustPack(t, resp))
		}
		drained := func() ([]byte, bool) {
			select {
			case fwd := <-up.ch:
				return fwd, true
			default:
				return nil, false
			}
		}
		next := func() ([]byte, bool) {
			select {
			case fwd := <-up.ch:
				return fwd, true
			case <-quit:
				return drained()
			}
		}
		if health {
			next = func() ([]byte, bool) {
				for {
					s.healthTick(g.now())
					select {
					case fwd := <-up.ch:
						return fwd, true
					case <-quit:
						return drained()
					default:
						runtime.Gosched()
					}
				}
			}
		}
		var held [][]byte
		n := 0
		for fwd, ok := next(); ok; fwd, ok = next() {
			if fwd[13] == 'm' || len(fwd) < 30 {
				continue // a mute query, or a probe: never answered
			}
			switch n++; n % 6 {
			case 0:
				s.handleUpstream(respond(fwd, dnswire.RCodeNXDomain), ans)
			case 1:
				s.handleUpstream(referral(fwd), ans)
			case 2: // answered late: after the entry expired, was swept, or was reaped
				held = append(held, fwd)
			case 3: // never answered
			case 4: // answered twice
				s.handleUpstream(respond(fwd, dnswire.RCodeServFail), ans)
				s.handleUpstream(referral(fwd), ans)
			case 5: // somebody else's question under this ID first
				other := respond(fwd, dnswire.RCodeNXDomain)
				other[14] ^= 1
				s.handleUpstream(other, ans)
				s.handleUpstream(respond(fwd, dnswire.RCodeNXDomain), ans)
			}
			if len(held) > 48 {
				s.handleUpstream(respond(held[0], dnswire.RCodeNXDomain), ans)
				held = held[1:]
			}
		}
		for _, fwd := range held {
			s.handleUpstream(referral(fwd), ans)
		}
	}()

	// The worker: this goroutine.
	var sent, refused, discardedAtMost uint64
	query := append([]byte(nil), template...)
	send := func(k uint32, first byte) {
		copy(query, template)
		query[0], query[1] = byte(k>>8), byte(k)
		query[digits-1] = first
		copy(query[digits:], fmt.Sprintf("%08x", k))
		forwarded := g.Stats().ForwardedToANS
		h.handle(Packet{Src: netip.AddrPortFrom(client, racePort(k)), Dst: g.cfg.PublicAddr, Payload: query})
		sent++
		if !health && g.Stats().ForwardedToANS == forwarded {
			refused++ // a full table of live queries: counted PendingDropped, never forwarded
		}
	}
	restart := func() {
		if !resets {
			return
		}
		discardedAtMost += uint64(g.PendingEntries()) // the others can only take entries out
		s.ResetShard()
	}
	k := uint32(0)
	for round := 0; round < 3; round++ {
		for i := 0; i < 1500; i++ {
			k++
			send(k, 'q')
			if i%16 == 0 {
				runtime.Gosched()
			}
			if i%100 == 0 {
				skew.Add(int64(g.cfg.pendingTimeout / 3)) // entries expire under everybody's hands
			}
			if i == 700 {
				restart()
			}
		}
		// Fill the table with queries nobody answers, refuse some, then let
		// all of them expire at once: the next forward reaps at capacity
		// while the sweep reaps the same entries and late answers arrive.
		for i := 0; i < maxPending+32; i++ {
			k++
			send(k|raceMute, 'm')
		}
		skew.Add(int64(g.cfg.pendingTimeout))
		if health {
			// Nobody answers now, so the sweep's timeouts open the breaker and
			// its probe goes through forward beside this goroutine's.
			probes, deadline := g.Stats().ProbesSent, time.Now().Add(10*time.Second)
			for g.Stats().ProbesSent == probes {
				if time.Now().After(deadline) {
					t.Fatal("the sweep never probed an upstream whose every query timed out")
				}
				skew.Add(int64(g.cfg.pendingTimeout / 8))
				runtime.Gosched()
			}
		}
		if round == 1 {
			restart()
		}
	}

	close(stop)
	wg.Wait()
	close(quit)
	<-ansDone
	skew.Add(int64(g.cfg.pendingTimeout))
	s.sweepPending(g.now())

	st := g.Stats()
	if n := g.PendingEntries(); n != 0 {
		t.Errorf("%d entries left in the table after everything expired and was swept", n)
	}
	if st.CookieValid != sent {
		t.Fatalf("%d of %d queries verified: the script did not run as written", st.CookieValid, sent)
	}
	ended := st.RepliesToClient + st.PendingDropped - refused
	if !health {
		if st.ForwardedToANS != ended {
			t.Errorf("%d queries forwarded, %d ended (%d replied + %d dropped - %d refused unforwarded)",
				st.ForwardedToANS, ended, st.RepliesToClient, st.PendingDropped, refused)
		}
		if st.UpstreamTimeouts > st.PendingDropped {
			t.Errorf("%d swept as timeouts, %d dropped in all", st.UpstreamTimeouts, st.PendingDropped)
		}
	} else if forwarded := st.ForwardedToANS - st.ProbesSent; st.RepliesToClient > forwarded {
		t.Errorf("%d replies to %d forwarded queries", st.RepliesToClient, forwarded)
	}
	if int(st.RepliesToClient) != len(rio.replied) {
		t.Errorf("%d replies counted, %d distinct queries answered", st.RepliesToClient, len(rio.replied))
	}
	// The script must have reached what it names.
	if st.RepliesToClient == 0 || st.UpstreamStrays == 0 || st.UpstreamSpoofed == 0 || st.UpstreamTimeouts == 0 ||
		st.PendingDropped <= st.UpstreamTimeouts || (!health && !drains && refused == 0) || (health && st.ProbesSent == 0) ||
		(resets && discardedAtMost == 0) {
		t.Errorf("script too tame: %+v, refused %d, restarts discarded at most %d", st, refused, discardedAtMost)
	}
	t.Logf("%d sent: %d forwarded, %d replied, %d dropped (%d swept, %d refused), %d strays, %d spoofed",
		sent, st.ForwardedToANS, st.RepliesToClient, st.PendingDropped, st.UpstreamTimeouts, refused, st.UpstreamStrays, st.UpstreamSpoofed)
}

// fillPending forwards n verified queries nobody answers, each from a source
// of its own, numbered from first.
func fillPending(t testing.TB, h *shardHarness, first, n int) {
	t.Helper()
	for i := first; i < first+n; i++ {
		src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}), 5353)
		h.handle(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: h.nsQueryWire(t, src.Addr(), "www.foo.com", uint16(i))})
	}
}

// TestForwardAtCapacitySteps: what a dark ANS makes of the table — maxPending
// live entries — makes the next forward no dearer: it looks at one slot, the
// oldest, allocates nothing and is counted dropped. Once a prefix of the
// table has expired the next forward frees exactly that prefix, one step an
// entry and one to see the rest has time left, and takes a slot of it.
func TestForwardAtCapacitySteps(t *testing.T) {
	var skew atomic.Int64
	h := newShardHarness(t, func(cfg *RemoteConfig) { cfg.Env = skewEnv{cfg.Env, &skew} })
	const early = 1000
	fillPending(t, h, 0, early)
	skew.Add(int64(h.g.cfg.pendingTimeout / 2))
	fillPending(t, h, early, maxPending-early)
	if n, st := h.g.PendingEntries(), h.g.Stats(); n != maxPending || st.ForwardedToANS != maxPending || st.PendingDropped != 0 {
		t.Fatalf("%d pending after %d forwards: %+v", n, maxPending, st)
	}

	late := mustAP("10.200.0.1:5353")
	pkt := Packet{Src: late, Dst: h.g.cfg.PublicAddr, Payload: h.nsQueryWire(t, late.Addr(), "www.foo.com", 7)}
	const refused = 101 // AllocsPerRun's warm-up and its hundred
	steps := h.s.pend.steps
	if n := testing.AllocsPerRun(refused-1, func() { h.handle(pkt) }); n != 0 {
		t.Errorf("a forward refused by a full table allocates %.1f times, want 0", n)
	}
	if got, st := h.s.pend.steps-steps, h.g.Stats(); got != refused || st.PendingDropped != refused ||
		st.ForwardedToANS != maxPending || h.g.PendingEntries() != maxPending {
		t.Errorf("%d forwards into a full table looked at %d slots, want one each: %+v", refused, got, st)
	}

	skew.Add(int64(h.g.cfg.pendingTimeout / 2)) // the early ones expire, to the nanosecond
	steps = h.s.pend.steps
	h.handle(pkt)
	if got, st := h.s.pend.steps-steps, h.g.Stats(); got != early+1 || st.PendingDropped != refused+early ||
		st.ForwardedToANS != maxPending+1 || h.g.PendingEntries() != maxPending-early+1 {
		t.Errorf("the forward after %d entries expired took %d steps, want %d, and left %d pending: %+v",
			early, got, early+1, h.g.PendingEntries(), st)
	}
	// The slot it took is the one released last: the newest of the expired.
	if id := uint16(h.up.buf[0])<<8 | uint16(h.up.buf[1]); id != early {
		t.Errorf("forwarded under ID %d, want %d", id, early)
	}
}

// TestExpiredEntryIsATimeout: an entry whose life ran out ends the same way
// whoever reaps it. Here the primary ANS is dark for a whole table of
// queries, a health probe among them, and a forward into the full table
// reaps them before the upstream loop's sweep runs: each is an upstream
// timeout counted against the primary, each but the probe a dropped query.
// The sweep feeds the count to the breaker, which opens, and the next
// forward fails over.
func TestExpiredEntryIsATimeout(t *testing.T) {
	var skew atomic.Int64
	fallback := mustAP("10.99.0.3:53")
	h := newShardHarness(t, func(cfg *RemoteConfig) {
		cfg.Env = skewEnv{cfg.Env, &skew}
		cfg.ANSFallbacks = []netip.AddrPort{fallback}
	})
	primary := h.g.cfg.ANSAddr
	h.s.sendProbe(primary)
	fillPending(t, h, 0, maxPending-1)
	skew.Add(int64(h.g.cfg.pendingTimeout))
	fillPending(t, h, maxPending, 1)
	h.s.healthTick(h.g.now())
	if st := h.g.Stats(); st.UpstreamTimeouts != maxPending || st.PendingDropped != maxPending-1 ||
		st.BreakerOpens != 1 || h.g.BreakerState(0, primary) != int(breakerOpen) {
		t.Fatalf("a full table of expired entries reaped by a forward: %+v, primary's breaker %d, want %d timeouts, %d dropped, the breaker open",
			st, h.g.BreakerState(0, primary), maxPending, maxPending-1)
	}
	fillPending(t, h, maxPending+1, 1)
	if st := h.g.Stats(); st.Failovers != 1 || h.up.dst != fallback {
		t.Errorf("the forward after the primary's breaker opened went to %v, %d failovers; want %v, 1", h.up.dst, st.Failovers, fallback)
	}
}

// TestRefusedProbeRetries: a probe the full NAT table refuses leaves its
// breaker open for another cooldown. Left half-open with nothing in flight,
// no timeout or answer could move it again, and a primary that recovered
// would never be picked. Here the primary is dark and its breaker open; when
// the cooldown ends the fallback's live queries fill the table, so the probe
// finds no slot, and it is no query dropped. Once those queries have expired
// and been swept, the next due probe goes out and its answer closes the
// primary's breaker.
func TestRefusedProbeRetries(t *testing.T) {
	var skew atomic.Int64
	fallback := mustAP("10.99.0.3:53")
	h := newShardHarness(t, func(cfg *RemoteConfig) {
		cfg.Env = skewEnv{cfg.Env, &skew}
		cfg.ANSFallbacks = []netip.AddrPort{fallback}
	})
	g, primary := h.g, h.g.cfg.ANSAddr
	fillPending(t, h, 0, breakerThreshold)
	skew.Add(int64(g.cfg.pendingTimeout))
	h.s.healthTick(g.now())
	if got := g.BreakerState(0, primary); got != int(breakerOpen) {
		t.Fatalf("primary's breaker %d after %d timeouts, want open (%d)", got, breakerThreshold, breakerOpen)
	}
	fillPending(t, h, breakerThreshold, maxPending)
	dropped := g.Stats().PendingDropped
	skew.Add(int64(breakerCooldown))
	h.s.healthTick(g.now())
	if got, st := g.BreakerState(0, primary), g.Stats(); got != int(breakerOpen) || st.ProbesSent != 0 || st.PendingDropped != dropped {
		t.Fatalf("a probe refused by a full table left the primary's breaker %d, %d probes sent, %d dropped; want open (%d), 0, %d",
			got, st.ProbesSent, st.PendingDropped, breakerOpen, dropped)
	}
	skew.Add(int64(breakerCooldown))
	h.s.healthTick(g.now())
	if got, st := g.BreakerState(0, primary), g.Stats(); got != int(breakerHalfOpen) || st.ProbesSent != 1 || h.up.dst != primary {
		t.Fatalf("a cooldown after the refusal, with the table swept: primary's breaker %d, %d probes sent, the last to %v; want half-open (%d), 1, %v",
			got, st.ProbesSent, h.up.dst, breakerHalfOpen, primary)
	}
	answer := append([]byte(nil), h.up.buf[:h.up.n]...)
	answer[2] |= 0x80
	h.s.handleUpstream(answer, primary)
	fillPending(t, h, breakerThreshold+maxPending, 1)
	if got := g.BreakerState(0, primary); got != int(breakerClosed) || h.up.dst != primary {
		t.Errorf("after the probe's answer the primary's breaker is %d and a forward went to %v; want closed (%d), %v",
			got, h.up.dst, breakerClosed, primary)
	}
}

// TestProbeAllocatesNothing: the half-open probe is written in the upstream
// loop's scratch and rides the table's warm slots, so sending one allocates
// nothing.
func TestProbeAllocatesNothing(t *testing.T) {
	var skew atomic.Int64
	h := newShardHarness(t, func(cfg *RemoteConfig) { cfg.Env = skewEnv{cfg.Env, &skew} })
	probe := func() { h.s.sendProbe(h.g.cfg.ANSAddr) }
	for i := 0; i < 101; i++ { // as many slots as AllocsPerRun will fill
		probe()
	}
	skew.Add(int64(h.g.cfg.pendingTimeout))
	h.s.sweepPending(h.g.now())
	if n := testing.AllocsPerRun(100, probe); n != 0 {
		t.Errorf("a probe allocates %.1f times, want 0", n)
	}
}

// TestPendTableIDSequence pins the IDs the table issues to the ID pool's it
// replaced, which every recorded forward carries: 1, 2, 3 … from a high-water
// mark, a released ID reused before the mark moves, the last released first,
// 0 never. The model is that pool; the table is driven beside it through
// inserts, takes with the release delayed as the upstream loop delays it, and
// reaps, and must list what is in flight oldest first throughout.
func TestPendTableIDSequence(t *testing.T) {
	var tab pendTable
	var free, flying, loaned []uint16
	mark := uint16(0)
	drop := func(ids []uint16, i int) []uint16 { return append(ids[:i], ids[i+1:]...) }
	rng := rand.New(rand.NewSource(21))
	for op := 0; op < 20000; op++ {
		switch k := rng.Intn(10); {
		case op%400 == 399 && len(flying) > 0:
			// Everything registered before some op has expired: a prefix.
			now := tab.slot(flying[rng.Intn(len(flying))]).expires
			for e := tab.reap(now); e != nil; e = tab.reap(now) {
				if e.origID != flying[0] || e.expires > now {
					t.Fatalf("op %d: reaped ID %d expiring %v at %v, oldest is %d", op, e.origID, e.expires, now, flying[0])
				}
				free, flying = append(free, flying[0]), flying[1:]
			}
			if len(flying) > 0 && tab.slot(flying[0]).expires <= now {
				t.Fatalf("op %d: reap left ID %d, expired", op, flying[0])
			}
		case k < 6 && len(flying) < 300:
			want := mark + 1
			if n := len(free); n > 0 {
				want, free = free[n-1], free[:n-1]
			} else {
				mark++
			}
			id, e := tab.insert()
			if id != want || id == 0 {
				t.Fatalf("op %d: issued ID %d, the pool issues %d", op, id, want)
			}
			e.origID, e.expires = id, time.Duration(op)
			flying = append(flying, id)
		case k < 8 && len(flying) > 0:
			i := rng.Intn(len(flying))
			id := flying[i]
			if e := tab.lookup(id); e == nil || e.origID != id {
				t.Fatalf("op %d: ID %d in flight, lookup finds %+v", op, id, e)
			}
			tab.take(id)
			flying, loaned = drop(flying, i), append(loaned, id)
		case len(loaned) > 0:
			i := rng.Intn(len(loaned))
			tab.release(loaned[i])
			free, loaned = append(free, loaned[i]), drop(loaned, i)
		}
		if tab.live != len(flying) {
			t.Fatalf("op %d: %d live, want %d", op, tab.live, len(flying))
		}
		for i, id := 0, uint16(0); i < len(flying); i++ {
			if id = tab.slot(id).next; id != flying[i] || i == len(flying)-1 && (tab.slot(id).next != 0 || tab.slot(0).prev != id) {
				t.Fatalf("op %d: in-flight list has %d at %d, or does not end there; want %v", op, id, i, flying)
			}
		}
		for _, id := range append(append([]uint16{0, mark + 1}, free...), loaned...) {
			if tab.lookup(id) != nil {
				t.Fatalf("op %d: lookup finds ID %d, which is not in flight", op, id)
			}
		}
	}
	if mark < 200 || len(tab.chunks) != int(mark)/pendChunk+1 {
		t.Errorf("mark %d, %d chunks: the table grows by what it has issued", mark, len(tab.chunks))
	}
}

// BenchmarkForwardAtCapacity: a verified query forwarded into an empty table
// and answered, and one refused by a table full of live entries — what every
// query costs while the ANS is dark. The home of EXPERIMENTS.md's "State
// budget" numbers.
func BenchmarkForwardAtCapacity(b *testing.B) {
	src := mustAP("10.200.0.1:5353")
	for _, full := range []bool{false, true} {
		name := "empty"
		if full {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			h := newShardHarness(b, func(cfg *RemoteConfig) {
				cfg.RL2 = ratelimit.Limiter2Config{PerSourceRate: 1e12, PerSourceBurst: 1e12, TrackedSources: 8192}
			})
			if full {
				fillPending(b, h, 0, maxPending)
			}
			pkt := Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: h.nsQueryWire(b, src.Addr(), "www.foo.com", 7)}
			resp := make([]byte, 0, dnswire.MaxUDPSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.handle(pkt)
				if !full {
					resp = appendNXDomain(resp, h.up.buf[:h.up.n])
					h.s.handleUpstream(resp, h.g.cfg.ANSAddr)
				}
			}
			b.StopTimer()
			if st := h.g.Stats(); full && st.PendingDropped != uint64(b.N) || !full && st.RepliesToClient != uint64(b.N) {
				b.Fatalf("the forwards did not end as meant: %+v", st)
			}
		})
	}
}
