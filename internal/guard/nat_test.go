package guard

import (
	"fmt"
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

// Hostile timing on the NAT table. Every pending entry comes from the
// shard's pool and goes back to it, and four parties take entries out of the
// table: the upstream handler (a response, in time or expired), the health
// sweeper, allocID's reap when the table is full, and ResetShard. Whoever
// takes an entry out owns it; the tests below run all of them against each
// other on real goroutines (make race: -race -cpu 1,2,4) and check that each
// forwarded query ends exactly once and that no reply is built from an entry
// somebody else already has.

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

func (c *raceConn) ReadFrom(time.Duration) ([]byte, netip.AddrPort, error) {
	return nil, netip.AddrPort{}, netapi.ErrClosed
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

func (io *raceIO) Read(time.Duration) (Packet, error) { return Packet{}, netapi.ErrClosed }
func (io *raceIO) Close() error                       { return nil }

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

// scribblePool overwrites the buffers of every pooled pending entry.
func scribblePool(s *remoteShard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entryPool {
		for _, b := range [][]byte{e.qwire[:cap(e.qwire)], e.fwdWire[:cap(e.fwdWire)]} {
			for i := range b {
				b[i] = poisonByte
			}
		}
	}
}

func TestPendingLifecycleRaces(t *testing.T) {
	for _, tc := range []struct {
		name           string
		health, resets bool
	}{
		// Without probes and restarts the counters close exactly.
		{"exact", false, false},
		{"health and restarts", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) { runPendingRace(t, tc.health, tc.resets) })
	}
}

func runPendingRace(t *testing.T, health, resets bool) {
	var skew atomic.Int64
	rio := &raceIO{t: t, replied: make(map[uint32]bool)}
	h := newShardHarness(t, func(cfg *RemoteConfig) {
		cfg.Env = skewEnv{cfg.Env, &skew}
		cfg.IO = rio
		cfg.PendingTimeout = time.Second
		cfg.RL2 = ratelimit.Limiter2Config{PerSourceRate: 1e12, PerSourceBurst: 1e12, TrackedSources: 16}
		if health {
			// Fail open: the breaker trips and probes, the forwards go on.
			cfg.Health = HealthConfig{Enabled: true, TimeoutThreshold: 8, Cooldown: time.Nanosecond, FailOpen: true}
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
	// The sweeper.
	background(func() {
		if now := g.now(); health {
			s.healthTick(now)
		} else {
			s.sweepPending(now)
		}
	})
	// The scribbler: what sits in the pool belongs to nobody, so nobody may
	// notice its buffers being overwritten. A handler that still reads an
	// entry it has recycled is a data race here, or 0xA5 in a reply.
	background(func() { scribblePool(s) })
	// The ANS, hostile in timing and in content.
	ansDone := make(chan struct{})
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
		var held [][]byte
		n := 0
		for fwd := range up.ch {
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
		forwarded := atomic.LoadUint64(&g.Stats.ForwardedToANS)
		h.handle(Packet{Src: netip.AddrPortFrom(client, racePort(k)), Dst: g.cfg.PublicAddr, Payload: query})
		sent++
		if !health && atomic.LoadUint64(&g.Stats.ForwardedToANS) == forwarded {
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
				skew.Add(int64(g.cfg.PendingTimeout / 3)) // entries expire under everybody's hands
			}
			if i == 700 {
				restart()
			}
		}
		// Fill the table with queries nobody answers, refuse some, then let
		// all of them expire at once: the next forward reaps at capacity
		// while the sweeper reaps the same entries and late answers arrive.
		for i := 0; i < maxPending+32; i++ {
			k++
			send(k|raceMute, 'm')
		}
		skew.Add(int64(g.cfg.PendingTimeout))
		if health {
			// Nobody answers now, so the sweeper's timeouts open the breaker
			// and its probe goes through forward beside this goroutine's.
			probes, deadline := atomic.LoadUint64(&g.Stats.ProbesSent), time.Now().Add(10*time.Second)
			for atomic.LoadUint64(&g.Stats.ProbesSent) == probes {
				if time.Now().After(deadline) {
					t.Fatal("the sweeper never probed an upstream whose every query timed out")
				}
				skew.Add(int64(g.cfg.PendingTimeout / 8))
				runtime.Gosched()
			}
		}
		if round == 1 {
			restart()
		}
	}

	close(stop)
	wg.Wait()
	close(up.ch)
	<-ansDone
	skew.Add(int64(g.cfg.PendingTimeout))
	s.sweepPending(g.now())

	st := g.Stats.Load()
	if n := g.PendingEntries(); n != 0 {
		t.Errorf("%d entries left in the table after everything expired and was swept", n)
	}
	if st.CookieValid != sent {
		t.Fatalf("%d of %d queries verified: the script did not run as written", st.CookieValid, sent)
	}
	ended := st.RepliesToClient + st.PendingDropped - refused
	if !health && !resets {
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
		st.PendingDropped <= st.UpstreamTimeouts || (!health && refused == 0) || (health && st.ProbesSent == 0) ||
		(resets && discardedAtMost == 0) {
		t.Errorf("script too tame: %+v, refused %d, restarts discarded at most %d", st, refused, discardedAtMost)
	}
	t.Logf("%d sent: %d forwarded, %d replied, %d dropped (%d swept, %d refused), %d strays, %d spoofed",
		sent, st.ForwardedToANS, st.RepliesToClient, st.PendingDropped, st.UpstreamTimeouts, refused, st.UpstreamStrays, st.UpstreamSpoofed)
}
