package guard

// The two ingest arrangements promise one guard: a shard judges the same
// packets the same way whether it reads its own interface (direct) or sits
// behind a reader that hashes sources onto per-shard queues (fan-out). This
// replays one seeded schedule through both and compares what the guard did.

import (
	"context"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netsim"
	"dnsguard/internal/ratelimit"
	"dnsguard/internal/vclock"
	"dnsguard/internal/zone"
)

// queueIO is a capture interface over a simulator queue: the test puts each
// datagram into the interface it picks, and every datagram the guard writes
// is recorded under its destination in out, shared by all of a run's
// interfaces.
type queueIO struct {
	q   netapi.Queue
	out map[netip.AddrPort][]string
}

func (io *queueIO) Read(timeout time.Duration) (Packet, error) {
	v, err := io.q.Get(timeout)
	if err != nil {
		return Packet{}, err
	}
	return v.(Packet), nil
}

func (io *queueIO) WriteFromTo(src, dst netip.AddrPort, payload []byte) error {
	io.out[dst] = append(io.out[dst], string(payload))
	return nil
}

func (io *queueIO) Close() error { io.q.Close(); return nil }

// arrStep is one datagram of the schedule, sent gap after the one before.
type arrStep struct {
	gap  time.Duration
	src  netip.AddrPort
	wire []byte
}

// arrSchedule is a seeded mix of what reaches a guard: newcomers, NS-label
// and TXT cookie queries, cookies forged for another source, and garbage.
// The sources it draws from grow with the schedule, so sources the verified
// cache has never seen keep arriving to the end.
func arrSchedule(t *testing.T, seed int64, n int) []arrStep {
	rng := rand.New(rand.NewSource(seed))
	auth := testAuth()
	srcs := make([]netip.AddrPort, 24)
	for i := range srcs {
		srcs[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 1, 0, byte(i + 1)}), uint16(5300+i))
	}
	names := []dnswire.Name{dnswire.MustName("www.foo.com"), dnswire.MustName("mail.foo.com")}
	steps := make([]arrStep, n)
	for i := range steps {
		src := srcs[rng.Intn(1+len(srcs)*i/n)]
		other := srcs[rng.Intn(len(srcs))]
		if other == src {
			other = netip.AddrPortFrom(mustAddr("10.66.0.1"), 53)
		}
		id, name := uint16(rng.Intn(1<<16)), names[rng.Intn(len(names))]
		plain := mustPack(t, dnswire.NewQuery(id, name, dnswire.TypeA))
		nsLabel := func(owner netip.AddrPort) []byte {
			fab, err := FabricateNSName(cookie.NSCodec{}, auth.Mint(owner.Addr()), name)
			if err != nil {
				t.Fatal(err)
			}
			return mustPack(t, dnswire.NewQuery(id, fab, dnswire.TypeA))
		}
		var wire []byte
		switch rng.Intn(6) {
		case 0:
			wire = plain
		case 1:
			wire = nsLabel(src)
		case 2:
			wire = withRecords(plain, 0, 0, 1, txtRR(auth.Mint(src.Addr())))
		case 3:
			wire = nsLabel(other)
		case 4:
			wire = withRecords(plain, 0, 0, 1, txtRR(auth.Mint(other.Addr())))
		default:
			wire = make([]byte, rng.Intn(40))
			rng.Read(wire)
		}
		// Whole milliseconds apart: the ANS, 100 µs away, has answered one
		// forward before the next datagram arrives, so no two shards act at
		// one instant and the order between them cannot matter.
		steps[i] = arrStep{gap: time.Duration(1+rng.Intn(3)) * time.Millisecond, src: src, wire: wire}
	}
	return steps
}

// arrResult is what one arrangement did with the schedule.
type arrResult struct {
	egress       map[netip.AddrPort][]string
	stats        RemoteStats
	lifecycle    LifecycleStats
	state        LifecycleState
	validAtDrain uint64 // CookieValid when the drain began
}

// runArrangement replays steps through a two-shard guard in front of a
// simulated root ANS — reading one interface, or one per shard with each
// datagram sent to its owner's — and starts a Drain before step drainAt.
// ttl sets the FastPathTTL the guard ignores; rl2 configures Rate-Limiter2,
// the zero value taking the defaults.
func runArrangement(t *testing.T, direct bool, ttl time.Duration, rl2 ratelimit.Limiter2Config, steps []arrStep, drainAt int) arrResult {
	t.Helper()
	sched := vclock.New(5)
	network := netsim.New(sched, 100*time.Microsecond)
	ansHost := network.AddHost("root-ans", mustAddr("10.99.0.2"))
	srv, err := ans.New(ans.Config{Env: ansHost, Addr: mustAP("10.99.0.2:53"), Zone: zone.MustParse(rootZoneText, dnswire.Root)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	host := network.AddHost("guard", mustAddr("10.99.0.1"))
	res := arrResult{egress: make(map[netip.AddrPort][]string)}
	ios := []*queueIO{{q: host.NewQueue(1024), out: res.egress}}
	if direct {
		ios = append(ios, &queueIO{q: host.NewQueue(1024), out: res.egress})
	}
	cfg := RemoteConfig{
		Env:           host,
		Shards:        2,
		FastPathTTL:   ttl,
		RL2:           rl2,
		ShardHashSeed: 11,
		PublicAddr:    mustAP("198.41.0.4:53"),
		ANSAddr:       mustAP("10.99.0.2:53"),
		Zone:          dnswire.Root,
		Auth:          testAuth(),
	}
	for _, io := range ios {
		cfg.IOs = append(cfg.IOs, io)
	}
	g, err := NewRemote(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.Engine().Direct() != direct {
		t.Fatalf("%d interfaces for 2 shards: Direct() = %v", len(ios), g.Engine().Direct())
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	sched.Go("schedule", func() {
		for i, st := range steps {
			host.Sleep(st.gap)
			if i == drainAt {
				res.validAtDrain = g.Stats.Load().CookieValid
				sched.Go("drain", func() {
					if err := g.Drain(context.Background()); err != nil {
						t.Errorf("Drain: %v", err)
					}
				})
			}
			io := ios[0]
			if direct {
				io = ios[g.Engine().ShardOf(st.src.Addr())]
			}
			io.q.Put(Packet{Src: st.src, Dst: cfg.PublicAddr, Payload: append([]byte(nil), st.wire...)})
		}
		host.Sleep(5 * time.Second) // past any pending entry's life: Drain has quiesced
		res.stats, res.lifecycle, res.state = g.Stats.Load(), g.LifecycleStats(), g.Lifecycle()
		g.Close()
		srv.Close()
	})
	sched.Run(time.Minute)
	return res
}

// TestArrangementsAgree: fan-out and direct ingress handle the same
// schedule identically, counters, lifecycle and egress, with a drain begun
// halfway and with a Rate-Limiter2 tight enough to drop and its table small
// enough to recycle; and FastPathTTL, which the guard ignores, changes
// nothing at 0 or at 1 min.
func TestArrangementsAgree(t *testing.T) {
	steps := arrSchedule(t, 1, 600)
	agree := func(t *testing.T, ttl time.Duration, rl2 ratelimit.Limiter2Config, drainAt int) (fan, dir arrResult) {
		t.Helper()
		fan = runArrangement(t, false, ttl, rl2, steps, drainAt)
		dir = runArrangement(t, true, ttl, rl2, steps, drainAt)
		if fan.stats != dir.stats {
			t.Errorf("RemoteStats differ:\n fan-out %+v\n direct  %+v", fan.stats, dir.stats)
		}
		if fan.lifecycle != dir.lifecycle {
			t.Errorf("LifecycleStats differ: fan-out %+v, direct %+v", fan.lifecycle, dir.lifecycle)
		}
		if fan.validAtDrain != dir.validAtDrain {
			t.Errorf("CookieValid when the drain began: fan-out %d, direct %d", fan.validAtDrain, dir.validAtDrain)
		}
		for src, got := range fan.egress {
			if want := dir.egress[src]; !reflect.DeepEqual(got, want) {
				t.Errorf("egress to %v: fan-out %d datagrams, direct %d, or their bytes differ", src, len(got), len(want))
			}
		}
		for src, want := range dir.egress {
			if _, ok := fan.egress[src]; !ok {
				t.Errorf("egress to %v: fan-out none, direct %d datagrams", src, len(want))
			}
		}
		return fan, dir
	}
	for _, ttl := range []time.Duration{0, time.Minute} {
		t.Run(fmt.Sprintf("FastPathTTL=%v", ttl), func(t *testing.T) {
			fan, dir := agree(t, ttl, ratelimit.Limiter2Config{}, len(steps)/2)
			if fan.state != LifecycleQuiesced || dir.state != LifecycleQuiesced {
				t.Fatalf("lifecycle fan-out %v, direct %v: want both quiesced", fan.state, dir.state)
			}
			if dir.lifecycle.DrainDropped == 0 || dir.stats.CookieValid <= dir.validAtDrain {
				t.Fatalf("the schedule does not exercise the drain: %+v, CookieValid %d at the drain, %d at the end",
					dir.lifecycle, dir.validAtDrain, dir.stats.CookieValid)
			}
		})
	}
	// Every request pays its MAC whatever FastPathTTL says: with a limiter
	// tight enough to drop and records few enough to recycle, the
	// arrangements agree, and FastPathTTL 0 and 1 min admit and drop the
	// same requests and send the same bytes.
	t.Run("RL2 at FastPathTTL=0s and 1m0s", func(t *testing.T) {
		tight := ratelimit.Limiter2Config{PerSourceRate: 50, PerSourceBurst: 3, TrackedSources: 8}
		_, off := agree(t, 0, tight, len(steps))
		on := runArrangement(t, true, time.Minute, tight, steps, len(steps))
		if off.stats.RL2Dropped == 0 {
			t.Fatal("the schedule does not exercise Rate-Limiter2: nothing dropped")
		}
		if on.stats != off.stats {
			t.Errorf("RemoteStats differ:\n 0s %+v\n 1m %+v", off.stats, on.stats)
		}
		if !reflect.DeepEqual(on.egress, off.egress) {
			t.Error("the guard's egress differs between FastPathTTL 0s and 1m")
		}
	})
}
