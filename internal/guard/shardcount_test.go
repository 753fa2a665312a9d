package guard

// A shard judges the packets its tap delivers as one shard would judge them
// all: what the guard does to a source does not depend on how many shards
// share the work. This replays one seeded schedule through one tap and one
// shard, then through two taps and two shards, and compares what the guard
// did.

import (
	"context"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netsim"
	"dnsguard/internal/ratelimit"
	"dnsguard/internal/vclock"
	"dnsguard/internal/zone"
)

// recTap is a simulated host's tap whose writes are recorded under their
// destination in out, shared by all of a run's taps, instead of sent.
type recTap struct {
	*netsim.Tap
	out map[netip.AddrPort][]string
}

func (t recTap) WriteFromTo(src, dst netip.AddrPort, payload []byte) error {
	t.out[dst] = append(t.out[dst], string(payload))
	return nil
}

// schedStep is one datagram of the schedule, sent gap after the one before.
type schedStep struct {
	gap  time.Duration
	src  netip.AddrPort
	wire []byte
}

// seededSchedule is a seeded mix of what reaches a guard: newcomers, NS-label
// and TXT cookie queries, cookies forged for another source, and garbage.
// The sources it draws from grow with the schedule, so sources the guard has
// never seen keep arriving to the end.
func seededSchedule(t *testing.T, seed int64, n int) []schedStep {
	rng := rand.New(rand.NewSource(seed))
	auth := testAuth()
	srcs := make([]netip.AddrPort, 24)
	for i := range srcs {
		srcs[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 1, 0, byte(i + 1)}), uint16(5300+i))
	}
	names := []dnswire.Name{dnswire.MustName("www.foo.com"), dnswire.MustName("mail.foo.com")}
	steps := make([]schedStep, n)
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
		steps[i] = schedStep{gap: time.Duration(1+rng.Intn(3)) * time.Millisecond, src: src, wire: wire}
	}
	return steps
}

// shardsResult is what one run did with the schedule.
type shardsResult struct {
	egress       map[netip.AddrPort][]string
	stats        RemoteStats
	lifecycle    LifecycleStats
	state        LifecycleState
	validAtDrain uint64   // CookieValid when the drain began
	handled      []uint64 // per shard
}

// runShards replays steps through a guard of n shards, each on its own tap
// of the guard's host, in front of a simulated root ANS, and starts a Drain
// before step drainAt. rl2 configures Rate-Limiter2, the zero value taking
// the defaults.
func runShards(t *testing.T, n int, rl2 ratelimit.Limiter2Config, steps []schedStep, drainAt int) shardsResult {
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
	taps, err := host.OpenTaps(n)
	if err != nil {
		t.Fatal(err)
	}
	res := shardsResult{egress: make(map[netip.AddrPort][]string)}
	cfg := RemoteConfig{
		Env:        host,
		RL2:        rl2,
		PublicAddr: mustAP("198.41.0.4:53"),
		ANSAddr:    mustAP("10.99.0.2:53"),
		Zone:       dnswire.Root,
		Auth:       testAuth(),
	}
	for _, tap := range taps {
		cfg.IOs = append(cfg.IOs, recTap{tap, res.egress})
	}
	g, err := NewRemote(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	sched.Go("schedule", func() {
		for i, st := range steps {
			host.Sleep(st.gap)
			if i == drainAt {
				res.validAtDrain = g.Stats().CookieValid
				sched.Go("drain", func() {
					if err := g.Drain(context.Background()); err != nil {
						t.Errorf("Drain: %v", err)
					}
				})
			}
			_ = host.InjectTo(host, st.src, cfg.PublicAddr, st.wire)
		}
		host.Sleep(5 * time.Second) // past any pending entry's life: Drain has quiesced
		res.stats, res.lifecycle, res.state = g.Stats(), g.LifecycleStats(), g.Lifecycle()
		assertConserved(t, g)
		for i := 0; i < g.Engine().Shards(); i++ {
			res.handled = append(res.handled, g.Engine().Stats(i).Handled)
		}
		g.Close()
		srv.Close()
	})
	sched.Run(time.Minute)
	return res
}

// TestShardCountsAgree: one shard on one tap and two shards on two taps
// handle the same schedule identically, counters, lifecycle and egress to
// every source, with a drain begun halfway and with a Rate-Limiter2 tight
// enough to drop whose records recycle.
func TestShardCountsAgree(t *testing.T) {
	steps := seededSchedule(t, 1, 600)
	agree := func(t *testing.T, rl2 ratelimit.Limiter2Config, drainAt int) (one, two shardsResult) {
		t.Helper()
		one = runShards(t, 1, rl2, steps, drainAt)
		two = runShards(t, 2, rl2, steps, drainAt)
		if len(two.handled) != 2 || two.handled[0] == 0 || two.handled[1] == 0 {
			t.Fatalf("two shards handled %v: the schedule does not reach both taps", two.handled)
		}
		if one.stats != two.stats {
			t.Errorf("RemoteStats differ:\n 1 shard  %+v\n 2 shards %+v", one.stats, two.stats)
		}
		if one.lifecycle != two.lifecycle || one.state != two.state {
			t.Errorf("lifecycle differs: 1 shard %+v %v, 2 shards %+v %v", one.lifecycle, one.state, two.lifecycle, two.state)
		}
		if one.validAtDrain != two.validAtDrain {
			t.Errorf("CookieValid when the drain began: 1 shard %d, 2 shards %d", one.validAtDrain, two.validAtDrain)
		}
		for src, got := range one.egress {
			if want := two.egress[src]; !reflect.DeepEqual(got, want) {
				t.Errorf("egress to %v: 1 shard %d datagrams, 2 shards %d, or their bytes differ", src, len(got), len(want))
			}
		}
		for src, want := range two.egress {
			if _, ok := one.egress[src]; !ok {
				t.Errorf("egress to %v: 1 shard none, 2 shards %d datagrams", src, len(want))
			}
		}
		return one, two
	}
	t.Run("drain", func(t *testing.T) {
		_, two := agree(t, ratelimit.Limiter2Config{}, len(steps)/2)
		if two.state != LifecycleQuiesced {
			t.Fatalf("lifecycle %v, want quiesced", two.state)
		}
		if two.lifecycle.DrainDropped == 0 || two.stats.CookieValid <= two.validAtDrain {
			t.Fatalf("the schedule does not exercise the drain: %+v, CookieValid %d at the drain, %d at the end",
				two.lifecycle, two.validAtDrain, two.stats.CookieValid)
		}
	})
	// Its table holds every source of the schedule, so no source's bucket is
	// evicted while it still limits — which would hang on how the sources
	// split — and a refilled one is recycled, as an absent one would decide.
	t.Run("tight RL2", func(t *testing.T) {
		tight := ratelimit.Limiter2Config{PerSourceRate: 50, PerSourceBurst: 3, TrackedSources: 32}
		_, two := agree(t, tight, len(steps))
		if two.stats.RL2Dropped == 0 {
			t.Fatal("the schedule does not exercise Rate-Limiter2: nothing dropped")
		}
	})
}
