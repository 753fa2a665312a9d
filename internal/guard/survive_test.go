package guard

// Survivability tests: the guard's crash/restart/outage behavior under the
// deterministic simulator. Three properties from the survivability layer:
//
//  1. A guard restart that restores its epoch'd keyring from the state file
//     keeps verifying every cookie the LRS population cached before the
//     crash — and a restart WITHOUT the state file (the old behavior)
//     invalidates all of them, the regression the keyring exists to fix.
//  2. A handler panic on one dataplane shard restarts only that shard:
//     the offending packet is quarantined, the restart metric increments,
//     and both the victim shard and its siblings keep serving.
//  3. A primary-ANS blackout trips the per-shard circuit breaker within the
//     configured threshold, traffic fails over to the secondary, and a
//     half-open probe restores the primary once it returns.

import (
	"net/netip"
	"path/filepath"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/engine"
	"dnsguard/internal/netsim"
	"dnsguard/internal/zone"
)

// surviveSrc yields distinct client sources for the replayed population.
func surviveSrc(i int) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{172, 16, byte(i >> 8), byte(i)}), 1234)
}

// fabricatedQuery builds the wire query an LRS holding cookie c for child
// would send (message 3 of the DNS-based scheme).
func fabricatedQuery(t *testing.T, id uint16, c cookie.Cookie, child dnswire.Name) []byte {
	t.Helper()
	fab, err := FabricateNSName(cookie.NSCodec{}, c, child)
	if err != nil {
		t.Fatal(err)
	}
	q := dnswire.NewQuery(id, fab, dnswire.TypeA)
	q.Flags.RD = false
	wire, err := q.PackUDP(512)
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

func TestRestartWithKeyEpochsPreservesCookies(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keyring")
	auth, err := cookie.Open(cookie.Options{StateFile: path})
	if err != nil {
		t.Fatal(err)
	}

	// The pre-crash cookie population: half minted before the last key
	// rotation (previous epoch), half after (current epoch). These are the
	// credentials LRS caches hold for up to a week.
	const n = 100
	child := dnswire.MustName("com")
	cookies := make([]cookie.Cookie, n)
	for i := 0; i < n/2; i++ {
		cookies[i] = auth.Mint(surviveSrc(i).Addr())
	}
	if err := auth.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := n / 2; i < n; i++ {
		cookies[i] = auth.Mint(surviveSrc(i).Addr())
	}

	// replay boots a fresh simulation (a restart IS a new process) around a
	// guard using a, replays every cached cookie, and returns the stats.
	replay := func(a *cookie.Authenticator) RemoteStats {
		f := newRootFixture(t, func(c *RemoteConfig) { c.Auth = a })
		lrsPop := f.net.AddHost("lrs-pop", mustAddr("203.0.113.50"))
		f.run(t, func() {
			for i := 0; i < n; i++ {
				wire := fabricatedQuery(t, uint16(i+1), cookies[i], child)
				_ = lrsPop.SendRaw(surviveSrc(i), mustAP("198.41.0.4:53"), wire)
				f.sched.Sleep(time.Millisecond)
			}
			f.sched.Sleep(time.Second)
		})
		return f.guard.Stats()
	}

	// Restart with the state file: the restored ring must re-verify the
	// whole population (the acceptance bar is ≥99%; epochs make it exact)
	// with zero new cookie exchanges.
	restored, err := cookie.Open(cookie.Options{StateFile: path})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Epoch() != auth.Epoch() {
		t.Fatalf("restored epoch %d, want %d", restored.Epoch(), auth.Epoch())
	}
	st := replay(restored)
	if st.CookieValid != n || st.CookieInvalid != 0 {
		t.Fatalf("after keyring restore: %d/%d cookies verified (%d invalid), want 100%%",
			st.CookieValid, n, st.CookieInvalid)
	}
	if st.NewcomerGrants != 0 {
		t.Fatalf("%d new cookie exchanges after restore, want 0", st.NewcomerGrants)
	}

	// Regression (epochs disabled / no state file): a restart onto a fresh
	// random key silently invalidates the entire cached population.
	fresh, err := cookie.Open(cookie.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st = replay(fresh)
	if st.CookieValid != 0 || st.CookieInvalid != n {
		t.Fatalf("fresh-key restart: %d valid / %d invalid, want 0/%d",
			st.CookieValid, st.CookieInvalid, n)
	}
}

func TestShardPanicIsolatedByGuardSupervision(t *testing.T) {
	poison := mustAddr("203.0.113.99")
	f := newRootFixture(t, func(c *RemoteConfig) {
		c.Shards = 2
		c.Supervision = engine.SupervisorConfig{Enabled: true}
		c.observer = func(shard int, pkt Packet) {
			if pkt.Src.Addr() == poison {
				panic("injected shard fault")
			}
		}
	})
	eng := f.guard.Engine()
	guardHost := f.hosts["guard"]
	poisonShard := guardHost.TapOf(poison)
	// A clean source steered to the SAME shard as the poison packet: proves
	// the restarted shard itself keeps serving, not just siblings.
	sibling := mustAddr("203.0.113.1")
	for i := 2; guardHost.TapOf(sibling) != poisonShard; i++ {
		sibling = netip.AddrFrom4([4]byte{203, 0, 113, byte(i)})
	}

	attacker := f.net.AddHost("attacker", mustAddr("203.0.113.66"))
	f.run(t, func() {
		q, _ := dnswire.NewQuery(7, dnswire.MustName("www.foo.com"), dnswire.TypeA).PackUDP(512)
		_ = attacker.SendRaw(netip.AddrPortFrom(poison, 1234), mustAP("198.41.0.4:53"), q)
		f.sched.Sleep(100 * time.Millisecond)

		// The restarted shard still answers newcomers...
		q2, _ := dnswire.NewQuery(8, dnswire.MustName("www.foo.com"), dnswire.TypeA).PackUDP(512)
		_ = attacker.SendRaw(netip.AddrPortFrom(sibling, 1234), mustAP("198.41.0.4:53"), q2)
		f.sched.Sleep(100 * time.Millisecond)

		// ...and the guard as a whole still resolves end to end.
		res, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
		if err != nil {
			t.Errorf("resolution after shard panic: %v", err)
			return
		}
		if len(res.Answers) == 0 {
			t.Error("no answers after shard panic")
		}
	})

	sup := eng.Supervision()
	if sup.ShardRestarts != 1 || sup.PanicsQuarantined != 1 || sup.ShardsTripped != 0 {
		t.Fatalf("supervision stats = %+v, want exactly one restart, no trip", sup)
	}
	for i := 0; i < 2; i++ {
		if eng.ShardTripped(i) {
			t.Fatalf("shard %d tripped after a single panic", i)
		}
	}
	qr := eng.Quarantined()
	if len(qr) != 1 || qr[0].Src.Addr() != poison || qr[0].Shard != poisonShard {
		t.Fatalf("quarantine = %+v, want the poison packet on shard %d", qr, poisonShard)
	}
	if f.guard.Stats().NewcomerGrants == 0 {
		t.Fatal("restarted shard served no newcomer grants")
	}
}

func TestANSBlackoutFailoverAndRestore(t *testing.T) {
	auth := testAuth()
	primary := mustAP("10.99.0.2:53")
	secondary := mustAP("10.99.0.3:53")
	f := newRootFixture(t, func(c *RemoteConfig) {
		c.Auth = auth
		c.ANSFallbacks = []netip.AddrPort{secondary}
		c.pendingTimeout = 200 * time.Millisecond
	})

	// Secondary ANS: a replica serving the same zone on the fallback addr.
	secHost := f.net.AddHost("root-ans-2", mustAddr("10.99.0.3"))
	secSrv, err := ans.New(ans.Config{
		Env: secHost, Addr: secondary,
		Zone: zone.MustParse(rootZoneText, dnswire.Root),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := secSrv.Start(); err != nil {
		t.Fatal(err)
	}

	// Verified traffic: distinct pre-cookied sources (labels minted from
	// the guard's own authenticator, as a warmed-up LRS population).
	child := dnswire.MustName("com")
	lrsPop := f.net.AddHost("lrs-pop", mustAddr("203.0.113.50"))
	send := func(i int) {
		wire := fabricatedQuery(t, uint16(i+1), auth.Mint(surviveSrc(i).Addr()), child)
		_ = lrsPop.SendRaw(surviveSrc(i), mustAP("198.41.0.4:53"), wire)
	}

	// The primary goes dark before any traffic flows.
	guardHost, primHost := f.hosts["guard"], f.hosts["root-ans"]
	f.net.Partition(guardHost, primHost)

	var (
		openState, restoredState   int
		opens, failovers, probes   uint64
		closes, secSeen, primExtra uint64
	)
	f.run(t, func() {
		// breakerThreshold verified queries into the black hole.
		for i := 0; i < breakerThreshold; i++ {
			send(i)
			f.sched.Sleep(50 * time.Millisecond)
		}
		// Past pendingTimeout + a sweep: the reaper turns them into
		// timeout signals and the breaker opens.
		f.sched.Sleep(500 * time.Millisecond)
		openState = f.guard.BreakerState(0, primary)
		opens = f.guard.Stats().BreakerOpens

		// Traffic now fails over to the secondary and gets answered.
		for i := 3; i < 6; i++ {
			send(i)
			f.sched.Sleep(50 * time.Millisecond)
		}
		f.sched.Sleep(100 * time.Millisecond)
		failovers = f.guard.Stats().Failovers
		secSeen = atomic.LoadUint64(&secSrv.Stats.UDPQueries)

		// Primary returns; after the 2 s cooldown a half-open SOA probe
		// closes the breaker again.
		f.net.Heal(guardHost, primHost)
		f.sched.Sleep(breakerCooldown + 500*time.Millisecond)
		restoredState = f.guard.BreakerState(0, primary)
		probes = f.guard.Stats().ProbesSent
		closes = f.guard.Stats().BreakerCloses

		// Post-restore traffic goes back to the primary, not the fallback.
		primBefore := atomic.LoadUint64(&f.root.Stats.UDPQueries)
		send(6)
		f.sched.Sleep(100 * time.Millisecond)
		primExtra = atomic.LoadUint64(&f.root.Stats.UDPQueries) - primBefore
	})

	if openState != 1 {
		t.Fatalf("primary breaker state after blackout = %d, want 1 (open)", openState)
	}
	if opens != 1 {
		t.Fatalf("breaker opens = %d, want 1", opens)
	}
	if failovers != 3 || secSeen != 3 {
		t.Fatalf("failovers = %d, secondary saw %d queries; want 3 and 3", failovers, secSeen)
	}
	if probes == 0 {
		t.Fatal("no half-open probes sent")
	}
	if closes != 1 || restoredState != 0 {
		t.Fatalf("closes = %d, restored state = %d; want 1 and 0 (closed)", closes, restoredState)
	}
	if primExtra != 1 {
		t.Fatalf("primary saw %d post-restore queries, want 1", primExtra)
	}
	st := f.guard.Stats()
	if st.UpstreamTimeouts < 3 {
		t.Fatalf("upstream timeouts = %d, want >= 3", st.UpstreamTimeouts)
	}
	if st.FailClosedDrops != 0 {
		t.Fatalf("fail-closed drops = %d with a live fallback, want 0", st.FailClosedDrops)
	}
}

// procEnv is a simulated host that records the name of every proc spawned
// through it.
type procEnv struct {
	*netsim.Host
	names []string
}

func (e *procEnv) Go(name string, fn func()) {
	e.names = append(e.names, name)
	e.Host.Go(name, fn)
}

// TestBreakerRunsOnTheUpstreamLoop: a guard with somewhere to fail over to
// runs the procs a guard without does, each shard's capture loop and its
// upstream loop, and no other: the upstream loop sweeps the NAT table and
// probes. With the primary dark and nothing but those procs running, every
// shard's breaker for it still opens.
func TestBreakerRunsOnTheUpstreamLoop(t *testing.T) {
	for _, tc := range []struct {
		shards int
		procs  []string
	}{
		{1, []string{"guard-capture", "guard-upstream"}},
		{2, []string{"guard-shard-0", "guard-shard-1", "guard-upstream-0", "guard-upstream-1"}},
	} {
		t.Run(strconv.Itoa(tc.shards)+" shards", func(t *testing.T) {
			var env *procEnv
			auth := testAuth()
			f := newRootFixture(t, func(c *RemoteConfig) {
				env = &procEnv{Host: c.Env.(*netsim.Host)}
				c.Env, c.Auth, c.Shards = env, auth, tc.shards
				c.ANSFallbacks = []netip.AddrPort{mustAP("10.99.0.3:53")}
			})
			if !slices.Equal(env.names, tc.procs) {
				t.Errorf("procs %q, want %q", env.names, tc.procs)
			}
			f.net.Partition(f.hosts["guard"], f.hosts["root-ans"])
			lrsPop := f.net.AddHost("lrs-pop", mustAddr("203.0.113.50"))
			f.run(t, func() {
				for i := 0; i < 8*breakerThreshold; i++ {
					wire := fabricatedQuery(t, uint16(i+1), auth.Mint(surviveSrc(i).Addr()), dnswire.MustName("com"))
					_ = lrsPop.SendRaw(surviveSrc(i), mustAP("198.41.0.4:53"), wire)
				}
				// Past the queries' life and the next sweep, short of a cooldown more.
				f.sched.Sleep(f.guard.cfg.pendingTimeout*3/2 + breakerCooldown/4)
				for i := 0; i < tc.shards; i++ {
					if got := f.guard.BreakerState(i, f.guard.cfg.ANSAddr); got != int(breakerOpen) {
						t.Errorf("shard %d: the dark primary's breaker is %d, want open (%d)", i, got, breakerOpen)
					}
				}
			})
			if st := f.guard.Stats(); st.BreakerOpens != uint64(tc.shards) || st.ProbesSent == 0 {
				t.Errorf("%d breakers opened and %d probes sent on %d shards, want one each and some", st.BreakerOpens, st.ProbesSent, tc.shards)
			}
		})
	}
}
