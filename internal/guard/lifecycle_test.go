package guard

// Lifecycle contract: Drain refuses new cookie exchanges while verified
// traffic completes, quiesces the NAT table, and drives the state machine
// serving→draining→quiesced; Resume reopens; Ready gates on lifecycle,
// keyring epoch, and backlog.

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
)

func TestLifecycleDrainQuiesces(t *testing.T) {
	f := newRootFixture(t, nil)
	g := f.guard
	attacker := f.net.AddHost("attacker", mustAddr("203.0.113.66"))
	f.run(t, func() {
		if g.Lifecycle() != LifecycleServing {
			t.Errorf("initial lifecycle = %v, want serving", g.Lifecycle())
		}
		// Establish one verified client so the guard has real state.
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("pre-drain resolve: %v", err)
			return
		}
		if err := g.Drain(context.Background()); err != nil {
			t.Errorf("Drain: %v", err)
			return
		}
		if g.Lifecycle() != LifecycleQuiesced {
			t.Errorf("post-drain lifecycle = %v, want quiesced", g.Lifecycle())
		}
		if g.PendingEntries() != 0 {
			t.Errorf("pending entries after drain = %d, want 0", g.PendingEntries())
		}
		// A newcomer arriving mid-drain gets nothing: no grant, no TC.
		grantsBefore := g.Stats.Load().NewcomerGrants
		q, _ := dnswire.NewQuery(7, dnswire.MustName("mail.foo.com"), dnswire.TypeA).PackUDP(512)
		src := netip.AddrPortFrom(mustAddr("172.16.9.9"), 1234)
		_ = attacker.SendRaw(src, mustAP("198.41.0.4:53"), q)
		f.sched.Sleep(50 * time.Millisecond)
		if got := g.Stats.Load().NewcomerGrants; got != grantsBefore {
			t.Errorf("newcomer granted during quiesce (grants %d -> %d)", grantsBefore, got)
		}
		if st := g.LifecycleStats(); st.DrainDropped != 1 || st.Drains != 1 {
			t.Errorf("lifecycle stats = %+v, want DrainDropped 1, Drains 1", st)
		}

		// Resume reopens the newcomer path.
		g.Resume()
		if g.Lifecycle() != LifecycleServing {
			t.Errorf("post-resume lifecycle = %v, want serving", g.Lifecycle())
		}
		_ = attacker.SendRaw(src, mustAP("198.41.0.4:53"), q)
		f.sched.Sleep(50 * time.Millisecond)
		if got := g.Stats.Load().NewcomerGrants; got != grantsBefore+1 {
			t.Errorf("newcomer not granted after Resume (grants %d -> %d)", grantsBefore, got)
		}
	})
}

func TestLifecycleReadinessGates(t *testing.T) {
	f := newRootFixture(t, nil)
	g := f.guard
	f.run(t, func() {
		if err := g.Ready(0); err != nil {
			t.Errorf("serving guard not ready: %v", err)
		}
		if err := g.Healthz(); err != nil {
			t.Errorf("serving guard not healthy: %v", err)
		}
		// A keyring epoch requirement ahead of the guard's blocks readiness.
		if err := g.Ready(g.KeyringEpoch() + 1); !errors.Is(err, ErrNotReady) {
			t.Errorf("Ready(epoch+1) = %v, want ErrNotReady", err)
		}
		if err := g.Drain(context.Background()); err != nil {
			t.Errorf("Drain: %v", err)
			return
		}
		if err := g.Ready(0); !errors.Is(err, ErrNotReady) {
			t.Errorf("quiesced guard reports ready (%v)", err)
		}
		if err := g.Healthz(); err != nil {
			t.Errorf("quiesced guard must stay live: %v", err)
		}
		g.BeginRestart()
		if g.Lifecycle() != LifecycleRestarting {
			t.Errorf("lifecycle = %v, want restarting", g.Lifecycle())
		}
		// The replacement instance pattern: warming serves and is ready once
		// its epoch is current.
		g.WarmStart()
		if err := g.Ready(g.KeyringEpoch()); err != nil {
			t.Errorf("warming guard with a current keyring not ready: %v", err)
		}
		g.MarkServing()
		if g.Lifecycle() != LifecycleServing {
			t.Errorf("lifecycle = %v, want serving", g.Lifecycle())
		}
	})
	g.Close()
	if err := g.Healthz(); err == nil {
		t.Error("closed guard reports healthy")
	}
	if err := g.Ready(0); !errors.Is(err, ErrNotReady) {
		t.Errorf("closed guard Ready = %v, want ErrNotReady", err)
	}
}

// Ready's backlog bound comes from the depth the engine's queues run at, so
// a fan-out guard that left queueDepth at its default is not failed by the
// first queued packet — only by a backlog over half that depth.
func TestReadyBacklogBoundAtDefaultDepth(t *testing.T) {
	hold := false
	var env netapi.Env
	f := newRootFixture(t, func(c *RemoteConfig) {
		c.Shards = 2 // one tap, two shards: the fan-out
		env = c.Env
		c.observer = func(int, Packet) {
			for hold { // a worker stuck on its packet: its queue only fills
				env.Sleep(time.Millisecond)
			}
		}
	})
	g := f.guard
	attacker := f.net.AddHost("attacker", mustAddr("203.0.113.66"))
	q, _ := dnswire.NewQuery(7, dnswire.MustName("mail.foo.com"), dnswire.TypeA).PackUDP(512)
	// One source per shard.
	var srcs [2]netip.AddrPort
	for i := 1; !srcs[0].IsValid() || !srcs[1].IsValid(); i++ {
		a := netip.AddrFrom4([4]byte{172, 16, 9, byte(i)})
		srcs[g.Engine().ShardOf(a)] = netip.AddrPortFrom(a, 1234)
	}
	f.run(t, func() {
		defer func() { hold = false }()
		hold = true
		// The first packet occupies shard 0's worker; the second waits.
		for i := 0; i < 2; i++ {
			_ = attacker.SendRaw(srcs[0], mustAP("198.41.0.4:53"), q)
		}
		f.sched.Sleep(50 * time.Millisecond)
		if n := g.Engine().QueueDepth(0); n != 1 {
			t.Fatalf("shard 0 backlog = %d, want 1", n)
		}
		if err := g.Ready(0); err != nil {
			t.Errorf("one queued packet: %v", err)
		}
		// Half the two queues' depth and then some, spread over both so
		// neither fills: shard 1's worker takes one, the rest wait.
		half := g.Engine().QueueBound() * g.Engine().Shards() / 2
		for i := 0; i < half+2; i++ {
			_ = attacker.SendRaw(srcs[i%2], mustAP("198.41.0.4:53"), q)
		}
		f.sched.Sleep(50 * time.Millisecond)
		if err := g.Ready(0); !errors.Is(err, ErrNotReady) {
			t.Errorf("backlog %d + %d: Ready = %v, want ErrNotReady",
				g.Engine().QueueDepth(0), g.Engine().QueueDepth(1), err)
		}
	})
}

// Drain does not return while the fan-out holds a backlog: a packet parked
// in an ingress queue has not met the newcomer gate yet. A context that ends
// first ends the wait with its error and leaves the guard draining; once the
// worker catches up, what was parked meets the gate and Drain quiesces.
func TestDrainWaitsForBacklog(t *testing.T) {
	hold := false
	var env netapi.Env
	f := newRootFixture(t, func(c *RemoteConfig) {
		c.Shards = 2 // one tap, two shards: the fan-out
		env = c.Env
		c.observer = func(int, Packet) {
			for hold { // a worker stuck on its packet: its queue only fills
				env.Sleep(time.Millisecond)
			}
		}
	})
	g := f.guard
	attacker := f.net.AddHost("attacker", mustAddr("203.0.113.66"))
	q, _ := dnswire.NewQuery(7, dnswire.MustName("mail.foo.com"), dnswire.TypeA).PackUDP(512)
	src := netip.AddrPortFrom(mustAddr("172.16.9.1"), 1234)
	f.run(t, func() {
		defer func() { hold = false }()
		hold = true
		// The first packet occupies its shard's worker; two wait behind it.
		for i := 0; i < 3; i++ {
			_ = attacker.SendRaw(src, mustAP("198.41.0.4:53"), q)
		}
		f.sched.Sleep(50 * time.Millisecond)
		if n := g.Engine().Backlog(); n != 2 {
			t.Errorf("Backlog = %d, want 2", n)
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := g.Drain(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("Drain with an ended context and a parked backlog = %v, want context.Canceled", err)
		}
		if g.Lifecycle() != LifecycleDraining {
			t.Errorf("lifecycle after an abandoned drain = %v, want draining (the caller decides)", g.Lifecycle())
		}
		done, drainErr := false, error(nil)
		f.sched.Go("drain", func() { drainErr = g.Drain(context.Background()); done = true })
		f.sched.Sleep(50 * time.Millisecond)
		if done {
			t.Errorf("Drain returned (%v) with a parked backlog", drainErr)
			return
		}
		hold = false
		f.sched.Sleep(50 * time.Millisecond)
		if !done || drainErr != nil {
			t.Errorf("Drain after the backlog emptied: done %v, err %v", done, drainErr)
		}
		if g.Lifecycle() != LifecycleQuiesced || g.Engine().Backlog() != 0 {
			t.Errorf("lifecycle %v, backlog %d: want quiesced and empty", g.Lifecycle(), g.Engine().Backlog())
		}
		if st := g.LifecycleStats(); st.DrainDropped != 3 || g.Stats.Load().NewcomerGrants != 0 {
			t.Errorf("lifecycle stats %+v, grants %d: want the 3 parked newcomers refused by the gate",
				st, g.Stats.Load().NewcomerGrants)
		}
	})
}
