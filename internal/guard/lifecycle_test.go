package guard

// Lifecycle contract: Drain refuses new cookie exchanges while verified
// traffic completes, quiesces the NAT table, and drives the state machine
// serving→draining→quiesced; Resume reopens; Ready gates on lifecycle and
// keyring epoch.

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/dnswire"
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
		grantsBefore := g.Stats().NewcomerGrants
		q, _ := dnswire.NewQuery(7, dnswire.MustName("mail.foo.com"), dnswire.TypeA).PackUDP(512)
		src := netip.AddrPortFrom(mustAddr("172.16.9.9"), 1234)
		_ = attacker.SendRaw(src, mustAP("198.41.0.4:53"), q)
		f.sched.Sleep(50 * time.Millisecond)
		if got := g.Stats().NewcomerGrants; got != grantsBefore {
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
		if got := g.Stats().NewcomerGrants; got != grantsBefore+1 {
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

// Drain waits for the NAT table, bounded by the caller's context: a context
// that has ended returns its error and leaves the guard draining with the
// entry in place — the caller decides — and a drain that may wait quiesces
// once the entry's life has run out, dropping it.
func TestDrainHonorsContext(t *testing.T) {
	f := newRootFixture(t, func(c *RemoteConfig) {
		c.ActivationThreshold = 1e6 // never active: a query is relayed through a NAT entry
	})
	g := f.guard
	client := f.net.AddHost("client", mustAddr("203.0.113.7"))
	q, _ := dnswire.NewQuery(7, dnswire.MustName("mail.foo.com"), dnswire.TypeA).PackUDP(512)
	f.run(t, func() {
		f.net.Partition(f.hosts["guard"], f.hosts["root-ans"]) // the ANS never answers
		_ = client.SendRaw(netip.AddrPortFrom(client.Addr(), 1234), mustAP("198.41.0.4:53"), q)
		f.sched.Sleep(50 * time.Millisecond)
		if n := g.PendingEntries(); n != 1 {
			t.Errorf("pending entries = %d, want the relayed query's 1", n)
			return
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := g.Drain(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("Drain with an ended context = %v, want context.Canceled", err)
		}
		if g.Lifecycle() != LifecycleDraining || g.PendingEntries() != 1 {
			t.Errorf("after an abandoned drain: lifecycle %v, %d pending; want draining, 1",
				g.Lifecycle(), g.PendingEntries())
		}
		if err := g.Drain(context.Background()); err != nil {
			t.Errorf("Drain: %v", err)
		}
		if g.Lifecycle() != LifecycleQuiesced || g.PendingEntries() != 0 {
			t.Errorf("lifecycle %v, %d pending: want quiesced and empty", g.Lifecycle(), g.PendingEntries())
		}
		if st := g.Stats(); st.PendingDropped != 1 {
			t.Errorf("PendingDropped = %d, want the stranded entry's 1", st.PendingDropped)
		}
	})
}
