package resolver

import (
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netsim"
	"dnsguard/internal/tcpsim"
	"dnsguard/internal/vclock"
	"dnsguard/internal/zone"
)

// singleZone builds a one-ANS network for retry-path tests and returns the
// scheduler, network, the two hosts, and a resolver built from cfg (Env and
// RootHints are filled in).
func singleZone(t *testing.T, seed int64, enableTCP bool, mutate func(*Config)) (*vclock.Scheduler, *netsim.Network, *netsim.Host, *netsim.Host, *Resolver) {
	t.Helper()
	sched := vclock.New(seed)
	network := netsim.New(sched, 5*time.Millisecond)
	ansHost := network.AddHost("ans", netip.MustParseAddr("192.0.2.9"))
	lrsHost := network.AddHost("lrs", netip.MustParseAddr("10.0.0.53"))
	if enableTCP {
		tcpsim.Install(ansHost, tcpsim.Config{})
		tcpsim.Install(lrsHost, tcpsim.Config{})
	}
	srv, err := ans.New(ans.Config{
		Env:       ansHost,
		Addr:      netip.MustParseAddrPort("192.0.2.9:53"),
		Zone:      zone.MustParse(fooText, dnswire.Root),
		EnableTCP: enableTCP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Env:       lrsHost,
		RootHints: []netip.AddrPort{netip.MustParseAddrPort("192.0.2.9:53")},
		Timeout:   50 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sched, network, lrsHost, ansHost, res
}

func TestBackoffRetriesSurviveHeavyLoss(t *testing.T) {
	sched, network, lrs, ansHost, res := singleZone(t, 101, false, func(c *Config) {
		c.Retries = 8
		c.Backoff = 20 * time.Millisecond
		c.MaxBackoff = 100 * time.Millisecond
	})
	// 70% loss in both directions: each attempt succeeds with p ≈ 0.09, so
	// nine attempts succeed with p ≈ 0.57 per query; across several queries
	// with backoff the resolver must get through at least once.
	network.SetLoss(lrs, ansHost, 0.7)
	network.SetLoss(ansHost, lrs, 0.7)

	succeeded := 0
	sched.Go("test", func() {
		for i := 0; i < 5; i++ {
			if _, err := res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err == nil {
				succeeded++
			}
			res.Cache().Flush()
		}
	})
	sched.Run(time.Hour)
	if succeeded == 0 {
		t.Fatalf("0 of 5 resolutions succeeded under 70%% loss with %d retries", 8)
	}
	if res.Stats.Retries == 0 {
		t.Fatal("no retries recorded under heavy loss")
	}
	if res.Stats.Backoffs == 0 {
		t.Fatal("no backoff sleeps recorded")
	}
}

func TestBackoffDelaysAreBoundedAndJittered(t *testing.T) {
	// Against a black-holed server, round k starts after a jittered delay in
	// [Backoff/2, Backoff]·2^(k-1), capped at MaxBackoff. With Timeout 50ms,
	// Retries 3, Backoff 40ms, MaxBackoff 60ms the worst case is
	// 4×50ms + (40+60+60)ms = 360ms; without the cap it could reach 480ms.
	sched, network, lrs, ansHost, res := singleZone(t, 102, false, func(c *Config) {
		c.Retries = 3
		c.Backoff = 40 * time.Millisecond
		c.MaxBackoff = 60 * time.Millisecond
	})
	network.Partition(lrs, ansHost)

	var elapsed time.Duration
	sched.Go("test", func() {
		start := sched.Now()
		if _, err := res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err == nil {
			t.Error("resolution succeeded across a partition")
		}
		elapsed = sched.Now() - start
	})
	sched.Run(time.Hour)
	// Lower bound: 4 timeouts + minimum jittered backoffs (20+30+30)ms.
	if elapsed < 280*time.Millisecond || elapsed > 360*time.Millisecond {
		t.Fatalf("elapsed = %v, want within [280ms, 360ms]", elapsed)
	}
	if res.Stats.Backoffs != 3 {
		t.Fatalf("Backoffs = %d, want 3", res.Stats.Backoffs)
	}
}

func TestQueryTimeoutBoundsTotalEffort(t *testing.T) {
	// Retries 10 × Timeout 50ms would burn 550ms per query; QueryTimeout
	// must cut the whole effort off near 120ms.
	sched, network, lrs, ansHost, res := singleZone(t, 103, false, func(c *Config) {
		c.Retries = 10
		c.QueryTimeout = 120 * time.Millisecond
	})
	network.Partition(lrs, ansHost)

	var elapsed time.Duration
	sched.Go("test", func() {
		start := sched.Now()
		if _, err := res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err == nil {
			t.Error("resolution succeeded across a partition")
		}
		elapsed = sched.Now() - start
	})
	sched.Run(time.Hour)
	if elapsed > 130*time.Millisecond {
		t.Fatalf("elapsed = %v, QueryTimeout is 120ms", elapsed)
	}
	if elapsed < 100*time.Millisecond {
		t.Fatalf("elapsed = %v, gave up before using the budget", elapsed)
	}
}

func TestTCPRetryAfterUDPFailure(t *testing.T) {
	// UDP to the ANS is fully corrupted (every datagram damaged, so no
	// response ever matches), but the TCP path works: after one failed UDP
	// round the resolver must switch to TCP and succeed.
	sched, network, lrs, ansHost, res := singleZone(t, 104, true, func(c *Config) {
		c.Retries = 2
		c.TCPRetryAfter = 1
	})
	// Every UDP query is damaged in flight, so no response ever matches the
	// resolver's (id, question) filter; TCP passes clean (UDPOnly models a
	// middlebox mangling UDP/53 specifically).
	network.SetFaults(lrs, ansHost, netsim.Faults{Corrupt: 1.0, UDPOnly: true})

	var result Result
	var rerr error
	sched.Go("test", func() {
		result, rerr = res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
	})
	sched.Run(time.Hour)
	if rerr != nil {
		t.Fatalf("Resolve over TCP retry: %v (stats %+v)", rerr, res.Stats)
	}
	if len(result.Answers) != 1 {
		t.Fatalf("answers = %v", result.Answers)
	}
	if res.Stats.TCPRetries == 0 {
		t.Fatal("TCPRetries = 0, resolution must have gone over TCP")
	}
	if res.Stats.Timeouts == 0 {
		t.Fatal("expected UDP timeouts before the TCP switch")
	}
}

func TestTCPRetryDisabledByDefault(t *testing.T) {
	sched, network, lrs, ansHost, res := singleZone(t, 105, true, func(c *Config) {
		c.Retries = 1
	})
	network.SetFaults(lrs, ansHost, netsim.Faults{Corrupt: 1.0, UDPOnly: true})
	sched.Go("test", func() {
		if _, err := res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err == nil {
			t.Error("resolution succeeded with UDP corrupted and TCP retry disabled")
		}
	})
	sched.Run(time.Hour)
	if res.Stats.TCPRetries != 0 {
		t.Fatalf("TCPRetries = %d with the feature disabled", res.Stats.TCPRetries)
	}
}
