// DoS defense: a miniature Figure 6. A legitimate resolver-farm saturates a
// guarded ANS while a spoofed flood ramps up; then the same attack runs
// against the unprotected server. Prints legitimate throughput side by side.
package main

import (
	"fmt"
	"net/netip"
	"os"
	"time"

	"dnsguard"
	"dnsguard/internal/netsim"
	"dnsguard/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "dosdefense: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("legitimate throughput under spoofed flood (modified-DNS scheme):")
	fmt.Printf("%12s %15s %15s\n", "attack(r/s)", "guarded(r/s)", "unguarded(r/s)")
	for _, rate := range []float64{0, 50000, 100000, 200000} {
		on, err := cell(rate, true)
		if err != nil {
			return err
		}
		off, err := cell(rate, false)
		if err != nil {
			return err
		}
		fmt.Printf("%12.0f %15.0f %15.0f\n", rate, on, off)
	}
	fmt.Println()
	fmt.Println("the guard drops spoofed requests before they reach the server, so")
	fmt.Println("legitimate throughput holds while the unprotected server collapses.")
	return nil
}

func cell(attackRate float64, guarded bool) (float64, error) {
	sim := dnsguard.NewSimulation(3, 200*time.Microsecond)
	sched := sim.Scheduler()
	costs := dnsguard.DefaultCosts()

	public := netip.MustParseAddrPort("192.0.2.1:53")
	var ansHost *netsim.Host
	var ansAddr netip.AddrPort
	if guarded {
		ansHost = sim.AddHost("ans", netip.MustParseAddr("10.99.0.2"))
		ansAddr = netip.MustParseAddrPort("10.99.0.2:53")
	} else {
		ansHost = sim.AddHost("ans", public.Addr())
		ansAddr = public
	}
	// The meter charges the ANS host's CPU for each query the simulator
	// reads: a 110K req/s ceiling.
	ansSim, _, err := workload.MeterANSSim(workload.ANSSimConfig{Env: ansHost, Addr: ansAddr}, costs.Server)
	if err != nil {
		return 0, err
	}
	if err := ansSim.Start(); err != nil {
		return 0, err
	}

	if guarded {
		gh := sim.AddHost("guard", netip.MustParseAddr("10.99.0.1"))
		gh.ClaimAddr(public.Addr())
		sim.SetLatency(gh, ansHost, 50*time.Microsecond)
		tap, err := gh.OpenTap()
		if err != nil {
			return 0, err
		}
		auth, err := dnsguard.OpenKeyringWith(dnsguard.KeyringOptions{})
		if err != nil {
			return 0, err
		}
		// The meter charges the guard host's CPU for the work the guard
		// counts, at the calibrated 2006 costs.
		g, _, err := workload.MeterGuard(dnsguard.RemoteGuardConfig{
			Env:        gh,
			IOs:        []dnsguard.PacketIO{tap},
			PublicAddr: public,
			ANSAddr:    ansAddr,
			Zone:       dnsguard.MustName("foo.com"),
			Fallback:   dnsguard.SchemeDNS,
			Auth:       auth,
			// 1024 buckets a shard, one a verified source.
			RL2: dnsguard.Limiter2Config{PerSourceRate: 1e9, PerSourceBurst: 1e9, TrackedSources: 1024},
		}, costs.Guard)
		if err != nil {
			return 0, err
		}
		if err := g.Start(); err != nil {
			return 0, err
		}
	}

	// 160 legitimate request lanes from one LRS machine.
	lrs := sim.AddHost("lrs", netip.MustParseAddr("10.0.0.53"))
	kind := workload.KindModified
	if !guarded {
		kind = workload.KindPlain
	}
	clients := make([]*workload.Client, 160)
	for i := range clients {
		c, err := workload.NewClient(workload.ClientConfig{
			Env: lrs, Kind: kind, Mode: workload.ModeHit,
			Target: public, Wait: 10 * time.Millisecond,
		})
		if err != nil {
			return 0, err
		}
		clients[i] = c
		c.Start()
	}
	if attackRate > 0 {
		atkHost := sim.AddHost("attacker", netip.MustParseAddr("203.0.113.66"))
		kind := workload.AttackBadCookie
		if !guarded {
			kind = workload.AttackPlain
		}
		atk, err := workload.NewAttacker(workload.AttackerConfig{
			Host: atkHost, Target: public, Rate: attackRate, Kind: kind,
		})
		if err != nil {
			return 0, err
		}
		atk.Start()
	}

	count := func() uint64 {
		var sum uint64
		for _, c := range clients {
			sum += c.Stats.Completed
		}
		return sum
	}
	sched.Run(200 * time.Millisecond)
	before := count()
	sched.Run(600 * time.Millisecond)
	return float64(count()-before) / 0.4, nil
}
