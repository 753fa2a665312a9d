// Quickstart: a guarded authoritative server and a recursive resolver in an
// in-process simulated network. One resolution walks the full DNS-based
// cookie dance (Figure 2 of the paper) and prints what happened.
package main

import (
	"fmt"
	"net/netip"
	"os"
	"time"

	"dnsguard"
	"dnsguard/internal/dnswire"
)

const fooZone = `
$ORIGIN foo.com.
@    3600 IN SOA ns1 admin 1 7200 600 360000 60
@    3600 IN NS  ns1
ns1  3600 IN A   192.0.2.1
www  300  IN A   198.51.100.10
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "quickstart: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	// A simulated internet with 5 ms one-way latency (10 ms RTT).
	sim := dnsguard.NewSimulation(1, 5*time.Millisecond)
	sched := sim.Scheduler()

	// The real authoritative server lives on a private address...
	ansHost := sim.AddHost("foo-ans", netip.MustParseAddr("10.99.0.2"))
	z, err := dnsguard.ParseZone(fooZone, dnsguard.MustName(""))
	if err != nil {
		return err
	}
	srv, err := dnsguard.NewANS(dnsguard.ANSConfig{
		Env:  ansHost,
		Addr: netip.MustParseAddrPort("10.99.0.2:53"),
		Zone: z,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}

	// ...while the guard claims the public address space in front of it.
	guardHost := sim.AddHost("guard", netip.MustParseAddr("10.99.0.1"))
	guardHost.ClaimPrefix(netip.MustParsePrefix("192.0.2.0/24"))
	sim.SetLatency(guardHost, ansHost, 100*time.Microsecond)
	tap, err := guardHost.OpenTap()
	if err != nil {
		return err
	}
	auth, err := dnsguard.OpenKeyringWith(dnsguard.KeyringOptions{})
	if err != nil {
		return err
	}
	g, err := dnsguard.NewRemoteGuard(dnsguard.RemoteGuardConfig{
		Env:        guardHost,
		IOs:        []dnsguard.PacketIO{tap},
		PublicAddr: netip.MustParseAddrPort("192.0.2.1:53"),
		ANSAddr:    netip.MustParseAddrPort("10.99.0.2:53"),
		Zone:       dnsguard.MustName("foo.com"),
		Subnet:     netip.MustParsePrefix("192.0.2.0/24"),
		Fallback:   dnsguard.SchemeDNS,
		Auth:       auth,
	})
	if err != nil {
		return err
	}
	if err := g.Start(); err != nil {
		return err
	}

	// A recursive resolver (the paper's LRS) on another network.
	lrsHost := sim.AddHost("lrs", netip.MustParseAddr("10.0.0.53"))
	res, err := dnsguard.NewResolver(dnsguard.ResolverConfig{
		Env:       lrsHost,
		RootHints: []netip.AddrPort{netip.MustParseAddrPort("192.0.2.1:53")},
		Timeout:   time.Second,
	})
	if err != nil {
		return err
	}

	fmt.Println("== first resolution (cache miss: the cookie dance) ==")
	sched.Go("main", func() {
		start := sched.Now()
		r, err := res.Resolve(dnsguard.MustName("www.foo.com"), dnswire.TypeA)
		if err != nil {
			fmt.Printf("resolve failed: %v\n", err)
			return
		}
		fmt.Printf("answer: %v\n", r.Answers[len(r.Answers)-1])
		fmt.Printf("latency: %v (3 RTT: fabricated NS, cookie query, cookie-IP query)\n", sched.Now()-start)
		fmt.Printf("upstream queries: %d\n", r.Upstream)

		fmt.Println()
		fmt.Println("== second resolution, 400s later (answer TTL expired, cookies cached) ==")
		sched.Sleep(400 * time.Second)
		start = sched.Now()
		r, err = res.Resolve(dnsguard.MustName("www.foo.com"), dnswire.TypeA)
		if err != nil {
			fmt.Printf("resolve failed: %v\n", err)
			return
		}
		fmt.Printf("answer: %v\n", r.Answers[len(r.Answers)-1])
		fmt.Printf("latency: %v (1 RTT: straight to the cookie address)\n", sched.Now()-start)
		fmt.Printf("upstream queries: %d\n", r.Upstream)
	})
	sched.Run(20 * time.Minute)

	fmt.Println()
	fmt.Println("== guard statistics ==")
	st := g.Stats()
	fmt.Printf("packets received:   %d\n", st.Received)
	fmt.Printf("cookies granted:    %d\n", st.NewcomerGrants)
	fmt.Printf("cookies verified:   %d\n", st.CookieValid)
	fmt.Printf("spoofed dropped:    %d\n", st.CookieInvalid)
	fmt.Printf("forwarded to ANS:   %d\n", st.ForwardedToANS)
	fmt.Printf("ANS saw queries:    %d\n", srv.Stats.UDPQueries)
	return nil
}
