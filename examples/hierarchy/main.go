// Hierarchy: a full DNS tree (root → com → foo.com) where the root server
// is protected by a DNS guard, resolved by an unmodified recursive server.
// Demonstrates the referral variant (§III-B.1): the guard fabricates NS
// names for TLD delegations, and once the LRS has cached them it never
// bothers the root again — the paper's "message 1 and 2 are eliminated".
package main

import (
	"fmt"
	"net/netip"
	"os"
	"time"

	"dnsguard"
	"dnsguard/internal/dnswire"
)

const rootZone = `
.    86400 IN SOA a.root.example. host.example. 1 7200 600 360000 60
.    86400 IN NS  a.root.example.
a.root.example. 86400 IN A 198.41.0.4
com. 86400 IN NS a.gtld.example.
a.gtld.example. 86400 IN A 192.5.6.30
`

const comZone = `
$ORIGIN com.
@ 86400 IN SOA a.gtld.example. host.example. 1 7200 600 360000 60
@ 86400 IN NS a.gtld.example.
foo 86400 IN NS ns1.foo.com.
ns1.foo.com. 86400 IN A 192.0.2.1
bar 86400 IN NS ns1.foo.com.
`

const fooZone = `
$ORIGIN foo.com.
@ 3600 IN SOA ns1 admin 1 7200 600 360000 60
@ 3600 IN NS ns1
ns1 3600 IN A 192.0.2.1
www 300 IN A 198.51.100.10
mail 300 IN A 198.51.100.11
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "hierarchy: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	sim := dnsguard.NewSimulation(7, 5*time.Millisecond)
	sched := sim.Scheduler()

	startANS := func(name, ip, text string) error {
		h := sim.AddHost(name, netip.MustParseAddr(ip))
		z, err := dnsguard.ParseZone(text, dnsguard.MustName(""))
		if err != nil {
			return err
		}
		srv, err := dnsguard.NewANS(dnsguard.ANSConfig{
			Env: h, Addr: netip.AddrPortFrom(h.Addr(), 53), Zone: z,
		})
		if err != nil {
			return err
		}
		return srv.Start()
	}

	// The root's real server hides on a private address; its guard claims
	// the famous public one.
	if err := startANS("root-ans", "10.99.0.2", rootZone); err != nil {
		return err
	}
	guardHost := sim.AddHost("root-guard", netip.MustParseAddr("10.99.0.1"))
	guardHost.ClaimAddr(netip.MustParseAddr("198.41.0.4"))
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
		PublicAddr: netip.MustParseAddrPort("198.41.0.4:53"),
		ANSAddr:    netip.MustParseAddrPort("10.99.0.2:53"),
		Zone:       dnsguard.MustName(""),
		Fallback:   dnsguard.SchemeDNS,
		Auth:       auth,
	})
	if err != nil {
		return err
	}
	if err := g.Start(); err != nil {
		return err
	}

	// com and foo.com are ordinary, unguarded servers.
	if err := startANS("com-ans", "192.5.6.30", comZone); err != nil {
		return err
	}
	if err := startANS("foo-ans", "192.0.2.1", fooZone); err != nil {
		return err
	}

	lrs := sim.AddHost("lrs", netip.MustParseAddr("10.0.0.53"))
	res, err := dnsguard.NewResolver(dnsguard.ResolverConfig{
		Env:       lrs,
		RootHints: []netip.AddrPort{netip.MustParseAddrPort("198.41.0.4:53")},
		Timeout:   time.Second,
	})
	if err != nil {
		return err
	}

	resolve := func(name string) {
		start := sched.Now()
		r, err := res.Resolve(dnsguard.MustName(name), dnswire.TypeA)
		if err != nil {
			fmt.Printf("%-16s FAILED: %v\n", name, err)
			return
		}
		last := "-"
		if len(r.Answers) > 0 {
			last = r.Answers[len(r.Answers)-1].String()
		}
		fmt.Printf("%-16s %-42s %7v  upstream=%d  rootGuardPkts=%d\n",
			name, last, sched.Now()-start, r.Upstream, g.Stats().Received)
	}

	sched.Go("main", func() {
		fmt.Println("resolving through the guarded root:")
		resolve("www.foo.com")  // walks root (guarded) → com → foo
		resolve("mail.foo.com") // foo delegation cached: no root contact
		resolve("www.bar.com")  // com cached: still no root contact
	})
	sched.Run(time.Minute)

	fmt.Println()
	fmt.Printf("root guard: grants=%d verified=%d — the root was consulted exactly once,\n",
		g.Stats().NewcomerGrants, g.Stats().CookieValid)
	fmt.Println("through the cookie dance; every later query used the cached fabricated NS.")
	return nil
}
