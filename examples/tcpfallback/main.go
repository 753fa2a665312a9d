// TCP fallback: the TCP-based scheme of §III-C. The guard answers UDP
// queries with the truncation flag; the resolver falls back to TCP; the
// guard's TCP proxy terminates the connection (proving the source address
// via the three-way handshake, statelessly with SYN cookies) and relays the
// request to the ANS over UDP. Also demonstrates the proxy's self-defense:
// connection-duration caps and per-client connection rate limits.
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
		fmt.Fprintf(os.Stderr, "tcpfallback: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	sim := dnsguard.NewSimulation(9, 5*time.Millisecond)
	sched := sim.Scheduler()

	ansHost := sim.AddHost("foo-ans", netip.MustParseAddr("10.99.0.2"))
	z, err := dnsguard.ParseZone(fooZone, dnsguard.MustName(""))
	if err != nil {
		return err
	}
	srv, err := dnsguard.NewANS(dnsguard.ANSConfig{
		Env: ansHost, Addr: netip.MustParseAddrPort("10.99.0.2:53"), Zone: z,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}

	guardHost := sim.AddHost("guard", netip.MustParseAddr("10.99.0.1"))
	guardHost.ClaimAddr(netip.MustParseAddr("192.0.2.1"))
	sim.SetLatency(guardHost, ansHost, 100*time.Microsecond)
	dnsguard.InstallTCP(guardHost, true) // SYN cookies on
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
		Fallback:   dnsguard.SchemeTCP, // <— redirect everyone to TCP
		Auth:       auth,
	})
	if err != nil {
		return err
	}
	if err := g.Start(); err != nil {
		return err
	}
	proxy, err := dnsguard.NewTCPProxy(dnsguard.TCPProxyConfig{
		Env:       guardHost,
		Listen:    netip.MustParseAddrPort("192.0.2.1:53"),
		ANSAddr:   netip.MustParseAddrPort("10.99.0.2:53"),
		RTT:       10 * time.Millisecond, // duration cap = 5×RTT = 50ms
		ConnRate:  5,
		ConnBurst: 3,
	})
	if err != nil {
		return err
	}
	if err := proxy.Start(); err != nil {
		return err
	}

	lrsHost := sim.AddHost("lrs", netip.MustParseAddr("10.0.0.53"))
	dnsguard.InstallTCP(lrsHost, false)
	res, err := dnsguard.NewResolver(dnsguard.ResolverConfig{
		Env:       lrsHost,
		RootHints: []netip.AddrPort{netip.MustParseAddrPort("192.0.2.1:53")},
		Timeout:   time.Second,
	})
	if err != nil {
		return err
	}

	sched.Go("main", func() {
		fmt.Println("== resolution through TC redirect + TCP proxy ==")
		start := sched.Now()
		r, err := res.Resolve(dnsguard.MustName("www.foo.com"), dnswire.TypeA)
		if err != nil {
			fmt.Printf("resolve failed: %v\n", err)
			return
		}
		fmt.Printf("answer:  %v\n", r.Answers[0])
		fmt.Printf("latency: %v (3 RTT: redirect + handshake + query)\n", sched.Now()-start)

		fmt.Println()
		fmt.Println("== idle connection killed at the 5xRTT duration cap ==")
		conn, err := lrsHost.DialTCP(netip.MustParseAddrPort("192.0.2.1:53"))
		if err != nil {
			fmt.Printf("dial: %v\n", err)
			return
		}
		start = sched.Now()
		buf := make([]byte, 16)
		_, err = conn.Read(buf, time.Second)
		fmt.Printf("idle connection closed by proxy after %v (%v)\n", sched.Now()-start, err)

		fmt.Println()
		fmt.Println("== per-client connection rate limiting ==")
		for i := 0; i < 10; i++ {
			c, err := lrsHost.DialTCP(netip.MustParseAddrPort("192.0.2.1:53"))
			if err != nil {
				continue
			}
			// The proxy closes over-rate connections at once; the read
			// paces the dials either way.
			_, _ = c.Read(buf, 5*time.Millisecond)
			_ = c.Close()
		}
		fmt.Printf("10 rapid dials: proxy accepted %d, rate-rejected %d\n",
			int(proxy.Stats.Accepted), int(proxy.Stats.RateRejected))
	})
	sched.Run(time.Minute)

	fmt.Println()
	fmt.Printf("guard: %d TC redirects; proxy: %d requests relayed, %d duration kills\n",
		g.Stats().TCRedirects, proxy.Stats.Requests, proxy.Stats.DurationKills)
	fmt.Printf("SYN cookies kept the listener stateless for every handshake\n")
	return nil
}
