// Realservers: the same stack on genuine UDP/TCP sockets via the loopback
// interface — an authoritative server, a DNS guard in front of it, its TCP
// proxy, and a recursive resolver pointed at the guard. The guard runs the
// TCP-based scheme (§III-C): over userspace sockets the handshake is the
// only spoofing proof available (the DNS-based fabricated-IP variant needs
// an intercepted subnet; see DESIGN.md). Demonstrates that every component
// is transport-agnostic: the code is identical to the simulated examples,
// only the environment differs.
package main

import (
	"fmt"
	"net/netip"
	"os"
	"sync/atomic"
	"time"

	"dnsguard"
	"dnsguard/internal/dnswire"
)

const fooZone = `
$ORIGIN foo.com.
@    3600 IN SOA ns1 admin 1 7200 600 360000 60
@    3600 IN NS  ns1
ns1  3600 IN A   127.0.0.1
www  300  IN A   198.51.100.10
alias 300 IN CNAME www
`

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "realservers: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	env := dnsguard.NewEnv()

	// Real authoritative server on an ephemeral loopback port.
	z, err := dnsguard.ParseZone(fooZone, dnsguard.MustName(""))
	if err != nil {
		return err
	}
	srv, err := dnsguard.NewANS(dnsguard.ANSConfig{
		Env:  env,
		Addr: netip.MustParseAddrPort("127.0.0.1:0"),
		Zone: z,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("ANS listening on %v\n", srv.Addr())

	// The guard binds its own socket; in a real deployment this is the
	// public service address (DNAT/inline), here just another port.
	guardSock, err := env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		return err
	}
	auth, err := dnsguard.OpenKeyringWith(dnsguard.KeyringOptions{})
	if err != nil {
		return err
	}
	g, err := dnsguard.NewRemoteGuard(dnsguard.RemoteGuardConfig{
		Env:        env,
		IOs:        []dnsguard.PacketIO{&dnsguard.SocketIO{Conn: guardSock}},
		PublicAddr: guardSock.LocalAddr(),
		ANSAddr:    srv.Addr(),
		Zone:       dnsguard.MustName("foo.com"),
		Fallback:   dnsguard.SchemeTCP,
		Auth:       auth,
	})
	if err != nil {
		return err
	}
	if err := g.Start(); err != nil {
		return err
	}
	defer g.Close()
	proxy, err := dnsguard.NewTCPProxy(dnsguard.TCPProxyConfig{
		Env:     env,
		Listen:  guardSock.LocalAddr(),
		ANSAddr: srv.Addr(),
		RTT:     50 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	if err := proxy.Start(); err != nil {
		return err
	}
	defer proxy.Close()
	fmt.Printf("guard + TCP proxy on %v → ANS %v\n", guardSock.LocalAddr(), srv.Addr())

	// A recursive resolver whose "root hint" is the guarded address.
	res, err := dnsguard.NewResolver(dnsguard.ResolverConfig{
		Env:       env,
		RootHints: []netip.AddrPort{guardSock.LocalAddr()},
		Timeout:   2 * time.Second,
		Seed:      time.Now().UnixNano(),
	})
	if err != nil {
		return err
	}

	for _, name := range []string{"www.foo.com", "alias.foo.com", "www.foo.com"} {
		start := time.Now()
		r, err := res.Resolve(dnsguard.MustName(name), dnswire.TypeA)
		if err != nil {
			return fmt.Errorf("resolving %s: %w", name, err)
		}
		last := "-"
		if len(r.Answers) > 0 {
			last = r.Answers[len(r.Answers)-1].String()
		}
		fmt.Printf("%-16s %-44s %8v upstream=%d\n", name, last, time.Since(start).Round(time.Microsecond), r.Upstream)
	}

	// The guard and the proxy still run: read their counters atomically.
	fmt.Printf("\nguard: %d TC redirects; proxy: %d requests relayed over verified TCP\n",
		g.Stats().TCRedirects, atomic.LoadUint64(&proxy.Stats.Requests))
	fmt.Println("every request reached the ANS through a completed TCP handshake —")
	fmt.Println("the source addresses are proven, not trusted.")
	return nil
}
