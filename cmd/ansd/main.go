// Command ansd runs an authoritative DNS server (UDP + DNS-over-TCP) over
// real sockets, serving a zone from an RFC 1035 master file.
//
// Usage:
//
//	ansd -zone foo.com.zone -listen 127.0.0.1:5353
//	ansd -zone foo.com.zone,bar.org.zone -listen 127.0.0.1:5353   # multi-zone
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"strings"

	"dnsguard/internal/ans"
	"dnsguard/internal/daemon"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/metrics"
	"dnsguard/internal/realnet"
	"dnsguard/internal/zone"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ansd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	zonePath := flag.String("zone", "", "comma-separated zone master file(s) (required)")
	listen := flag.String("listen", "127.0.0.1:5353", "UDP/TCP listen address")
	enableTCP := flag.Bool("tcp", true, "also serve DNS over TCP")
	metricsAddr := flag.String("metrics-addr", "", "serve GET /metrics, /debug/vars, /healthz and /readyz on this ip:port: plain HTTP/1, one request per connection (empty = off)")
	flag.Parse()

	if *zonePath == "" {
		return fmt.Errorf("-zone is required")
	}
	zones, err := ans.NewZoneSet()
	if err != nil {
		return err
	}
	for _, path := range strings.Split(*zonePath, ",") {
		text, err := os.ReadFile(strings.TrimSpace(path))
		if err != nil {
			return fmt.Errorf("reading zone: %w", err)
		}
		z, err := zone.Parse(string(text), dnswire.Root)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		if err := zones.Add(z); err != nil {
			return err
		}
	}
	addr, err := netip.ParseAddrPort(*listen)
	if err != nil {
		return fmt.Errorf("parsing -listen: %w", err)
	}

	srv, err := ans.New(ans.Config{
		Env:       realnet.New(),
		Addr:      addr,
		Zones:     zones,
		EnableTCP: *enableTCP,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Printf("ansd: serving zones %v on %v (tcp=%v)\n", zones.Origins(), srv.Addr(), *enableTCP)

	var hooks daemon.Hooks
	if *metricsAddr != "" {
		reg := metrics.NewRegistry()
		srv.Stats.MetricsInto(reg)
		metrics.RuntimeInto(reg)
		l, err := metrics.ServeHealth(*metricsAddr, reg, nil, nil)
		if err != nil {
			return fmt.Errorf("serving -metrics-addr: %w", err)
		}
		hooks.Metrics = l
		fmt.Printf("ansd: metrics on http://%v/metrics (probes /healthz /readyz)\n", l.Addr())
	}
	hooks.Log = func(msg string) { fmt.Println("ansd: " + msg) }
	hooks.Shutdown = func() {
		srv.Close()
		fmt.Printf("ansd: served %d UDP / %d TCP queries\n", srv.Stats.UDPQueries, srv.Stats.TCPQueries)
	}
	daemon.Wait(hooks)
	return nil
}
