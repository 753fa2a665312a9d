// Command lrsd runs a local recursive server (LRS): a recursive DNS front
// end backed by the iterative resolver, with root hints pointing at real or
// locally-run authoritative servers.
//
// Usage:
//
//	lrsd -listen 127.0.0.1:5354 -hints 127.0.0.1:5353 -allow 127.0.0.0/8
package main

import (
	"flag"
	"fmt"
	"net/netip"
	"os"
	"strings"
	"time"

	"dnsguard/internal/daemon"
	"dnsguard/internal/metrics"
	"dnsguard/internal/realnet"
	"dnsguard/internal/resolver"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "lrsd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:5354", "UDP listen address")
	hints := flag.String("hints", "127.0.0.1:5353", "comma-separated root server addresses")
	allow := flag.String("allow", "", "comma-separated client prefixes to serve (empty = everyone)")
	timeout := flag.Duration("timeout", 2*time.Second, "upstream query timeout (BIND default 2s)")
	retries := flag.Int("retries", 0, "extra retry rounds per query set (0 = resolver default)")
	backoff := flag.Duration("backoff", 0, "initial retry backoff, doubled each round with jitter (0 = no backoff)")
	maxBackoff := flag.Duration("max-backoff", 0, "backoff ceiling (0 = 8x -backoff)")
	queryTimeout := flag.Duration("query-timeout", 0, "total per-query budget across all retries (0 = unbounded)")
	tcpRetryAfter := flag.Int("tcp-retry-after", 0, "retry over TCP after this many failed UDP rounds (0 = never)")
	metricsAddr := flag.String("metrics-addr", "", "serve GET /metrics, /debug/vars, /healthz and /readyz on this ip:port: plain HTTP/1, one request per connection (empty = off)")
	metricsDump := flag.Duration("metrics-dump", 0, "dump metrics to stderr at this interval (0 = off)")
	flag.Parse()

	env := realnet.New()
	var roots []netip.AddrPort
	for _, h := range strings.Split(*hints, ",") {
		ap, err := netip.ParseAddrPort(strings.TrimSpace(h))
		if err != nil {
			return fmt.Errorf("parsing hint %q: %w", h, err)
		}
		roots = append(roots, ap)
	}
	var allowed []netip.Prefix
	if *allow != "" {
		for _, p := range strings.Split(*allow, ",") {
			pfx, err := netip.ParsePrefix(strings.TrimSpace(p))
			if err != nil {
				return fmt.Errorf("parsing allow prefix %q: %w", p, err)
			}
			allowed = append(allowed, pfx)
		}
	}
	res, err := resolver.New(resolver.Config{
		Env:           env,
		RootHints:     roots,
		Timeout:       *timeout,
		Retries:       *retries,
		Backoff:       *backoff,
		MaxBackoff:    *maxBackoff,
		QueryTimeout:  *queryTimeout,
		TCPRetryAfter: *tcpRetryAfter,
		Seed:          time.Now().UnixNano(),
	})
	if err != nil {
		return err
	}
	addr, err := netip.ParseAddrPort(*listen)
	if err != nil {
		return fmt.Errorf("parsing -listen: %w", err)
	}
	srv, err := resolver.NewServer(resolver.ServerConfig{
		Env:            env,
		Addr:           addr,
		Resolver:       res,
		AllowedClients: allowed,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	eff := res.Config()
	fmt.Printf("lrsd: recursive service on %v, %d root hints (timeout %v, %d retries)\n",
		srv.Addr(), len(roots), eff.Timeout, eff.Retries)

	reg := metrics.NewRegistry()
	res.MetricsInto(reg)
	srv.Stats.MetricsInto(reg)
	var hooks daemon.Hooks
	if *metricsAddr != "" {
		metrics.RuntimeInto(reg)
		l, err := metrics.ServeHealth(*metricsAddr, reg, nil, nil)
		if err != nil {
			return fmt.Errorf("serving -metrics-addr: %w", err)
		}
		hooks.Metrics = l
		fmt.Printf("lrsd: metrics on http://%v/metrics (probes /healthz /readyz)\n", l.Addr())
	}
	stop := make(chan struct{})
	if *metricsDump > 0 {
		go metrics.DumpEvery(reg, *metricsDump, os.Stderr, stop)
	}
	hooks.Log = func(msg string) { fmt.Println("lrsd: " + msg) }
	hooks.Shutdown = func() {
		close(stop)
		srv.Close()
		fmt.Printf("lrsd: answered %d, refused %d, failed %d\n",
			srv.Stats.Answered, srv.Stats.Refused, srv.Stats.Failed)
	}
	daemon.Wait(hooks)
	return nil
}
