// Command dnsguardd runs the DNS guard over real sockets, in front of a
// real authoritative server: it binds the public service address, verifies
// cookies on every incoming request, and relays only verified requests to
// the protected ANS. Every cookie pays its MAC: the guard keeps no verified
// credentials, only each verified source's Rate-Limiter2 bucket.
//
// Over userspace sockets the guard supports the NS-name, TCP-redirect, and
// modified-DNS schemes (the fabricated-IP variant needs a whole intercepted
// subnet — simulator or kernel deployments only; see DESIGN.md).
//
// Usage:
//
//	dnsguardd -listen 127.0.0.1:5355 -ans 127.0.0.1:5353 -zone foo.com \
//	          -scheme dns -threshold 0
//
// Survivability flags: -state-file persists the epoch'd cookie keyring so a
// restarted guard keeps honoring pre-restart cookies; -key-rotate sets the
// rotation period (persisted rotations keep the previous epoch valid);
// -ans-fallback lists secondary ANS addresses for breaker-driven failover;
// -overload-policy picks fail-open or fail-closed when a shard trips or, with
// -ans-fallback, every upstream is dark.
//
// Fleet flags: -keyring-follow opens -state-file as a read-only follower
// handle on a shared keyring (one owner rotates, every follower verifies
// the same cookies — the anycast-fleet deployment of DESIGN.md §15);
// -keyring-reload polls the file and adopts newer epochs.
//
// With -shards N > 1 the guard runs N dataplane workers, each fed by its own
// SO_REUSEPORT socket on the public address (kernel-hashed per flow) on
// Linux amd64/arm64; elsewhere one socket's reader feeds all N. -batch M
// lets each read and write syscall move up to M datagrams (recvmmsg/sendmmsg
// on Linux amd64/arm64, a read loop elsewhere); -batch 1 is the same loop
// taking one datagram per read.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"strings"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/daemon"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/engine"
	"dnsguard/internal/guard"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
	"dnsguard/internal/realnet"
	"dnsguard/internal/tcpproxy"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "dnsguardd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:5355", "public service address the guard binds")
	ansAddr := flag.String("ans", "127.0.0.1:5353", "protected ANS address")
	zoneName := flag.String("zone", "", "apex of the protected zone (required)")
	schemeName := flag.String("scheme", "dns", "fallback scheme for cookie-less requesters: dns or tcp")
	threshold := flag.Float64("threshold", 0, "activation threshold in req/s (0 = always on)")
	withProxy := flag.Bool("proxy", true, "run the TCP proxy for redirected/truncated requesters")
	statsEvery := flag.Duration("stats", 10*time.Second, "stats reporting interval (0 = off)")
	metricsAddr := flag.String("metrics-addr", "", "serve GET /metrics, /debug/vars, /healthz and /readyz on this ip:port: plain HTTP/1, one request per connection (empty = off)")
	shards := flag.Int("shards", 1, "dataplane worker shards (each with its own SO_REUSEPORT socket where the platform has them)")
	batch := flag.Int("batch", 1, "most datagrams one read or write syscall may move (1 = one datagram per read, same loop)")
	stateFile := flag.String("state-file", "", "persist the cookie keyring here; a restart with the same file keeps pre-restart cookies valid")
	cookieMAC := flag.String("cookie-mac", "", "cookie MAC scheme: md5 (paper default) or siphash; applies to new keyrings and to legacy state files with no scheme tag (tagged files keep their scheme)")
	keyRotate := flag.Duration("key-rotate", 0, "cookie key rotation period (0 = never); rotations are persisted to -state-file")
	keyringFollow := flag.Bool("keyring-follow", false, "open -state-file as a read-only follower handle on a fleet-shared keyring (the owner rotates; this guard only reloads)")
	keyringReload := flag.Duration("keyring-reload", 0, "poll -state-file at this interval and adopt newer epochs (fleet followers tracking the owner's rotations)")
	ansFallback := flag.String("ans-fallback", "", "comma-separated secondary ANS addresses, tried in order when the primary's breaker opens")
	overload := flag.String("overload-policy", "drop", "when a shard trips, or every upstream's breaker is open (breakers run only with -ans-fallback): drop (fail-closed) or pass (fail-open)")
	mitigate := flag.Bool("mitigate", false, "run the layered auto-mitigation selector (overrides -threshold while escalated)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "bound on the graceful drain SIGTERM triggers (0 = exit without draining)")
	flag.Parse()

	if *zoneName == "" {
		return fmt.Errorf("-zone is required")
	}
	apex, err := dnswire.ParseName(*zoneName)
	if err != nil {
		return fmt.Errorf("parsing -zone: %w", err)
	}
	pub, err := netip.ParseAddrPort(*listen)
	if err != nil {
		return fmt.Errorf("parsing -listen: %w", err)
	}
	ans, err := netip.ParseAddrPort(*ansAddr)
	if err != nil {
		return fmt.Errorf("parsing -ans: %w", err)
	}
	var scheme guard.Scheme
	switch *schemeName {
	case "dns":
		scheme = guard.SchemeDNS
	case "tcp":
		scheme = guard.SchemeTCP
	default:
		return fmt.Errorf("unknown -scheme %q", *schemeName)
	}

	var failOpen bool
	switch *overload {
	case "drop":
	case "pass":
		failOpen = true
	default:
		return fmt.Errorf("unknown -overload-policy %q (want drop or pass)", *overload)
	}
	var fallbacks []netip.AddrPort
	if *ansFallback != "" {
		for _, s := range strings.Split(*ansFallback, ",") {
			ap, err := netip.ParseAddrPort(strings.TrimSpace(s))
			if err != nil {
				return fmt.Errorf("parsing -ans-fallback %q: %w", s, err)
			}
			fallbacks = append(fallbacks, ap)
		}
	}
	if *keyringFollow && *stateFile == "" {
		return fmt.Errorf("-keyring-follow requires -state-file")
	}
	if *keyringFollow && *keyRotate > 0 {
		return fmt.Errorf("-keyring-follow and -key-rotate are mutually exclusive: the ring's owner rotates, followers reload")
	}
	if *keyringReload > 0 && *stateFile == "" {
		return fmt.Errorf("-keyring-reload requires -state-file")
	}
	mac, err := cookie.MACByName(*cookieMAC)
	if err != nil {
		return fmt.Errorf("parsing -cookie-mac: %w", err)
	}
	env := realnet.New()
	auth, err := cookie.Open(cookie.Options{
		StateFile: *stateFile,
		Follow:    *keyringFollow,
		MAC:       mac,
	})
	switch {
	case err != nil && *keyringFollow:
		return fmt.Errorf("opening -state-file as follower: %w", err)
	case err != nil && *stateFile != "":
		return fmt.Errorf("opening -state-file: %w", err)
	case err != nil:
		return err
	case *keyringFollow:
		fmt.Printf("dnsguardd: keyring %s (epoch %d, mac %s, follower)\n", *stateFile, auth.Epoch(), auth.MAC().Name())
	case *stateFile != "":
		fmt.Printf("dnsguardd: keyring %s (epoch %d, mac %s)\n", *stateFile, auth.Epoch(), auth.MAC().Name())
	}
	trip := engine.TripDrop
	if failOpen {
		trip = engine.TripPass
	}

	// One SO_REUSEPORT socket per shard where the environment can bind them,
	// each read by its own shard; one socket otherwise, whose reader fans out
	// to the shards.
	caps := netapi.Capabilities(env)
	if caps.ListenUDPReuse == nil {
		return fmt.Errorf("environment cannot bind sharded sockets")
	}
	nShards := max(*shards, 1)
	conns, err := caps.ListenUDPReuse(pub, nShards)
	if err != nil {
		return fmt.Errorf("binding %v: %w", pub, err)
	}
	ios := make([]guard.PacketIO, len(conns))
	for i, c := range conns {
		ios[i] = &guard.SocketIO{Conn: c}
	}
	g, err := guard.NewRemote(guard.RemoteConfig{
		Env:                 env,
		IOs:                 ios,
		PublicAddr:          conns[0].LocalAddr(),
		Shards:              nShards,
		Batch:               *batch,
		ANSAddr:             ans,
		ANSFallbacks:        fallbacks,
		Health:              guard.HealthConfig{FailOpen: failOpen},
		Supervision:         engine.SupervisorConfig{Enabled: true, Trip: trip},
		Zone:                apex,
		Fallback:            scheme,
		Auth:                auth,
		KeyRotation:         *keyRotate,
		ActivationThreshold: *threshold,
		Mitigation:          guard.MitigationConfig{Enabled: *mitigate},
	})
	if err != nil {
		return err
	}
	if err := g.Start(); err != nil {
		return err
	}
	ingest := "fan-out"
	if g.Engine().Direct() {
		ingest = "direct"
	}
	fmt.Printf("dnsguardd: guarding zone %s on %v → ANS %v (scheme %v, threshold %.0f, shards %d, batch %d, ingest %s)\n",
		apex, conns[0].LocalAddr(), ans, scheme, *threshold, nShards, max(*batch, 1), ingest)

	var proxy *tcpproxy.Proxy
	if *withProxy {
		proxy, err = tcpproxy.New(tcpproxy.Config{
			Env:     env,
			Listen:  conns[0].LocalAddr(),
			ANSAddr: ans,
			RTT:     50 * time.Millisecond,
		})
		if err != nil {
			return fmt.Errorf("starting TCP proxy: %w", err)
		}
		if err := proxy.Start(); err != nil {
			return fmt.Errorf("starting TCP proxy: %w", err)
		}
		fmt.Printf("dnsguardd: TCP proxy on %v\n", conns[0].LocalAddr())
	}

	reg := metrics.NewRegistry()
	g.MetricsInto(reg)
	if proxy != nil {
		proxy.MetricsInto(reg)
	}
	var hooks daemon.Hooks
	if *metricsAddr != "" {
		// The metrics listener doubles as the health endpoint: /healthz is
		// process liveness, /readyz the catchment-readmission gate (guard
		// lifecycle serving, ingress backlog under threshold).
		metrics.RuntimeInto(reg)
		l, err := metrics.ServeHealth(*metricsAddr, reg,
			g.Healthz,
			func() error { return g.Ready(0) })
		if err != nil {
			return fmt.Errorf("serving -metrics-addr: %w", err)
		}
		hooks.Metrics = l
		fmt.Printf("dnsguardd: metrics on http://%v/metrics (probes /healthz /readyz)\n", l.Addr())
	}
	stop := make(chan struct{})
	defer close(stop)
	if *keyringReload > 0 {
		go func() {
			for {
				select {
				case <-stop:
					return
				case <-time.After(*keyringReload):
				}
				before := auth.Epoch()
				if err := auth.Reload(); err != nil {
					fmt.Fprintf(os.Stderr, "dnsguardd: keyring reload: %v\n", err)
					continue
				}
				if e := auth.Epoch(); e != before {
					fmt.Printf("dnsguardd: keyring advanced to epoch %d\n", e)
				}
			}
		}()
	}
	if *statsEvery > 0 {
		go func() {
			for {
				select {
				case <-stop:
					return
				case <-time.After(*statsEvery):
				}
				s := g.Stats.Load()
				fmt.Printf("dnsguardd: recv=%d grants=%d valid=%d invalid=%d rl1drop=%d fwd=%d spoofed=%d\n",
					s.Received, s.NewcomerGrants, s.CookieValid, s.CookieInvalid, s.RL1Dropped,
					s.ForwardedToANS, s.UpstreamSpoofed)
			}
		}()
		go metrics.DumpEvery(reg, 6**statsEvery, os.Stderr, stop)
	}

	// SIGHUP reloads the keyring from -state-file (followers adopt the
	// owner's rotations on demand instead of waiting out -keyring-reload);
	// SIGTERM/SIGINT drain gracefully — refuse new cookie exchanges, flush
	// the dataplane, let pending ANS exchanges finish — before closing.
	if *stateFile != "" {
		hooks.Reload = func() error {
			before := auth.Epoch()
			if err := auth.Reload(); err != nil {
				return fmt.Errorf("keyring reload: %w", err)
			}
			if e := auth.Epoch(); e != before {
				fmt.Printf("dnsguardd: keyring advanced to epoch %d\n", e)
			}
			return nil
		}
	}
	if *drainTimeout > 0 {
		hooks.Drain = func() {
			ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
			defer cancel()
			if err := g.Drain(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "dnsguardd: drain: %v\n", err)
			}
		}
		hooks.DrainTimeout = *drainTimeout + time.Second
	}
	hooks.Logf = func(format string, args ...any) {
		fmt.Printf("dnsguardd: "+format+"\n", args...)
	}
	hooks.Shutdown = func() {
		g.Close()
		if proxy != nil {
			proxy.Close()
		}
		s := g.Stats.Load()
		sup := g.Engine().Supervision()
		fmt.Printf("dnsguardd: final stats: recv=%d valid=%d invalid=%d dropped(rl1=%d rl2=%d) spoofed=%d restarts=%d breaker(open=%d close=%d)\n",
			s.Received, s.CookieValid, s.CookieInvalid, s.RL1Dropped, s.RL2Dropped, s.UpstreamSpoofed,
			sup.ShardRestarts, s.BreakerOpens, s.BreakerCloses)
	}
	daemon.Wait(hooks)
	return nil
}
