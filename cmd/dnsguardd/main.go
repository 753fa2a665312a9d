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
// SO_REUSEPORT socket on the public address (kernel-hashed per flow); a
// platform without SO_REUSEPORT (anything but Linux amd64/arm64) exits with
// realnet.ErrNoReusePort. -batch M
// lets each read and write syscall move up to M datagrams (recvmmsg/sendmmsg
// on Linux amd64/arm64, a read loop elsewhere); -batch 1 is the same loop
// taking one datagram per read.
//
// Flags follow Go's flag package, which dnsguardd does not link (it would
// bring fmt and reflect into the guard's image; DESIGN.md §19): -name value,
// -name=value, and either with two dashes; a bool flag alone is true, and
// takes a value only as -name=value. Parsing stops at the first argument
// that is not a flag, or after "--". An unknown flag or a bad value prints
// flag's error and the usage and exits 2; -h or -help prints the usage, every
// flag with its default, and exits 0.
package main

import (
	"context"
	"errors"
	"math"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/daemon"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/engine"
	"dnsguard/internal/errs"
	"dnsguard/internal/guard"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
	"dnsguard/internal/realnet"
	"dnsguard/internal/tcpproxy"
)

func main() {
	if err := run(); err != nil {
		os.Stderr.WriteString("dnsguardd: " + err.Error() + "\n")
		os.Exit(1)
	}
}

// options holds what dnsguardd's flags set.
type options struct {
	listen, ansAddr, zoneName, schemeName, metricsAddr string
	stateFile, cookieMAC, ansFallback, overload        string
	threshold                                          float64
	withProxy, keyringFollow, mitigate                 bool
	statsEvery, keyRotate, keyringReload, drainTimeout time.Duration
	shards, batch                                      int
}

// flags defines dnsguardd's flags over o, each set to its default, in name
// order: the order -h lists them in.
func (o *options) flags() flagSet {
	var fs flagSet
	fs.add("ans", &o.ansAddr, "127.0.0.1:5353", "protected ANS address")
	fs.add("ans-fallback", &o.ansFallback, "", "comma-separated secondary ANS addresses, tried in order when the primary's breaker opens")
	fs.add("batch", &o.batch, "1", "most datagrams one read or write syscall may move (1 = one datagram per read, same loop)")
	fs.add("cookie-mac", &o.cookieMAC, "", "cookie MAC scheme: md5 (paper default) or siphash; applies to new keyrings and to legacy state files with no scheme tag (tagged files keep their scheme)")
	fs.add("drain-timeout", &o.drainTimeout, "10s", "bound on the graceful drain SIGTERM triggers (0 = exit without draining)")
	fs.add("key-rotate", &o.keyRotate, "0s", "cookie key rotation period (0 = never); rotations are persisted to -state-file")
	fs.add("keyring-follow", &o.keyringFollow, "false", "open -state-file as a read-only follower handle on a fleet-shared keyring (the owner rotates; this guard only reloads)")
	fs.add("keyring-reload", &o.keyringReload, "0s", "poll -state-file at this interval and adopt newer epochs (fleet followers tracking the owner's rotations)")
	fs.add("listen", &o.listen, "127.0.0.1:5355", "public service address the guard binds")
	fs.add("metrics-addr", &o.metricsAddr, "", "serve GET /metrics, /debug/vars, /healthz and /readyz on this ip:port: plain HTTP/1, one request per connection (empty = off)")
	fs.add("mitigate", &o.mitigate, "false", "run the layered auto-mitigation selector (overrides -threshold while escalated)")
	fs.add("overload-policy", &o.overload, "drop", "when a shard trips, or every upstream's breaker is open (breakers run only with -ans-fallback): drop (fail-closed) or pass (fail-open)")
	fs.add("proxy", &o.withProxy, "true", "run the TCP proxy for redirected/truncated requesters")
	fs.add("scheme", &o.schemeName, "dns", "fallback scheme for cookie-less requesters: dns or tcp")
	fs.add("shards", &o.shards, "1", "dataplane worker shards, each with its own SO_REUSEPORT socket (more than 1 needs SO_REUSEPORT)")
	fs.add("state-file", &o.stateFile, "", "persist the cookie keyring here; a restart with the same file keeps pre-restart cookies valid")
	fs.add("stats", &o.statsEvery, "10s", "stats reporting interval (0 = off)")
	fs.add("threshold", &o.threshold, "0", "activation threshold in req/s, split evenly across -shards (0 = always on)")
	fs.add("zone", &o.zoneName, "", "apex of the protected zone (required)")
	return fs
}

func run() error {
	var o options
	fs := o.flags()
	// As flag.Parse: the usage on stderr, after the error if -h did not ask.
	if _, err := fs.parse(os.Args[1:]); err == errHelp {
		os.Stderr.WriteString(fs.usage(os.Args[0]))
		os.Exit(0)
	} else if err != nil {
		os.Stderr.WriteString(err.Error() + "\n" + fs.usage(os.Args[0]))
		os.Exit(2)
	}

	if o.zoneName == "" {
		return errors.New("-zone is required")
	}
	apex, err := dnswire.ParseName(o.zoneName)
	if err != nil {
		return errs.Wrap("parsing -zone: "+err.Error(), err)
	}
	pub, err := netip.ParseAddrPort(o.listen)
	if err != nil {
		return errs.Wrap("parsing -listen: "+err.Error(), err)
	}
	ans, err := netip.ParseAddrPort(o.ansAddr)
	if err != nil {
		return errs.Wrap("parsing -ans: "+err.Error(), err)
	}
	var scheme guard.Scheme
	switch o.schemeName {
	case "dns":
		scheme = guard.SchemeDNS
	case "tcp":
		scheme = guard.SchemeTCP
	default:
		return errors.New("unknown -scheme " + strconv.Quote(o.schemeName))
	}

	var failOpen bool
	switch o.overload {
	case "drop":
	case "pass":
		failOpen = true
	default:
		return errors.New("unknown -overload-policy " + strconv.Quote(o.overload) + " (want drop or pass)")
	}
	var fallbacks []netip.AddrPort
	if o.ansFallback != "" {
		for _, s := range strings.Split(o.ansFallback, ",") {
			ap, err := netip.ParseAddrPort(strings.TrimSpace(s))
			if err != nil {
				return errs.Wrap("parsing -ans-fallback "+strconv.Quote(s)+": "+err.Error(), err)
			}
			fallbacks = append(fallbacks, ap)
		}
	}
	if o.keyringFollow && o.stateFile == "" {
		return errors.New("-keyring-follow requires -state-file")
	}
	if o.keyringFollow && o.keyRotate > 0 {
		return errors.New("-keyring-follow and -key-rotate are mutually exclusive: the ring's owner rotates, followers reload")
	}
	if o.keyringReload > 0 && o.stateFile == "" {
		return errors.New("-keyring-reload requires -state-file")
	}
	mac, err := cookie.MACByName(o.cookieMAC)
	if err != nil {
		return errs.Wrap("parsing -cookie-mac: "+err.Error(), err)
	}
	env := realnet.New()
	auth, err := cookie.Open(cookie.Options{
		StateFile: o.stateFile,
		Follow:    o.keyringFollow,
		MAC:       mac,
	})
	switch {
	case err != nil && o.keyringFollow:
		return errs.Wrap("opening -state-file as follower: "+err.Error(), err)
	case err != nil && o.stateFile != "":
		return errs.Wrap("opening -state-file: "+err.Error(), err)
	case err != nil:
		return err
	case o.stateFile != "":
		follower := ""
		if o.keyringFollow {
			follower = ", follower"
		}
		say("keyring " + o.stateFile + " (epoch " + strconv.FormatUint(auth.Epoch(), 10) + ", mac " + auth.MAC().Name() + follower + ")")
	}
	trip := engine.TripDrop
	if failOpen {
		trip = engine.TripPass
	}

	// One SO_REUSEPORT socket per shard, each read by its own shard; where
	// the platform cannot steer a flow to one of several sockets, more than
	// one shard is refused.
	caps := netapi.Capabilities(env)
	if caps.ListenUDPReuse == nil {
		return errors.New("environment cannot bind sharded sockets")
	}
	nShards := max(o.shards, 1)
	conns, err := caps.ListenUDPReuse(pub, nShards)
	if err != nil {
		return errs.Wrap("binding "+pub.String()+": "+err.Error(), err)
	}
	ios := make([]guard.PacketIO, len(conns))
	for i, c := range conns {
		ios[i] = &guard.SocketIO{Conn: c}
	}
	g, err := guard.NewRemote(guard.RemoteConfig{
		Env:                 env,
		IOs:                 ios,
		PublicAddr:          conns[0].LocalAddr(),
		Batch:               o.batch,
		ANSAddr:             ans,
		ANSFallbacks:        fallbacks,
		Health:              guard.HealthConfig{FailOpen: failOpen},
		Supervision:         engine.SupervisorConfig{Enabled: true, Trip: trip},
		Zone:                apex,
		Fallback:            scheme,
		Auth:                auth,
		KeyRotation:         o.keyRotate,
		ActivationThreshold: o.threshold,
		Mitigation:          guard.MitigationConfig{Enabled: o.mitigate},
	})
	if err != nil {
		return err
	}
	if err := g.Start(); err != nil {
		return err
	}
	say("guarding zone " + string(apex) + " on " + conns[0].LocalAddr().String() + " → ANS " + ans.String() +
		" (scheme " + scheme.String() + ", threshold " + strconv.FormatFloat(o.threshold, 'f', 0, 64) +
		", shards " + strconv.Itoa(nShards) + ", batch " + strconv.Itoa(max(o.batch, 1)) + ")")

	var proxy *tcpproxy.Proxy
	if o.withProxy {
		proxy, err = tcpproxy.New(tcpproxy.Config{
			Env:     env,
			Listen:  conns[0].LocalAddr(),
			ANSAddr: ans,
			RTT:     50 * time.Millisecond,
		})
		if err != nil {
			return errs.Wrap("starting TCP proxy: "+err.Error(), err)
		}
		if err := proxy.Start(); err != nil {
			return errs.Wrap("starting TCP proxy: "+err.Error(), err)
		}
		say("TCP proxy on " + conns[0].LocalAddr().String())
	}

	reg := metrics.NewRegistry()
	g.MetricsInto(reg)
	if proxy != nil {
		proxy.MetricsInto(reg)
	}
	var hooks daemon.Hooks
	if o.metricsAddr != "" {
		// The metrics listener doubles as the health endpoint: /healthz is
		// process liveness, /readyz the catchment-readmission gate (guard
		// lifecycle serving, keyring epoch current).
		metrics.RuntimeInto(reg)
		l, err := metrics.ServeHealth(o.metricsAddr, reg,
			g.Healthz,
			func() error { return g.Ready(0) })
		if err != nil {
			return errs.Wrap("serving -metrics-addr: "+err.Error(), err)
		}
		hooks.Metrics = l
		say("metrics on http://" + l.Addr().String() + "/metrics (probes /healthz /readyz)")
	}
	// The -keyring-reload ticker and SIGHUP both reload this way.
	reload := func() error {
		before := auth.Epoch()
		if err := auth.Reload(); err != nil {
			return errs.Wrap("keyring reload: "+err.Error(), err)
		}
		if e := auth.Epoch(); e != before {
			say("keyring advanced to epoch " + strconv.FormatUint(e, 10))
		}
		return nil
	}
	stop := make(chan struct{})
	defer close(stop)
	if o.keyringReload > 0 {
		go func() {
			t := time.NewTicker(o.keyringReload)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				if err := reload(); err != nil {
					os.Stderr.WriteString("dnsguardd: " + err.Error() + "\n")
				}
			}
		}()
	}
	if o.statsEvery > 0 {
		go func() {
			var line []byte
			t := time.NewTicker(o.statsEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
				}
				s := g.Stats()
				line = line[:0]
				for _, f := range [...]struct {
					label string
					n     uint64
				}{{"dnsguardd: recv=", s.Received}, {" grants=", s.NewcomerGrants}, {" valid=", s.CookieValid},
					{" invalid=", s.CookieInvalid}, {" rl1drop=", s.RL1Dropped}, {" fwd=", s.ForwardedToANS},
					{" spoofed=", s.UpstreamSpoofed}} {
					line = strconv.AppendUint(append(line, f.label...), f.n, 10)
				}
				line = append(line, '\n')
				_, _ = os.Stdout.Write(line)
			}
		}()
		// A registry dump every sixth stats line; the period saturates
		// rather than wrapping negative, which NewTicker refuses.
		go metrics.DumpEvery(reg, min(o.statsEvery, math.MaxInt64/6)*6, os.Stderr, stop)
	}

	// SIGHUP reloads the keyring from -state-file (followers adopt the
	// owner's rotations on demand instead of waiting out -keyring-reload);
	// SIGTERM/SIGINT drain gracefully — refuse new cookie exchanges, flush
	// the dataplane, let pending ANS exchanges finish — before closing.
	if o.stateFile != "" {
		hooks.Reload = reload
	}
	if o.drainTimeout > 0 {
		hooks.Drain = func() {
			ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
			defer cancel()
			if err := g.Drain(ctx); err != nil {
				os.Stderr.WriteString("dnsguardd: drain: " + err.Error() + "\n")
			}
		}
		hooks.DrainTimeout = o.drainTimeout + time.Second
	}
	hooks.Log = say
	hooks.Shutdown = func() {
		g.Close()
		if proxy != nil {
			proxy.Close()
		}
		s := g.Stats()
		sup := g.Engine().Supervision()
		n := func(v uint64) string { return strconv.FormatUint(v, 10) }
		say("final stats: recv=" + n(s.Received) + " valid=" + n(s.CookieValid) + " invalid=" + n(s.CookieInvalid) +
			" dropped(rl1=" + n(s.RL1Dropped) + " rl2=" + n(s.RL2Dropped) + ") spoofed=" + n(s.UpstreamSpoofed) +
			" restarts=" + n(sup.ShardRestarts) + " breaker(open=" + n(s.BreakerOpens) + " close=" + n(s.BreakerCloses) + ")")
	}
	daemon.Wait(hooks)
	return nil
}

// say prints one line of the daemon's progress on stdout.
func say(msg string) { os.Stdout.WriteString("dnsguardd: " + msg + "\n") }
