// Package experiments regenerates every table and figure of the paper's
// evaluation (§IV) on the discrete-event simulator: Table I (scheme
// comparison), Table II (request latency), Table III (guard throughput),
// Figure 5 (BIND under attack, guard on/off), Figure 6 (guard throughput
// under attack), and Figure 7 (TCP proxy under concurrency and attack).
//
// Every experiment uses the single calibrated cost model in
// internal/cpumodel; nothing is tuned per experiment. EXPERIMENTS.md records
// the paper's numbers next to ours.
package experiments

import (
	"net/netip"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/cookie"
	"dnsguard/internal/cpumodel"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/guard"
	"dnsguard/internal/netsim"
	"dnsguard/internal/ratelimit"
	"dnsguard/internal/tcpproxy"
	"dnsguard/internal/tcpsim"
	"dnsguard/internal/vclock"
	"dnsguard/internal/workload"
	"dnsguard/internal/zone"
)

// Topology constants shared by all experiments.
var (
	publicANSAddr = netip.MustParseAddrPort("192.0.2.1:53")
	guardSubnet   = netip.MustParsePrefix("192.0.2.0/24")
	privateANS    = netip.MustParseAddrPort("10.99.0.2:53")
	qname         = dnswire.MustName("www.foo.com")
)

const fooZoneText = `
$ORIGIN foo.com.
@ 3600 IN SOA ns1 admin 1 7200 600 360000 60
@ 3600 IN NS ns1
ns1 3600 IN A 192.0.2.1
www 300 IN A 198.51.100.10
`

// worldSeed drives all simulation randomness and the guard's cookie key.
const worldSeed = 2006

// WorldConfig describes one simulated testbed.
type WorldConfig struct {
	// OneWayWAN is the client↔guard one-way latency. The paper's testbed
	// LAN RTT is 0.4 ms (one-way 200 µs); the latency experiment uses a
	// WAN RTT of 10.9 ms.
	OneWayWAN time.Duration
	// GuardOff removes the guard entirely: the ANS owns the public
	// address (the paper's "protection disabled" baselines).
	GuardOff bool
	// Scheme is the guard's fallback scheme for cookie-less requesters.
	Scheme guard.Scheme
	// UseBIND serves a real zone with BIND's measured service cost
	// instead of the authors' fast ANS simulator.
	UseBIND bool
	// ReferralANS puts the ANS simulator in referral mode (root/TLD
	// shape) instead of answer mode.
	ReferralANS bool
	// Threshold is the guard's activation threshold (0 = always on).
	Threshold float64
	// WithProxy starts the TCP proxy on the public address.
	WithProxy bool
	// ProxyMaxDuration overrides the proxy's 5×RTT duration cap.
	ProxyMaxDuration time.Duration
	// ProxyCostSegments, when positive (and the world is costed), is how
	// many kernel TCP segments workload.MeterProxy charges the guard host
	// per proxied request.
	ProxyCostSegments int
	// RL1Unlimited lifts Rate-Limiter1 entirely (throughput experiments
	// drive one LRS source far past any sane per-source cookie-response
	// budget; Figure 7b answers every flood packet with a truncation
	// reply).
	RL1Unlimited bool
	// RL1Generous raises only the per-source budget (Figure 5's second
	// LRS passes through RL1 on every TCP redirect at up to 1K req/s).
	RL1Generous bool
	// TCPClientPrefixes configures per-source TCP redirection (Figure 5
	// redirects the second LRS to TCP).
	TCPClientPrefixes []netip.Prefix
	// Uncosted disables CPU charging (pure latency measurements).
	Uncosted bool
}

// World is one assembled testbed.
type World struct {
	Sched      *vclock.Scheduler
	Net        *netsim.Network
	GuardHost  *netsim.Host
	ANSHost    *netsim.Host
	LRSHost    *netsim.Host
	LRS2Host   *netsim.Host
	AttackHost *netsim.Host
	Guard      *guard.Remote
	Meter      *workload.GuardMeter // charges the guard's work to GuardHost's CPU; nil when uncosted
	Proxy      *tcpproxy.Proxy
	ANSSim     *workload.ANSSim
	BIND       *ans.Server
	Costs      cpumodel.Costs
	Public     netip.AddrPort
}

// NewWorld assembles the testbed described by cfg.
func NewWorld(cfg WorldConfig) (*World, error) {
	if cfg.OneWayWAN <= 0 {
		cfg.OneWayWAN = 200 * time.Microsecond // paper LAN RTT 0.4 ms
	}
	if cfg.Scheme == 0 {
		cfg.Scheme = guard.SchemeDNS
	}
	sched := vclock.New(worldSeed)
	network := netsim.New(sched, cfg.OneWayWAN)
	w := &World{
		Sched:  sched,
		Net:    network,
		Costs:  cpumodel.Default2006(),
		Public: publicANSAddr,
	}

	// The servers' meters; an uncosted world's charge nothing.
	costs := w.Costs
	if cfg.Uncosted {
		costs = cpumodel.Costs{}
	}

	// The protected server.
	var ansEnv *netsim.Host
	if cfg.GuardOff {
		ansEnv = network.AddHost("ans", publicANSAddr.Addr())
	} else {
		ansEnv = network.AddHost("ans", privateANS.Addr())
	}
	w.ANSHost = ansEnv
	ansAddr := privateANS
	if cfg.GuardOff {
		ansAddr = publicANSAddr
	}
	if cfg.UseBIND {
		zero := uint32(0)
		srv, _, err := workload.MeterBIND(ans.Config{
			Env:         ansEnv,
			Addr:        ansAddr,
			Zone:        zone.MustParse(fooZoneText, dnswire.Root),
			TTLOverride: &zero,
		}, costs.Server)
		if err != nil {
			return nil, err
		}
		if err := srv.Start(); err != nil {
			return nil, err
		}
		w.BIND = srv
	} else {
		mode := workload.ModeAnswer
		if cfg.ReferralANS {
			mode = workload.ModeReferral
		}
		sim, _, err := workload.MeterANSSim(workload.ANSSimConfig{
			Env:  ansEnv,
			Addr: ansAddr,
			Mode: mode,
		}, costs.Server)
		if err != nil {
			return nil, err
		}
		if err := sim.Start(); err != nil {
			return nil, err
		}
		w.ANSSim = sim
	}

	// Client and attacker hosts.
	w.LRSHost = network.AddHost("lrs", netip.MustParseAddr("10.0.0.53"))
	w.LRS2Host = network.AddHost("lrs2", netip.MustParseAddr("10.0.1.53"))
	w.AttackHost = network.AddHost("attacker", netip.MustParseAddr("203.0.113.66"))
	tcpsim.Install(w.LRSHost, tcpsim.Config{})
	tcpsim.Install(w.LRS2Host, tcpsim.Config{})

	if cfg.GuardOff {
		if cfg.UseBIND {
			// DNS-over-TCP straight to BIND (rarely exercised).
			tcpsim.Install(ansEnv, tcpsim.Config{})
		}
		return w, nil
	}

	// The guard, claiming the public address space.
	gh := network.AddHost("guard", netip.MustParseAddr("10.99.0.1"))
	w.GuardHost = gh
	gh.ClaimPrefix(guardSubnet)
	network.SetLatency(gh, ansEnv, 50*time.Microsecond) // guard↔ANS LAN hop
	tcpsim.Install(gh, tcpsim.Config{SYNCookies: true})
	tap, err := gh.OpenTap()
	if err != nil {
		return nil, err
	}
	var key [cookie.KeySize]byte
	key[0] = byte(worldSeed & 0xFF)
	auth, err := cookie.Open(cookie.Options{Key: &key})
	if err != nil {
		return nil, err
	}
	gcfg := guard.RemoteConfig{
		Env:                 gh,
		IOs:                 []guard.PacketIO{tap},
		PublicAddr:          publicANSAddr,
		ANSAddr:             privateANS,
		Zone:                dnswire.MustName("foo.com"),
		Subnet:              guardSubnet,
		Fallback:            cfg.Scheme,
		Auth:                auth,
		TCPClients:          cfg.TCPClientPrefixes,
		ActivationThreshold: cfg.Threshold,
		// The throughput experiments drive one LRS host at full speed;
		// Rate-Limiter2's per-host nominal rate must not gate it.
		RL2: ratelimit.Limiter2Config{PerSourceRate: 1e9, PerSourceBurst: 1e9, TrackedSources: 8192},
	}
	if cfg.RL1Unlimited {
		gcfg.RL1 = ratelimit.Limiter1Config{PerSourceRate: 1e9, PerSourceBurst: 1e9, GlobalRate: 1e12, GlobalBurst: 1e12, TrackedSources: 1024}
	} else if cfg.RL1Generous {
		gcfg.RL1 = ratelimit.Limiter1Config{PerSourceRate: 2000, PerSourceBurst: 400, GlobalRate: 1e9, GlobalBurst: 1e9, TrackedSources: 4096}
	}
	var g *guard.Remote
	if cfg.Uncosted {
		g, err = guard.NewRemote(gcfg)
	} else {
		g, w.Meter, err = workload.MeterGuard(gcfg, w.Costs.Guard)
	}
	if err != nil {
		return nil, err
	}
	if err := g.Start(); err != nil {
		return nil, err
	}
	w.Guard = g

	if cfg.WithProxy {
		p, _, err := workload.MeterProxy(tcpproxy.Config{
			Env:           gh,
			Listen:        publicANSAddr,
			ANSAddr:       privateANS,
			RTT:           2 * cfg.OneWayWAN,
			MaxDuration:   cfg.ProxyMaxDuration,
			ConnRate:      1e9,
			ConnBurst:     1e9,
			MaxConcurrent: 1 << 16,
		}, cfg.ProxyCostSegments, costs.Guard)
		if err != nil {
			return nil, err
		}
		if err := p.Start(); err != nil {
			return nil, err
		}
		w.Proxy = p
	}
	return w, nil
}

// RunPhase advances the simulation to absolute virtual time t.
func (w *World) RunPhase(t time.Duration) { w.Sched.Run(t) }

// MeasureRate runs the simulation over [from, to] and converts the counter
// delta (observed via count) to events/second.
func (w *World) MeasureRate(from, to time.Duration, count func() uint64) float64 {
	w.Sched.Run(from)
	c0 := count()
	w.Sched.Run(to)
	c1 := count()
	return float64(c1-c0) / (to - from).Seconds()
}
