package workload

import (
	"fmt"
	"net/netip"
	"strings"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/guard"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netsim"
	"dnsguard/internal/ratelimit"
	"dnsguard/internal/vclock"
)

// CampaignLabConfig parameterizes one campaign-pack run against a guarded
// world with an armed mitigation selector and a small legitimate fleet.
type CampaignLabConfig struct {
	// Pack is the scenario to run.
	Pack Pack
	// Seed keys the virtual clock and the campaign PRNGs.
	Seed int64
}

const (
	// labShards is the guard's dataplane width: one tap per shard.
	labShards = 2
	// labTail extends the simulation past the last phase so de-escalation
	// and drain are observable.
	labTail = 2500 * time.Millisecond
)

// CampaignLabResult is everything a test or experiment asserts on.
type CampaignLabResult struct {
	// Guard is the guard's final counter snapshot.
	Guard guard.RemoteStats
	// Mitigation is the selector's final state.
	Mitigation guard.MitigationState
	// Fleet sums the legitimate clients' stats.
	Fleet ClientStats
	// FleetSize is the number of legitimate clients.
	FleetSize int
	// Ideal is the fleet's attempt budget (every pacing slot used): the
	// denominator for goodput.
	Ideal uint64
	// Sent totals campaign packets; PhaseSent splits them per phase.
	Sent      uint64
	PhaseSent []uint64
	// MetricsText is the deterministic text export of every registered
	// series after the run (golden-snapshot input).
	MetricsText string
}

// Goodput is Fleet.Completed / Ideal.
func (r CampaignLabResult) Goodput() float64 {
	if r.Ideal == 0 {
		return 0
	}
	return float64(r.Fleet.Completed) / float64(r.Ideal)
}

// RunCampaignLab runs one campaign pack to completion in a fresh simulated
// world: ANS simulator behind a sharded guard with the layered mitigation
// selector armed, three cookie-capable clients supplying legitimate load,
// and the pack's timeline attacking from a separate host. Everything is
// driven by the virtual clock from cfg.Seed, so the same config returns a
// bit-identical result every time.
func RunCampaignLab(cfg CampaignLabConfig) (CampaignLabResult, error) {
	var res CampaignLabResult
	sched := vclock.New(cfg.Seed)
	defer sched.Close() // a parked proc would keep the lab alive
	net := netsim.New(sched, 200*time.Microsecond)

	ansHost := net.AddHost("ans", netip.MustParseAddr("10.99.0.2"))
	sim, err := NewANSSim(ANSSimConfig{Env: ansHost, Addr: netip.MustParseAddrPort("10.99.0.2:53"), Mode: ModeAnswer})
	if err != nil {
		return res, err
	}
	if err := sim.Start(); err != nil {
		return res, err
	}

	guardHost := net.AddHost("guard", netip.MustParseAddr("10.99.0.1"))
	guardHost.ClaimPrefix(netip.MustParsePrefix("192.0.2.0/24"))
	guardHost.SetQueueCap(1 << 16)
	taps, err := guardHost.OpenTaps(labShards)
	if err != nil {
		return res, err
	}
	ios := make([]guard.PacketIO, len(taps))
	for i, tap := range taps {
		ios[i] = tap
	}
	var key [cookie.KeySize]byte
	key[0] = 0x6D
	auth, err := cookie.Open(cookie.Options{Key: &key})
	if err != nil {
		return res, err
	}
	g, err := guard.NewRemote(guard.RemoteConfig{
		Env:        guardHost,
		IOs:        ios,
		PublicAddr: netip.MustParseAddrPort("192.0.2.1:53"),
		ANSAddr:    netip.MustParseAddrPort("10.99.0.2:53"),
		Zone:       dnswire.MustName("foo.com"),
		Subnet:     netip.MustParsePrefix("192.0.2.0/24"),
		Fallback:   guard.SchemeDNS,
		Auth:       auth,
		// The threshold rung defers to this; lab attack rates sit well
		// above it, the fleet's ~150 req/s well below.
		ActivationThreshold: 800,
		RL1: ratelimit.Limiter1Config{
			PerSourceRate: 100, PerSourceBurst: 20,
			GlobalRate: 2000, GlobalBurst: 200,
			TrackedSources: 1024,
		},
		Mitigation: guard.MitigationConfig{
			Enabled:         true,
			Interval:        100 * time.Millisecond,
			FloodRate:       600,
			PoisonRate:      40,
			DiverseNames:    48,
			DeescalateAfter: 3,
			MinHold:         400 * time.Millisecond,
			FlapWindow:      2 * time.Second,
		},
	})
	if err != nil {
		return res, err
	}
	if err := g.Start(); err != nil {
		return res, err
	}

	// Legitimate fleet: two DNS-based-scheme clients and one modified-DNS
	// client, all cache-hit and paced — the goodput the mitigation ladder
	// must preserve at every rung.
	fleetKinds := []ClientKind{KindNSName, KindNSName, KindModified}
	const fleetInterval = 20 * time.Millisecond
	clients := make([]*Client, len(fleetKinds))
	for i, kind := range fleetKinds {
		ch := net.AddHost(fmt.Sprintf("lrs-%d", i), netip.MustParseAddr(fmt.Sprintf("10.0.0.%d", 11+i)))
		c, err := NewClient(ClientConfig{
			Env: ch, Kind: kind, Mode: ModeHit,
			Target:   netip.MustParseAddrPort("192.0.2.1:53"),
			QName:    dnswire.MustName("www.foo.com"),
			Interval: fleetInterval,
		})
		if err != nil {
			return res, err
		}
		clients[i] = c
		c.Start()
	}

	atkHost := net.AddHost("attacker", netip.MustParseAddr("203.0.113.66"))
	phases := cfg.Pack.Build(PackParams{})
	camp, err := NewCampaign(CampaignConfig{
		Host:     atkHost,
		Target:   netip.MustParseAddrPort("192.0.2.1:53"),
		Zone:     dnswire.MustName("foo.com"),
		Seed:     uint64(cfg.Seed)*0x9E3779B97F4A7C15 + 0xA5A5,
		Upstream: g.UpstreamAddr,
		ANSAddr:  netip.MustParseAddrPort("10.99.0.2:53"),
		Phases:   phases,
	})
	if err != nil {
		return res, err
	}
	camp.Start()

	horizon := PackEnd(phases) + labTail
	sched.Run(horizon)

	r := metrics.NewRegistry()
	g.MetricsInto(r)
	camp.MetricsInto(r)
	fleetSum := func(f func(ClientStats) uint64) func() uint64 {
		return func() uint64 {
			var t uint64
			for _, c := range clients {
				t += f(c.Stats)
			}
			return t
		}
	}
	r.FuncUint("fleet_attempts", fleetSum(func(s ClientStats) uint64 { return s.Attempts }))
	r.FuncUint("fleet_completed", fleetSum(func(s ClientStats) uint64 { return s.Completed }))
	r.FuncUint("fleet_timeouts", fleetSum(func(s ClientStats) uint64 { return s.Timeouts }))
	r.FuncUint("fleet_errors", fleetSum(func(s ClientStats) uint64 { return s.Errors }))
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		return res, err
	}

	if err := guard.CheckConservation(g); err != nil {
		return res, err
	}
	res.Guard = g.Stats()
	res.Mitigation = g.Mitigation()
	for _, c := range clients {
		res.Fleet.Attempts += c.Stats.Attempts
		res.Fleet.Completed += c.Stats.Completed
		res.Fleet.Timeouts += c.Stats.Timeouts
		res.Fleet.Errors += c.Stats.Errors
	}
	res.FleetSize = len(clients)
	res.Ideal = uint64(horizon/fleetInterval) * uint64(len(clients))
	res.Sent = camp.Sent()
	res.PhaseSent = make([]uint64, len(phases))
	for i := range phases {
		res.PhaseSent[i] = camp.PhaseSent(i)
	}
	res.MetricsText = sb.String()
	g.Close()
	sim.Close()
	return res, nil
}
