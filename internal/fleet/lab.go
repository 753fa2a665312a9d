package fleet

import (
	"fmt"
	"net/netip"
	"os"
	"strings"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/guard"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netsim"
	"dnsguard/internal/vclock"
	"dnsguard/internal/workload"
)

// LabConfig parameterizes one fleet-pack run.
type LabConfig struct {
	// Pack is the scenario to run.
	Pack Pack
	// Seed keys the virtual clock, the catchment, and every PRNG.
	Seed int64
	// Sources overrides the pack's population size (0: pack default).
	Sources int
	// Rate overrides the pack's population rate (0: pack default).
	Rate float64
}

// labTail extends the simulation past Pack.End so in-flight replies drain
// before the final accounting.
const labTail = time.Second

// LabResult is everything a test or experiment asserts on after a fleet run.
type LabResult struct {
	// Front is the ECMP front's final counters.
	Front FrontStats
	// Sites holds each guard's final counter snapshot.
	Sites []guard.RemoteStats
	// Population is the verified population's final counters.
	Population workload.PopulationStats
	// AttackSent totals the campaign's spoofed packets.
	AttackSent uint64
	// VerifiedSources is the population size.
	VerifiedSources int
	// MovedSources is the exact number of population sources whose catchment
	// assignment changed across Pack.ShiftAt (assignment snapshots one
	// millisecond before and after the shift).
	MovedSources int
	// ColdValidAtShift snapshots the shift-target site's verified-cookie
	// count just after the shift; ColdReverified is the number of cookies
	// the cold site verified after the shift — the moved population
	// re-admitting through the fleet-shared keyring rather than a
	// re-challenge storm. Both zero when Pack.ShiftSite < 0.
	ColdValidAtShift uint64
	ColdReverified   uint64
	// Upgrades counts completed zero-downtime site upgrades.
	Upgrades int
	// KeyEpochs is each site's final keyring epoch (the upgraded instance's,
	// where a site was restarted).
	KeyEpochs []uint64
	// Gossip aggregates the anti-entropy counters (zero under controller
	// push).
	Gossip GossipStats
	// GossipConvergeRounds is the number of gossip intervals between the
	// highest seeded epoch and the last site adopting it; -1 when the pack
	// seeded no gossip rotation.
	GossipConvergeRounds int
	// MetricsText is the deterministic text export of every registered
	// series after the run (golden-snapshot input).
	MetricsText string
}

// Totals sums the headline counters across all sites (fields not meaningful
// as a fleet-wide sum are left zero).
func (r LabResult) Totals() guard.RemoteStats {
	var t guard.RemoteStats
	for _, s := range r.Sites {
		t.Received += s.Received
		t.CookieValid += s.CookieValid
		t.CookieInvalid += s.CookieInvalid
		t.NewcomerGrants += s.NewcomerGrants
		t.RL1Dropped += s.RL1Dropped
		t.RL2Dropped += s.RL2Dropped
		t.ForwardedToANS += s.ForwardedToANS
		t.RepliesToClient += s.RepliesToClient
		t.Malformed += s.Malformed
	}
	return t
}

// RunLab runs one fleet pack to completion in a fresh simulated world: an
// origin ANS, a Pack.Sites-wide guard fleet behind the anycast front, a
// population-scale verified client base re-presenting cookies from the
// fleet-shared keyring, and the pack's spoofed flood from a separate host,
// with the pack's catchment events scripted on the virtual clock. Same
// config, bit-identical result.
func RunLab(cfg LabConfig) (LabResult, error) {
	var res LabResult
	pack := cfg.Pack
	if cfg.Sources > 0 {
		pack.Sources = cfg.Sources
	}
	if cfg.Rate > 0 {
		pack.Rate = cfg.Rate
	}
	sched := vclock.New(cfg.Seed)
	defer sched.Close() // a parked proc would keep the lab alive
	net := netsim.New(sched, 200*time.Microsecond)

	ansHost := net.AddHost("ans", netip.MustParseAddr("10.99.0.2"))
	sim, err := workload.NewANSSim(workload.ANSSimConfig{
		Env: ansHost, Addr: netip.MustParseAddrPort("10.99.0.2:53"), Mode: workload.ModeAnswer,
	})
	if err != nil {
		return res, err
	}
	if err := sim.Start(); err != nil {
		return res, err
	}

	var stateDir string
	if pack.Persist {
		dir, err := os.MkdirTemp("", "fleet-keyring-")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(dir)
		stateDir = dir
	}
	var key [cookie.KeySize]byte
	key[0] = 0x6D
	flt, err := New(Config{
		Net:        net,
		Sites:      pack.Sites,
		Seed:       splitmix(uint64(cfg.Seed) ^ 0xF1EE7),
		PublicAddr: netip.MustParseAddrPort("192.0.2.1:53"),
		Subnet:     netip.MustParsePrefix("192.0.2.0/24"),
		ANSAddr:    netip.MustParseAddrPort("10.99.0.2:53"),
		Zone:       dnswire.MustName("foo.com"),
		Key:        key,
		StateDir:   stateDir,
		Gossip:     GossipConfig{Enabled: pack.Gossip},
	})
	if err != nil {
		return res, err
	}
	if err := flt.Start(); err != nil {
		return res, err
	}

	// The population host sits just below the 10.128.0.0/9 source pool so its
	// own address never collides with a Zipf rank.
	popHost := net.AddHost("population", netip.MustParseAddr("10.127.0.1"))
	pop, err := workload.NewPopulation(workload.PopulationConfig{
		Host:     popHost,
		Sources:  pack.Sources,
		Rate:     pack.Rate,
		Target:   netip.MustParseAddrPort("192.0.2.1:53"),
		Auth:     flt.Auth(),
		Seed:     uint64(cfg.Seed)*0x9E3779B97F4A7C15 + 0x5EED,
		Duration: pack.PopDuration,
	})
	if err != nil {
		return res, err
	}
	pop.Start()

	var camp *workload.Campaign
	if phases := pack.phases(); len(phases) > 0 {
		atkHost := net.AddHost("attacker", netip.MustParseAddr("203.0.113.66"))
		camp, err = workload.NewCampaign(workload.CampaignConfig{
			Host:    atkHost,
			Target:  netip.MustParseAddrPort("192.0.2.1:53"),
			Zone:    dnswire.MustName("foo.com"),
			Seed:    uint64(cfg.Seed)*0x9E3779B97F4A7C15 + 0xA5A5,
			ANSAddr: netip.MustParseAddrPort("10.99.0.2:53"),
			Phases:  phases,
		})
		if err != nil {
			return res, err
		}
		camp.Start()
	}

	flt.Schedule(pack.Events)

	// Exact shift accounting: enumerate the population's catchment assignment
	// one millisecond either side of the pack's defining shift, and snapshot
	// the cold site's verification counters at the shift so the re-admission
	// wave is measurable on its own.
	var before, after []int
	if pack.ShiftAt > 0 {
		net.At(pack.ShiftAt-time.Millisecond, func() { before = popAssignments(flt, pop) })
		net.At(pack.ShiftAt+time.Millisecond, func() {
			after = popAssignments(flt, pop)
			if pack.ShiftSite >= 0 {
				res.ColdValidAtShift = flt.Site(pack.ShiftSite).Guard.Stats().CookieValid
			}
		})
	}

	horizon := pack.End + labTail
	sched.Run(horizon)

	if err := flt.Err(); err != nil {
		return res, err
	}
	for i := 0; i < flt.Sites(); i++ {
		if err := guard.CheckConservation(flt.Site(i).Guard); err != nil {
			return res, fmt.Errorf("fleet: site %d: %w", i, err)
		}
	}
	for i := range before {
		if before[i] != after[i] {
			res.MovedSources++
		}
	}
	if pack.ShiftSite >= 0 {
		res.ColdReverified = flt.Site(pack.ShiftSite).Guard.Stats().CookieValid - res.ColdValidAtShift
	}

	r := metrics.NewRegistry()
	flt.MetricsInto(r)
	pop.MetricsInto(r)
	if camp != nil {
		camp.MetricsInto(r)
	}
	r.FuncUint("lab_moved_sources", func() uint64 { return uint64(res.MovedSources) })
	r.FuncUint("lab_cold_reverified", func() uint64 { return res.ColdReverified })
	res.Upgrades = int(flt.Upgrades())
	res.Gossip = flt.GossipStats()
	res.GossipConvergeRounds = -1
	if _, rounds, ok := flt.GossipConvergence(); ok {
		res.GossipConvergeRounds = rounds
	}
	for i := 0; i < flt.Sites(); i++ {
		res.KeyEpochs = append(res.KeyEpochs, flt.Site(i).Guard.KeyringEpoch())
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		return res, err
	}

	res.Front = flt.Stats
	res.Sites = make([]guard.RemoteStats, flt.Sites())
	for i := range res.Sites {
		// SiteStats spans upgrades: counters of retired instances included.
		res.Sites[i] = flt.SiteStats(i)
	}
	res.Population = pop.Stats
	if camp != nil {
		res.AttackSent = camp.Sent()
	}
	res.VerifiedSources = pack.Sources
	res.MetricsText = sb.String()

	flt.Close()
	pop.Stop()
	sim.Close()
	return res, nil
}

// popAssignments maps every population rank to its current catchment site.
func popAssignments(f *Fleet, pop *workload.Population) []int {
	out := make([]int, pop.Sources())
	for r := 1; r <= pop.Sources(); r++ {
		out[r-1] = f.Catchment().SiteFor(pop.Addr(r))
	}
	return out
}
