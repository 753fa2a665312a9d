package fleet

// Rolling upgrades. A planned site restart should cost the population
// nothing: the catchment sheds the site's weight first (its verified sources
// re-admit at sibling sites through the shared keyring — one full cookie
// verification each, zero new cookie exchanges), the guard drains to
// quiesced, the replacement instance reopens the persisted keyring so
// pre-restart cookies keep verifying, and the front restores the site's
// weight only after the readiness gate passes: lifecycle serving/warming,
// keyring epoch caught up to the fleet's, ingress backlog settled. This is
// the fleet-side composition of guard.Drain/Ready and cookie.Open.

import (
	"context"
	"fmt"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/guard"
	"dnsguard/internal/metrics"
)

// readmitPoll paces the readiness polling between warm start and catchment
// re-admission.
const readmitPoll = 5 * time.Millisecond

// upgradeSite runs one zero-downtime site upgrade end to end. It must run in
// a proc (it sleeps and blocks on the drain); EventUpgrade spawns it.
// Failures are recorded on Fleet.Err — a half-upgraded fleet cannot limp on
// silently.
func (f *Fleet) upgradeSite(site int, downtime time.Duration) {
	if f.cfg.StateDir == "" {
		f.fail(fmt.Errorf("fleet: upgrade of site %d needs Config.StateDir (persisted keyring)", site))
		return
	}
	if downtime <= 0 {
		downtime = 100 * time.Millisecond
	}
	s := f.sites[site]
	old := s.Guard

	// 1. Shed catchment weight: new flows route to the surviving sites.
	f.catch.SetWeight(site, 0)

	// 2. Graceful drain: refuse new cookie exchanges, flush the dataplane,
	// give pending ANS exchanges their window. Bounded on the virtual clock
	// by the engine backlog and the NAT-table entry life, so no context deadline.
	_ = old.Drain(context.Background())

	// 3. Tear the old instance down. The down flag keeps the front honest
	// about the window: any straggler still routed here blackholes, exactly
	// like a real restart gap.
	old.BeginRestart()
	f.down[site] = true
	old.Close()
	if err := guard.CheckConservation(old); err != nil {
		f.fail(fmt.Errorf("fleet: site %d retiring: %w", site, err))
	}
	retired := old.Stats()
	metrics.AddUint64(&s.Retired, &retired)
	s.retiredRegs = append(s.retiredRegs, s.Registry)

	// The restart itself: exec, config re-read, socket rebind.
	s.Host.Sleep(downtime)

	// 4. The replacement reopens the persisted keyring — cookies minted
	// before the upgrade verify unchanged, including a ring the old instance
	// adopted over gossip seconds before dying.
	auth, err := cookie.Open(cookie.Options{StateFile: f.statePath(site)})
	if err != nil {
		f.fail(fmt.Errorf("fleet: site %d reopening keyring: %w", site, err))
		return
	}
	if !f.cfg.Gossip.Enabled && !f.ctrlDown {
		// Controller push has no anti-entropy path for a rejoining site:
		// model the controller re-pushing its ring on join, or a rotation
		// during the downtime would leave the site unready forever.
		auth.Adopt(f.controller.State())
	}
	g, err := f.newGuard(site, auth)
	if err != nil {
		f.fail(fmt.Errorf("fleet: site %d rebuilding guard: %w", site, err))
		return
	}
	g.WarmStart()
	if err := g.Start(); err != nil {
		f.fail(fmt.Errorf("fleet: site %d restarting guard: %w", site, err))
		return
	}
	s.Guard = g
	s.Registry = metrics.NewRegistry()
	g.MetricsInto(s.Registry)
	f.down[site] = false // back in the gossip mesh; stragglers served again

	// 5. Health-gated re-admission: the front restores the site's weight
	// only once the replacement is ready at the fleet's current epoch —
	// re-evaluated each poll, since a rotation can land mid-warmup.
	for g.Ready(f.fleetEpoch()) != nil {
		s.Host.Sleep(readmitPoll)
	}
	g.MarkServing()
	f.catch.Restore(site)
	f.upgrades++
}

// fail records the first asynchronous orchestration error.
func (f *Fleet) fail(err error) {
	if f.err == nil {
		f.err = err
	}
}
