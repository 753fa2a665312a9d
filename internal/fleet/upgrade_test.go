package fleet

import (
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/netsim"
	"dnsguard/internal/vclock"
)

// The full-scale rolling-upgrade lab is shared across tests, like the
// catchment-shift one: one run feeds the acceptance assertions and the
// golden-snapshot comparison.
var (
	rollOnce sync.Once
	rollRes  LabResult
	rollErr  error
)

func rollingUpgradeResult(t *testing.T) LabResult {
	t.Helper()
	rollOnce.Do(func() {
		pack, err := PackByName("rolling-upgrade")
		if err != nil {
			rollErr = err
			return
		}
		rollRes, rollErr = RunLab(LabConfig{Pack: pack, Seed: 42})
	})
	if rollErr != nil {
		t.Fatalf("rolling-upgrade lab: %v", rollErr)
	}
	return rollRes
}

// TestRollingUpgrade is the zero-downtime acceptance gate: every site is
// restarted one at a time under live population load and a mid-roll spoof
// flood, with a keyring rotation seeded through a controller outage and a
// site-pair partition. Catchment-moved verified sources must be re-admitted
// with zero extra cookie exchanges, goodput must stay >= 0.99, and the
// gossiped epoch must converge fleet-wide within bounded rounds.
func TestRollingUpgrade(t *testing.T) {
	res := rollingUpgradeResult(t)

	if res.Upgrades != 3 {
		t.Fatalf("completed %d upgrades, want 3", res.Upgrades)
	}
	if res.MovedSources == 0 {
		t.Error("first drain moved no population sources")
	}

	// Zero extra cookie exchanges: every moved or re-admitted source rode
	// the shared (and persisted) keyring — never the newcomer referral path.
	if res.Population.Granted != 0 {
		t.Errorf("population saw %d referral grants (re-challenge storm), want 0", res.Population.Granted)
	}
	if res.Population.Refused != 0 {
		t.Errorf("population refused %d, want 0", res.Population.Refused)
	}

	// Goodput >= 0.99 across three full restarts plus the flood.
	goodput := float64(res.Population.Answered) / float64(res.Population.FlowsSent)
	if goodput < 0.99 {
		t.Errorf("goodput %.4f (answered %d of %d), want >= 0.99",
			goodput, res.Population.Answered, res.Population.FlowsSent)
	}

	// The seeded rotation converged everywhere despite the controller outage
	// and the site 1 - site 2 partition, within bounded gossip rounds.
	for i, e := range res.KeyEpochs {
		if e != 1 {
			t.Errorf("site %d final keyring epoch %d, want 1", i, e)
		}
	}
	if res.GossipConvergeRounds < 0 {
		t.Error("seeded rotation never converged fleet-wide")
	} else if res.GossipConvergeRounds > 8 {
		t.Errorf("rotation converged in %d gossip rounds, want <= 8", res.GossipConvergeRounds)
	}
	if res.Gossip.Adopts == 0 || res.Gossip.Pushes == 0 {
		t.Errorf("gossip left no anti-entropy trace: %+v", res.Gossip)
	}

	// The attack was live while all of this held, and no site rejected a
	// sibling's (or its own pre-restart) cookies.
	if res.AttackSent == 0 {
		t.Error("campaign sent no attack traffic")
	}
	tot := res.Totals()
	if tot.CookieInvalid != 0 {
		t.Errorf("fleet rejected %d cookies across the roll, want 0", tot.CookieInvalid)
	}
	if tot.NewcomerGrants == 0 && tot.RL1Dropped == 0 {
		t.Error("attack left no newcomer-path trace on the fleet")
	}
}

// TestRollingUpgradeGolden pins the full metrics export: same pack, same
// seed, bit-identical replay (upgrades, gossip, and partitions included).
func TestRollingUpgradeGolden(t *testing.T) {
	res := rollingUpgradeResult(t)
	golden := filepath.Join("testdata", "rolling_upgrade_metrics.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(res.MetricsText), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if res.MetricsText != string(want) {
		t.Errorf("metrics snapshot diverged from golden; rerun with -update if intended\ngot:\n%s", res.MetricsText)
	}
}

// TestFleetUpgradePushMode upgrades one site under controller push (no
// gossip) with a rotation landing during the site's downtime: the rejoining
// site re-adopts the controller's ring and is readmitted without the
// population noticing either the restart or the rotation.
func TestFleetUpgradePushMode(t *testing.T) {
	pack := Pack{
		Name:        "upgrade-push",
		Sites:       3,
		Sources:     10_000,
		Rate:        1500,
		PopDuration: 2500 * time.Millisecond,
		Persist:     true,
		Events: []Event{
			{At: 1000 * time.Millisecond, Kind: EventUpgrade, Site: 0, Lag: 200 * time.Millisecond},
			// Lands mid-downtime: site 0's persisted ring is now stale.
			{At: 1100 * time.Millisecond, Kind: EventRotate},
		},
		End: 2500 * time.Millisecond,
	}
	res, err := RunLab(LabConfig{Pack: pack, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Upgrades != 1 {
		t.Fatalf("completed %d upgrades, want 1", res.Upgrades)
	}
	for i, e := range res.KeyEpochs {
		if e != 1 {
			t.Errorf("site %d final epoch %d, want 1 (rejoin re-adopted the push ring)", i, e)
		}
	}
	if res.Population.Refused != 0 || res.Population.Granted != 0 {
		t.Errorf("upgrade+rotation broke the verified path: refused=%d granted=%d",
			res.Population.Refused, res.Population.Granted)
	}
	if res.Population.Answered != res.Population.FlowsSent {
		t.Errorf("answered %d of %d flows", res.Population.Answered, res.Population.FlowsSent)
	}
}

// TestFleetUpgradeRequiresStateDir: an upgrade without persisted keyrings is
// an orchestration error, not a silent fresh-keys restart.
func TestFleetUpgradeRequiresStateDir(t *testing.T) {
	pack := Pack{
		Name:        "upgrade-no-state",
		Sites:       2,
		Sources:     500,
		Rate:        200,
		PopDuration: time.Second,
		Events: []Event{
			{At: 500 * time.Millisecond, Kind: EventUpgrade, Site: 0},
		},
		End: time.Second,
	}
	if _, err := RunLab(LabConfig{Pack: pack, Seed: 3}); err == nil {
		t.Fatal("upgrade without Persist succeeded; want a StateDir error")
	}
}

// TestFleetUpgradeRefusesUnknownScheme: a site whose persisted ring names a
// cookie MAC this build does not know is not rebuilt on it — the restart is
// an orchestration error and the site stays out of the catchment, where a
// guessed scheme would have brought back a guard that verifies nothing.
func TestFleetUpgradeRefusesUnknownScheme(t *testing.T) {
	sched := vclock.New(5)
	net := netsim.New(sched, 200*time.Microsecond)
	f, err := New(Config{
		Net:        net,
		Sites:      2,
		PublicAddr: netip.MustParseAddrPort("192.0.2.1:53"),
		Subnet:     netip.MustParsePrefix("192.0.2.0/24"),
		ANSAddr:    netip.MustParseAddrPort("10.99.0.2:53"),
		StateDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ring := "dnsguard-keyring v1\nepoch 0\nkey-even " + strings.Repeat("ab", cookie.KeySize) +
		"\nkey-odd " + strings.Repeat("cd", cookie.KeySize) + "\nmac nope\n"
	for _, p := range []string{f.statePath(0), f.statePath(0) + ".bak"} {
		if err := os.WriteFile(p, []byte(ring), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	old := f.Site(0).Guard
	f.Schedule([]Event{{At: 10 * time.Millisecond, Kind: EventUpgrade, Site: 0}})
	sched.Run(time.Second)
	if err := f.Err(); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Fatalf("fleet error = %v, want the unknown scheme named", err)
	}
	if f.Upgrades() != 0 || f.Site(0).Guard != old || !f.down[0] {
		t.Errorf("site 0 came back on an unreadable ring: upgrades=%d rebuilt=%v down=%v",
			f.Upgrades(), f.Site(0).Guard != old, f.down[0])
	}
}
