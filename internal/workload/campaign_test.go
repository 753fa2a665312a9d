package workload

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite campaign golden metrics snapshots")

// runPack runs one shipped pack in the lab world at the standard seed.
func runPack(t *testing.T, name string) CampaignLabResult {
	t.Helper()
	pack, ok := PackByName(name)
	if !ok {
		t.Fatalf("unknown pack %q", name)
	}
	res, err := RunCampaignLab(CampaignLabConfig{Pack: pack, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestCampaignPacksDeterministic runs every pack twice with the same seed
// and requires bit-identical metrics exports — the property that makes the
// packs usable as regression tests at all.
func TestCampaignPacksDeterministic(t *testing.T) {
	for _, pack := range Packs() {
		pack := pack
		t.Run(pack.Name, func(t *testing.T) {
			a := runPack(t, pack.Name)
			b := runPack(t, pack.Name)
			if a.MetricsText != b.MetricsText {
				t.Fatalf("same-seed runs diverged:\n--- run A ---\n%s\n--- run B ---\n%s", a.MetricsText, b.MetricsText)
			}
		})
	}
}

// TestCampaignPacksGolden snapshots the full metrics export of each pack run
// against testdata/campaign_<name>.metrics.txt (refresh with -update).
func TestCampaignPacksGolden(t *testing.T) {
	for _, pack := range Packs() {
		pack := pack
		t.Run(pack.Name, func(t *testing.T) {
			res := runPack(t, pack.Name)
			path := filepath.Join("testdata", "campaign_"+pack.Name+".metrics.txt")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(res.MetricsText), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if string(want) != res.MetricsText {
				t.Fatalf("metrics export drifted from golden %s\n--- got ---\n%s\n--- want ---\n%s", path, res.MetricsText, want)
			}
		})
	}
}

// TestCampaignPackAcceptance asserts, per pack, the bounds recorded in
// EXPERIMENTS.md: the selector converges on the documented terminal rung
// for the pack's attack class, the class-specific evidence counters moved,
// and the legitimate fleet kept its goodput bound.
func TestCampaignPackAcceptance(t *testing.T) {
	for _, pack := range Packs() {
		pack := pack
		t.Run(pack.Name, func(t *testing.T) {
			res := runPack(t, pack.Name)
			if res.Sent == 0 {
				t.Fatal("campaign emitted nothing")
			}
			if res.Mitigation.MaxLayer != pack.Terminal {
				t.Errorf("max layer = %v, want terminal %v (state %+v)",
					res.Mitigation.MaxLayer, pack.Terminal, res.Mitigation)
			}
			st := res.Mitigation.Stats
			switch pack.Name {
			case "water-torture":
				if st.WaterTortureIntervals == 0 {
					t.Error("no intervals classified water-torture")
				}
				if res.Guard.TCRedirects < 100 {
					t.Errorf("TC redirects = %d, want >= 100 (TCP-fallback rung active)", res.Guard.TCRedirects)
				}
				if g := res.Goodput(); g < 0.60 {
					t.Errorf("goodput = %.2f, want >= 0.60 (fleet %+v)", g, res.Fleet)
				}
				// The whole point of the TCP-fallback rung: the ANS is not
				// asked to resolve the random-name flood.
				if res.Guard.ForwardedToANS > res.Sent/4 {
					t.Errorf("forwarded %d of %d attack-scale packets to ANS", res.Guard.ForwardedToANS, res.Sent)
				}
			case "kaminsky-sweep":
				if st.PoisoningIntervals == 0 {
					t.Error("no intervals classified poisoning")
				}
				// Every off-path packet (phase 0) is rejected at the source
				// check; the on-path sweep lands as strays/spoofed too.
				if res.Guard.UpstreamSpoofed+res.Guard.UpstreamStrays < res.PhaseSent[0] {
					t.Errorf("upstream rejects = %d+%d, want >= %d off-path sends",
						res.Guard.UpstreamSpoofed, res.Guard.UpstreamStrays, res.PhaseSent[0])
				}
				if res.Guard.UpstreamStrays == 0 {
					t.Error("no ID-sweep strays recorded")
				}
				if g := res.Goodput(); g < 0.60 {
					t.Errorf("goodput = %.2f, want >= 0.60 (fleet %+v)", g, res.Fleet)
				}
			case "spoof-churn":
				if st.SpoofFloodIntervals == 0 {
					t.Error("no intervals classified spoof-flood")
				}
				if res.Guard.RL1Dropped == 0 {
					t.Error("RL1 never engaged against the flood")
				}
				// The source-limit rung must keep cookie grants well below
				// the offered flood.
				if res.Guard.NewcomerGrants > res.Sent*2/5 {
					t.Errorf("grants = %d of %d offered (limiters not biting)", res.Guard.NewcomerGrants, res.Sent)
				}
				if g := res.Goodput(); g < 0.60 {
					t.Errorf("goodput = %.2f, want >= 0.60 (fleet %+v)", g, res.Fleet)
				}
			case "evolving":
				if st.WaterTortureIntervals == 0 || st.SpoofFloodIntervals == 0 || st.PoisoningIntervals == 0 {
					t.Errorf("expected all three classes observed, got %+v", st)
				}
				if st.Escalations < 4 {
					t.Errorf("escalations = %d, want >= 4 (two climbs)", st.Escalations)
				}
				if st.Deescalations == 0 {
					t.Error("selector never de-escalated as the attack softened")
				}
				if g := res.Goodput(); g < 0.50 {
					t.Errorf("goodput = %.2f, want >= 0.50 (fleet %+v)", g, res.Fleet)
				}
			}
		})
	}
}
