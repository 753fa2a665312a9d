// Campaign-pack acceptance runs: every shipped adversarial scenario pack is
// replayed in the deterministic lab world and reported as one row of the
// DESIGN.md §13 acceptance table — which terminal rung the auto-mitigation
// selector converged on, the class evidence it accumulated, and what goodput
// the legitimate fleet kept while the ladder climbed.
package experiments

import (
	"fmt"
	"io"

	"dnsguard/internal/workload"
)

// CampaignRow is the acceptance outcome of one pack run.
type CampaignRow struct {
	Pack     string
	Class    string  // documented attack class
	Terminal string  // documented terminal rung
	Reached  string  // max rung the selector actually reached
	Sent     uint64  // attack packets emitted
	Goodput  float64 // fleet completed / ideal
	Esc      uint64
	Deesc    uint64
	Pass     bool
}

// Campaigns runs every shipped pack in the lab world at the seed of the
// checked-in goldens and returns one acceptance row per pack. A row passes
// when the selector's high-water rung equals the pack's documented terminal
// rung.
func Campaigns() ([]CampaignRow, error) {
	var rows []CampaignRow
	for _, pack := range workload.Packs() {
		res, err := workload.RunCampaignLab(workload.CampaignLabConfig{Pack: pack, Seed: 7})
		if err != nil {
			return nil, fmt.Errorf("pack %s: %w", pack.Name, err)
		}
		rows = append(rows, CampaignRow{
			Pack:     pack.Name,
			Class:    pack.Class.String(),
			Terminal: pack.Terminal.String(),
			Reached:  res.Mitigation.MaxLayer.String(),
			Sent:     res.Sent,
			Goodput:  res.Goodput(),
			Esc:      res.Mitigation.Stats.Escalations,
			Deesc:    res.Mitigation.Stats.Deescalations,
			Pass:     res.Mitigation.MaxLayer == pack.Terminal,
		})
	}
	return rows, nil
}

// WriteCampaigns renders the per-pack acceptance table.
func WriteCampaigns(w io.Writer, rows []CampaignRow) {
	fmt.Fprintln(w, "CAMPAIGN PACKS. Auto-mitigation acceptance (deterministic lab, fixed seed)")
	fmt.Fprintf(w, "%-16s %-14s %-13s %-13s %10s %9s %5s %6s %6s\n",
		"pack", "class", "terminal", "reached", "attack-pkts", "goodput", "esc", "deesc", "pass")
	for _, r := range rows {
		pass := "ok"
		if !r.Pass {
			pass = "FAIL"
		}
		fmt.Fprintf(w, "%-16s %-14s %-13s %-13s %10d %8.1f%% %5d %6d %6s\n",
			r.Pack, r.Class, r.Terminal, r.Reached, r.Sent, 100*r.Goodput, r.Esc, r.Deesc, pass)
	}
}
