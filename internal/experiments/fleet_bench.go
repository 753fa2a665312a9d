// Fleet acceptance rig: runs every shipped fleet pack (catchment shift,
// site failure) on the virtual clock and reduces each run to one row of
// benchtab's fleet table. The machine-readable record of the same runs is
// the goldens under internal/fleet/testdata.
package experiments

import (
	"fmt"
	"io"

	"dnsguard/internal/fleet"
)

// FleetBenchResult is one fleet pack reduced to the counters benchtab's
// fleet table prints.
type FleetBenchResult struct {
	Pack    string
	Sites   int
	Sources int
	// FlowsSent/Answered are the verified population's totals; Goodput is
	// their ratio — 1.0 means no verified flow was lost to the scripted
	// routing churn.
	FlowsSent uint64
	Answered  uint64
	Goodput   float64
	// AttackSent is the spoofed flood volume the fleet absorbed meanwhile.
	AttackSent uint64
	// MovedSources counts population sources the pack's defining shift
	// re-routed; ColdReverified counts the full cookie verifications the
	// shift target performed afterwards (fleet-shared keyring re-admission).
	MovedSources   int
	ColdReverified uint64
	// Blackholed counts packets lost at the front while a dead site's
	// routes were still advertised.
	Blackholed uint64
	// CookieInvalid is the fleet-wide count of cookies that failed to verify.
	CookieInvalid uint64
}

// FleetBenchOptions parameterizes a FleetBench sweep.
type FleetBenchOptions struct {
	// Quick scales the populations down ~10x for a fast smoke pass.
	Quick bool
}

// FleetBench runs every shipped fleet pack under seed 42, the golden
// snapshots', and returns one row per pack.
func FleetBench(opts FleetBenchOptions) ([]FleetBenchResult, error) {
	var rows []FleetBenchResult
	for _, p := range fleet.Packs() {
		cfg := fleet.LabConfig{Pack: p, Seed: 42}
		if opts.Quick {
			cfg.Sources = p.Sources / 10
			cfg.Rate = p.Rate / 4
		}
		res, err := fleet.RunLab(cfg)
		if err != nil {
			return nil, fmt.Errorf("fleet pack %q: %w", p.Name, err)
		}
		row := FleetBenchResult{
			Pack:           p.Name,
			Sites:          p.Sites,
			Sources:        res.VerifiedSources,
			FlowsSent:      res.Population.FlowsSent,
			Answered:       res.Population.Answered,
			AttackSent:     res.AttackSent,
			MovedSources:   res.MovedSources,
			ColdReverified: res.ColdReverified,
			Blackholed:     res.Front.Blackholed,
			CookieInvalid:  res.Totals().CookieInvalid,
		}
		if row.FlowsSent > 0 {
			row.Goodput = float64(row.Answered) / float64(row.FlowsSent)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteFleetBench prints fleet rows in benchtab's tabular style.
func WriteFleetBench(w io.Writer, rows []FleetBenchResult) {
	fmt.Fprintf(w, "%-16s %5s %8s %9s %9s %8s %8s %11s %9s %9s %8s\n",
		"pack", "sites", "sources", "flows", "answered", "goodput", "moved", "reverified", "blackhole", "attack", "invalid")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %5d %8d %9d %9d %8.4f %8d %11d %9d %9d %8d\n",
			r.Pack, r.Sites, r.Sources, r.FlowsSent, r.Answered, r.Goodput,
			r.MovedSources, r.ColdReverified, r.Blackholed, r.AttackSent, r.CookieInvalid)
	}
}
