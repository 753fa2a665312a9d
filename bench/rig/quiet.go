// Package rig is the benchmark's test stand: it builds and boots the daemons
// as pinned child processes, keeps them from outliving the run, samples
// their CPU and the host's steal time from /proc, scrapes their /metrics,
// and decides which measurement windows were quiet enough to count.
package rig

// A window is noisy — flagged, excluded, replaced by extending the phase —
// when something other than the system under test had the cores.
const (
	// StealLimitPct: the hypervisor took more than this share of the host's
	// CPU time during the window (a steal burst of 10–18 % doubles p50 here).
	StealLimitPct = 3.0
	// ForeignLimitPct: tasks that are neither the daemons nor the generator
	// used more than this share of a measured core (writeback after a build,
	// another tenant of the guest). Quiet windows read 0.05–0.3 %; whole runs
	// were seen at 50 %, with p50 at five times its quiet value and steal at 0.
	ForeignLimitPct = 3.0
)

// Noisy applies the two limits to one window.
func Noisy(stealPct, foreignPct float64) bool {
	return stealPct > StealLimitPct || foreignPct > ForeignLimitPct
}

// Plan is the window budget of a phase: it wants Target windows, accepts the
// phase once Need of them are quiet, and gives up extending at Cap.
type Plan struct{ Target, Need, Cap int }

// PlanFor derives the budget from the requested window count: four fifths
// must be quiet, and the phase may run half again as long to find them (the
// issue's 30/24/45 at full length).
func PlanFor(target int) Plan {
	if target < 1 {
		target = 1
	}
	return Plan{Target: target, Need: (target*4 + 4) / 5, Cap: target + target/2}
}

// Done reports whether a phase whose completed windows were flagged like
// this may stop.
func (p Plan) Done(noisy []bool) bool {
	if len(noisy) >= p.Cap {
		return true
	}
	return len(noisy) >= p.Target && len(Quiet(noisy)) >= p.Need
}

// Quiet returns the indices of the windows not flagged.
func Quiet(noisy []bool) []int {
	var idx []int
	for i, n := range noisy {
		if !n {
			idx = append(idx, i)
		}
	}
	return idx
}

// Select picks the windows a phase's metrics are computed over: the quiet
// ones, or — when fewer than three are quiet, which would make a median
// meaningless — every window. flagged is how many windows were noisy, left
// in or out.
func Select(noisy []bool) (use []int, flagged int) {
	q := Quiet(noisy)
	flagged = len(noisy) - len(q)
	if len(q) >= 3 || flagged == 0 {
		return q, flagged
	}
	use = make([]int, len(noisy))
	for i := range use {
		use[i] = i
	}
	return use, flagged
}
