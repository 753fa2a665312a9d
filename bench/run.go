package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"dnsguard/bench/gen"
	"dnsguard/bench/layers"
	"dnsguard/bench/rig"
)

const (
	windowLen     = time.Second
	warmupWindows = 2 // the verified cache, pools and heap settle before window 0
	setupRounds   = 7 // set-up is repeated and its median reported
	ladderWindows = 2 // seconds per rate-ladder step
)

// ladder steps the legitimate rate above the pinned one; the pinned rate's
// own verdict comes from the main phase.
var ladder = []float64{1.5, 2, 2.5}

// options are one run's inputs.
type options struct {
	Seed    uint64
	Seconds int
	Trace   bool
	Root    string // repository root
	Out     string // scratch and report directory inside the checkout
}

// value is a metric's median over the windows it was computed from, with
// the extremes.
type value struct {
	Def metricDef
	gen.Summary
}

// result is everything one run reports.
type result struct {
	Workload  *workload
	Trace     bool
	Host      rig.Host
	Values    []value // the contract's metrics for this mode, in definition order
	Notes     []value // measured alongside, printed, not part of the contract line
	Attempted int
	Failed    int
	Problems  []string // validation or security failures; any makes the run incorrect
	Ledger    *layers.Ledger
	Rungs     []string
}

func (r *result) correct() bool { return len(r.Problems) == 0 }

func (r *result) get(name string) (gen.Summary, bool) {
	for _, v := range r.Values {
		if v.Def.Name == name {
			return v.Summary, true
		}
	}
	return gen.Summary{}, false
}

// cpuPlan pins the guard to the last core and leaves the rest to ansd and
// the generator; a one-core host runs unpinned and says so.
func cpuPlan() (guardCPUs, sharedCPUs []int) {
	n := runtime.NumCPU()
	if n < 2 {
		return nil, nil
	}
	for c := 0; c < n-1; c++ {
		sharedCPUs = append(sharedCPUs, c)
	}
	return []int{n - 1}, sharedCPUs
}

// bed is a booted stack with its generator.
type bed struct {
	stack *rig.Stack
	gen   *gen.Gen
	spin  *rig.Spinners // the run's idle spinners; not the bed's to close
}

// close is safe to call twice: the traced run closes early, to time the
// layers on idle cores, and the deferred close then finds nothing to do.
func (b *bed) close() error {
	if b.gen != nil {
		b.gen.Close()
		b.gen = nil
	}
	if b.stack != nil {
		return b.stack.Close()
	}
	return nil
}

// setUp builds the daemons, boots them, opens the generator and completes
// the workload's cookie exchanges — what a user waits for before traffic.
func setUp(wl *workload, o options, guardCPUs, sharedCPUs []int) (*bed, time.Duration, error) {
	t0 := time.Now()
	binDir := filepath.Join(o.Out, "bin")
	if err := rig.Build(o.Root, binDir); err != nil {
		return nil, 0, err
	}
	stack, err := rig.Boot(rig.BootConfig{
		BinDir:     binDir,
		Zone:       filepath.Join(o.Root, "bench", "testdata", "bench.zone"),
		GuardFlags: wl.GuardFlags,
		GuardCPUs:  guardCPUs,
		SharedCPUs: sharedCPUs,
	})
	if err != nil {
		return nil, 0, err
	}
	b := &bed{stack: stack}
	b.gen, err = gen.New(gen.Config{Seed: o.Seed, Target: stack.GuardAddr, Kind: wl.Kind, Sources: sources})
	if err == nil && wl.Exchange {
		err = b.gen.Exchange()
	}
	if err == nil {
		err = stack.Err()
	}
	if err != nil {
		_ = b.close()
		return nil, 0, err
	}
	return b, time.Since(t0), nil
}

// sample is what is read at one window boundary.
type sample struct {
	at               time.Time
	guard, ans, self rig.ProcSample
	host             rig.HostSample
	idle             []int64            // per spinner: ns its core had nothing else to do
	guardM, ansM     map[string]float64 // nil unless this boundary was scraped
}

func takeSample(b *bed, traced bool) (sample, error) {
	var s sample
	var err error
	s.at = time.Now()
	if s.guard, err = rig.SampleProc(b.stack.Guard.PID(), traced); err != nil {
		return s, err
	}
	if s.ans, err = rig.SampleProc(b.stack.Ans.PID(), false); err != nil {
		return s, err
	}
	if s.self, err = rig.SampleProc(os.Getpid(), false); err != nil {
		return s, err
	}
	if s.host, err = rig.SampleHost(); err != nil {
		return s, err
	}
	if s.idle, err = b.spin.IdleNS(); err != nil {
		return s, err
	}
	if traced {
		if s.guardM, err = rig.Scrape(b.stack.GuardMetrics); err != nil {
			return s, err
		}
		if s.ansM, err = rig.Scrape(b.stack.AnsMetrics); err != nil {
			return s, err
		}
	}
	return s, nil
}

// phase is one measured stretch: boundary samples 0..n and the generator's
// windows 0..n-1 between them.
type phase struct {
	bed     *bed
	samples []sample
	windows []gen.Window
	steal   []float64 // per window, % of host CPU time
	foreign []float64 // per window, % of the busiest measured core used by other tasks
	noisy   []bool    // per window, rig.Noisy(steal, foreign)

	legitOutside int // legitimate datagrams sent outside the windows: warm-up, drain
}

func stealPct(a, b rig.HostSample) float64 {
	if b.Total <= a.Total {
		return 0
	}
	return 100 * float64(b.Steal-a.Steal) / float64(b.Total-a.Total)
}

// measure runs ph until plan is satisfied, sampling at every window
// boundary; boundaries from traceFrom on are also scraped (-1: none).
func measure(b *bed, ph gen.Phase, plan rig.Plan, traceFrom int) (*phase, error) {
	ph.MaxWindows = plan.Cap
	ph.WindowLen = windowLen
	run := b.gen.Start(ph)
	out := &phase{bed: b}
	var runErr error
	for w := 0; ; w++ {
		time.Sleep(time.Until(run.Boundary(w)))
		s, err := takeSample(b, traceFrom >= 0 && w >= traceFrom)
		if err == nil {
			err = b.stack.Err()
		}
		if err != nil {
			runErr = err
			break
		}
		out.samples = append(out.samples, s)
		if w > 0 {
			steal, foreign := stealPct(out.samples[w-1].host, s.host), out.foreignPct(w-1)
			out.steal = append(out.steal, steal)
			out.foreign = append(out.foreign, foreign)
			out.noisy = append(out.noisy, rig.Noisy(steal, foreign))
			if plan.Done(out.noisy) {
				break
			}
		}
	}
	windows, outside, err := run.Stop()
	if runErr != nil {
		return nil, runErr
	}
	if err != nil {
		return nil, err
	}
	n := len(out.steal)
	out.windows = windows[:n]
	out.legitOutside = outside.LegitSent
	for i := n; i < len(windows); i++ {
		out.legitOutside += windows[i].LegitSent
	}
	return out, nil
}

// perWindow maps fn over the chosen windows.
func (p *phase) perWindow(use []int, fn func(w int) float64) []float64 {
	vals := make([]float64, 0, len(use))
	for _, w := range use {
		vals = append(vals, fn(w))
	}
	return vals
}

// cpuUSPerPkt is process CPU over window w, scaled to the nominal window
// length, per datagram offered in that window.
func (p *phase) cpuUSPerPkt(w int, pick func(*sample) rig.ProcSample, pkts int) float64 {
	if pkts == 0 {
		return 0
	}
	a, b := &p.samples[w], &p.samples[w+1]
	ns := float64(pick(b).RunNS-pick(a).RunNS) * float64(windowLen) / float64(b.at.Sub(a.at))
	return ns / 1000 / float64(pkts)
}

// coresBusyNS is how long cpus were doing anything at all over window w,
// summed: wall time less what each core's idle spinner got, less what the
// hypervisor stole (a stolen core runs no spinner either). It counts
// everything that ran there, softirqs and kernel threads included;
// /proc/stat is no use for this, it calls a core with a spinner fully busy.
func (p *phase) coresBusyNS(w int, cpus []int) float64 {
	a, b := &p.samples[w], &p.samples[w+1]
	total := 0.0
	for i, c := range p.bed.spin.CPUs() {
		if !slices.Contains(cpus, c) {
			continue
		}
		busy := float64(b.at.Sub(a.at)) - float64(b.idle[i]-a.idle[i])
		if c < len(a.host.PerCPUSteal) && c < len(b.host.PerCPUSteal) {
			busy -= float64(b.host.PerCPUSteal[c]-a.host.PerCPUSteal[c]) * 1e7 // 10 ms clock ticks
		}
		total += max(busy, 0)
	}
	return total
}

// measuredCPUs splits the cores into the guard's and the shared ones; on an
// unpinned host every process runs everywhere and both are all cores.
func (p *phase) measuredCPUs() (guard, shared []int) {
	if len(p.bed.stack.GuardCPUs) == 0 {
		return p.bed.spin.CPUs(), p.bed.spin.CPUs()
	}
	return p.bed.stack.GuardCPUs, p.bed.stack.SharedCPUs
}

// coreBusyPct is the mean busy share of cpus over window w.
func (p *phase) coreBusyPct(w int, cpus []int) float64 {
	wall := float64(p.samples[w+1].at.Sub(p.samples[w].at)) * float64(len(cpus))
	return 100 * ratio(p.coresBusyNS(w, cpus), wall)
}

// foreignPct is the share of a measured core, over window w, that went to
// tasks other than the processes pinned there: the cores' busy time less
// those processes' own CPU time. It is taken on the guard's core and on the
// shared cores separately and the larger is reported.
func (p *phase) foreignPct(w int) float64 {
	x, y := &p.samples[w], &p.samples[w+1]
	wall := float64(y.at.Sub(x.at))
	guard := float64(y.guard.RunNS - x.guard.RunNS)
	shared := float64(y.ans.RunNS - x.ans.RunNS + y.self.RunNS - x.self.RunNS)
	over := func(cpus []int, known float64) float64 {
		return 100 * ratio(p.coresBusyNS(w, cpus)-known, wall*float64(len(cpus)))
	}
	guardCPUs, sharedCPUs := p.measuredCPUs()
	if len(p.bed.stack.GuardCPUs) == 0 {
		return over(guardCPUs, guard+shared)
	}
	return max(over(guardCPUs, guard), over(sharedCPUs, shared))
}

func guardOf(s *sample) rig.ProcSample { return s.guard }
func ansOf(s *sample) rig.ProcSample   { return s.ans }
func selfOf(s *sample) rig.ProcSample  { return s.self }

// delta is a guard counter's per-second rate over window w.
func (p *phase) delta(w int, name string) float64 {
	a, b := &p.samples[w], &p.samples[w+1]
	return (b.guardM[name] - a.guardM[name]) / b.at.Sub(a.at).Seconds()
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runWorkload is one contract run: set-up, warm-up, the measured phase, and
// for a traced run the ladder, the layer timers and the ledger.
func runWorkload(wl *workload, o options) (*result, error) {
	guardCPUs, sharedCPUs := cpuPlan()
	if len(sharedCPUs) > 0 {
		if err := rig.PinSelf(sharedCPUs); err != nil {
			guardCPUs, sharedCPUs = nil, nil // a sandbox may forbid it; run unpinned and record that
		}
	}
	res := &result{Workload: wl, Trace: o.Trace, Host: rig.DescribeHost(o.Root, guardCPUs, sharedCPUs, o.Seed)}

	// Every core gets an idle spinner for the whole run, set-up and layer
	// timers included (see rig.StartSpinners for why).
	allCPUs := append(append([]int(nil), sharedCPUs...), guardCPUs...)
	if len(allCPUs) == 0 {
		allCPUs = []int{0}
	}
	spinners, err := rig.StartSpinners(allCPUs)
	if err != nil {
		return nil, err
	}
	defer spinners.Close()

	var b *bed
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		var d time.Duration
		var err error
		if b, d, err = setUp(wl, o, guardCPUs, sharedCPUs); err != nil {
			return nil, err
		}
		b.spin = spinners
		setups = append(setups, d.Seconds())
	}
	defer b.close()

	before, err := takeSample(b, true)
	if err != nil {
		return nil, err
	}
	plan := rig.PlanFor(o.Seconds)
	traceFrom := -1
	if o.Trace {
		// The first windows run untraced: the traced windows' CPU per packet
		// against theirs is the tracing overhead.
		traceFrom = plan.Target / 4
		if traceFrom < 2 {
			traceFrom = 2
		}
	}
	ph, err := measure(b, gen.Phase{LegitQPS: wl.LegitQPS, AttackPPS: wl.AttackPPS, Warmup: warmupWindows}, plan, traceFrom)
	if err != nil {
		return nil, err
	}
	after, err := takeSample(b, true)
	if err != nil {
		return nil, err
	}
	rss, err := rig.PeakRSSMB(b.stack.Guard.PID())
	if err != nil {
		return nil, err
	}
	use, noisy := rig.Select(ph.noisy)
	res.judge(ph, use, &before, &after)
	if err := ph.writeWindows(filepath.Join(o.Out, "windows-"+wl.Name+".csv")); err != nil {
		return nil, err
	}

	if o.Trace {
		if err := res.traceValues(o, ph, use, traceFrom, noisy); err != nil {
			return nil, err
		}
	} else if err := res.endToEndValues(ph, use, noisy, setups, rss); err != nil {
		return nil, err
	}
	if err := b.close(); err != nil {
		res.Problems = append(res.Problems, "leak: "+err.Error())
	}
	if err := spinners.Close(); err != nil {
		res.Problems = append(res.Problems, "leak: "+err.Error())
	}
	return res, nil
}

// judge counts the operations and checks what must hold for the numbers to
// mean anything: every reply valid, nothing refused by the kernel, and no
// query reaching ansd that the legitimate traffic did not cause. Operations
// are counted over the windows the metrics use: one that started while the
// hypervisor held the cores says nothing about the guard.
func (r *result) judge(ph *phase, use []int, before, after *sample) {
	for _, w := range use {
		r.Attempted += ph.windows[w].Started
		r.Failed += ph.windows[w].Failed
	}
	var invalid, sendErrs int
	for i := range ph.windows {
		invalid += ph.windows[i].Invalid
		sendErrs += ph.windows[i].SendErrs
	}
	if invalid > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("%d replies failed validation", invalid))
	}
	if sendErrs > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("kernel refused %d datagrams", sendErrs))
	}
	if r.Attempted == 0 {
		r.Problems = append(r.Problems, "no operation was attempted")
	}
	// Between the two scrapes the only traffic is this phase's (warm-up and
	// drain included), so the guard cannot have forwarded more queries than
	// the generator sent legitimate datagrams, and ansd cannot have seen
	// more than the guard forwarded.
	forwarded := after.guardM["guard_remote_forwarded_to_ans"] - before.guardM["guard_remote_forwarded_to_ans"]
	seen := after.ansM["ans_udp_queries"] - before.ansM["ans_udp_queries"]
	legit := 0
	for i := range ph.windows {
		legit += ph.windows[i].LegitSent
	}
	legit += ph.legitOutside
	if forwarded > float64(legit) || seen > forwarded {
		r.Problems = append(r.Problems, fmt.Sprintf(
			"attack traffic reached the ANS: %d legitimate datagrams sent, guard forwarded %.0f, ansd saw %.0f", legit, forwarded, seen))
	}
}

// writeWindows records every window of the phase, flagged ones included, so
// a surprising median can be traced to the seconds that made it. The three
// processes' CPU per offered datagram sit side by side because host noise
// moves them together and a change to the guard moves one.
func (p *phase) writeWindows(path string) error {
	guardCPUs, sharedCPUs := p.measuredCPUs()
	var sb strings.Builder
	sb.WriteString("window,unix_s,steal_pct,foreign_pct,offered,answers,retried,failed,guard_cpu_us_per_pkt,ans_cpu_us_per_pkt,gen_cpu_us_per_pkt,legit_p50_us,legit_p90_us,late_p99_us,guard_core_busy_pct,shared_core_busy_pct\n")
	for w := range p.windows {
		win := &p.windows[w]
		fmt.Fprintf(&sb, "%d,%.3f,%.2f,%.2f,%d,%d,%d,%d,%.3f,%.3f,%.3f,%.1f,%.1f,%.1f,%.1f,%.1f\n",
			w, float64(p.samples[w].at.UnixNano())/1e9, p.steal[w], p.foreign[w], win.Offered, win.Answers, win.Retried, win.Failed,
			p.cpuUSPerPkt(w, guardOf, win.Offered), p.cpuUSPerPkt(w, ansOf, win.Offered), p.cpuUSPerPkt(w, selfOf, win.Offered),
			win.Latency.Percentile(50)/1000, win.Latency.Percentile(90)/1000, win.Lateness.Percentile(99)/1000,
			p.coreBusyPct(w, guardCPUs), p.coreBusyPct(w, sharedCPUs))
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}
