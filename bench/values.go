package main

import (
	"fmt"
	"os"
	"path/filepath"

	"dnsguard/bench/gen"
	"dnsguard/bench/layers"
	"dnsguard/bench/rig"
)

// setValues orders vals by defs and fails on any declared metric left out.
func (r *result) setValues(defs []metricDef, vals map[string]gen.Summary) error {
	for _, d := range defs {
		s, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		r.Values = append(r.Values, value{Def: d, Summary: s})
	}
	return nil
}

func single(v float64) gen.Summary { return gen.Summary{Median: v, Min: v, Max: v, N: 1} }

func (r *result) note(name, unit string, s gen.Summary) {
	r.Notes = append(r.Notes, value{Def: metricDef{Name: name, Unit: unit}, Summary: s})
}

func pct(num, den int) float64 { return 100 * ratio(float64(num), float64(den)) }

// guardCPU is the paper's cost figure: the guard process's CPU per
// datagram offered to its public socket, per window.
func (p *phase) guardCPU(use []int) gen.Summary {
	return gen.Summarize(p.perWindow(use, func(w int) float64 {
		return p.cpuUSPerPkt(w, guardOf, p.windows[w].Offered)
	}))
}

func (p *phase) latencyUS(use []int, pctile float64) gen.Summary {
	return gen.Summarize(p.perWindow(use, func(w int) float64 { return p.windows[w].Latency.Percentile(pctile) / 1000 }))
}

func (p *phase) failPct(use []int) gen.Summary {
	return gen.Summarize(p.perWindow(use, func(w int) float64 { return pct(p.windows[w].Failed, p.windows[w].Started) }))
}

func (p *phase) firstTryLossPct(use []int) gen.Summary {
	return gen.Summarize(p.perWindow(use, func(w int) float64 { return pct(p.windows[w].Retried, p.windows[w].Started) }))
}

// busySummaries are the two sizing figures over every window.
func (p *phase) busySummaries() (guard, shared gen.Summary) {
	all := make([]int, len(p.steal))
	for i := range all {
		all[i] = i
	}
	guardCPUs, sharedCPUs := p.measuredCPUs()
	guard = gen.Summarize(p.perWindow(all, func(w int) float64 { return p.coreBusyPct(w, guardCPUs) }))
	shared = gen.Summarize(p.perWindow(all, func(w int) float64 { return p.coreBusyPct(w, sharedCPUs) }))
	return guard, shared
}

// endToEndValues fills the untraced run's metrics.
func (r *result) endToEndValues(ph *phase, use []int, noisy int, setups []float64, rss float64) error {
	vals := map[string]gen.Summary{
		"setup_s": gen.Summarize(setups),
		"legit_goodput_qps": gen.Summarize(ph.perWindow(use, func(w int) float64 {
			return float64(ph.windows[w].Answers) / ph.samples[w+1].at.Sub(ph.samples[w].at).Seconds()
		})),
		"guard_rss_mb": single(rss),
	}
	r.note("guard_cpu_us_per_pkt", "us", ph.guardCPU(use))
	r.note("legit_p50_us", "us", ph.latencyUS(use, 50))
	r.note("legit_p90_us", "us", ph.latencyUS(use, 90))
	r.note("legit_fail_pct", "%", ph.failPct(use))
	r.note("first_try_loss_pct", "%", ph.firstTryLossPct(use))
	r.note("steal_pct", "%", gen.Summarize(ph.steal))
	r.note("foreign_pct", "%", gen.Summarize(ph.foreign))
	r.note("noisy_windows", "count", single(float64(noisy)))
	guardBusy, sharedBusy := ph.busySummaries()
	r.note("guard_core_busy_pct", "%", guardBusy)
	r.note("shared_core_busy_pct", "%", sharedBusy)
	return r.setValues(endToEnd, vals)
}

// mixOf is the share of each packet shape among the datagrams a workload
// offers to the public socket.
func mixOf(wl *workload) []layers.Share {
	switch wl.Kind {
	case gen.KindSession:
		return []layers.Share{{Class: layers.ClassNewcomer, Share: 0.5}, {Class: layers.ClassFirstVerify, Share: 0.5}}
	case gen.KindPlain:
		return []layers.Share{{Class: layers.ClassPassthrough, Share: 1}}
	}
	total := float64(wl.LegitQPS + wl.AttackPPS)
	mix := []layers.Share{{Class: layers.ClassVerified, Share: float64(wl.LegitQPS) / total}}
	if wl.AttackPPS > 0 {
		third := float64(wl.AttackPPS) / 3 / total
		mix = append(mix,
			layers.Share{Class: layers.ClassForgedNS, Share: third},
			layers.Share{Class: layers.ClassNewcomer, Share: third},
			layers.Share{Class: layers.ClassForgedTXT, Share: third})
	}
	return mix
}

// rungOK is the ladder's verdict on one rate: first-try loss at most 1 %,
// p90 at most 5 ms, and no backlog growing across the step.
func rungOK(ws []gen.Window) (ok bool, why string) {
	var started, retried int
	var lat gen.Samples
	for i := range ws {
		started += ws[i].Started
		retried += ws[i].Retried
		lat.Merge(&ws[i].Latency)
	}
	loss := pct(retried, started)
	p90 := lat.Percentile(90) / 1e6
	first, last := ws[0].Backlog, ws[len(ws)-1].Backlog
	ok = loss <= 1 && p90 <= 5 && lat.Len() > 0 && last <= 2*first+64
	return ok, fmt.Sprintf("first-try loss %.2f %%, p90 %.2f ms, backlog %d → %d", loss, p90, first, last)
}

// traceValues fills the traced run's metrics: counter deltas over the traced
// windows, then the rate ladder while the daemons are still up, then — with
// the daemons gone, so nothing competes for the cores — the layer timers and
// the ledger.
func (r *result) traceValues(o options, ph *phase, use []int, traceFrom, noisy int) error {
	wl, b := r.Workload, ph.bed
	// Only windows scraped at both ends carry counter deltas.
	var traced, untraced []int
	for _, w := range use {
		if w >= traceFrom {
			traced = append(traced, w)
		} else {
			untraced = append(untraced, w)
		}
	}
	if len(traced) == 0 {
		return fmt.Errorf("no traced window survived quiet-window selection")
	}
	vals := map[string]gen.Summary{}
	perSec := func(name, counter string) {
		vals[name] = gen.Summarize(ph.perWindow(traced, func(w int) float64 { return ph.delta(w, counter) }))
	}
	share := func(name, counter string) {
		vals[name] = gen.Summarize(ph.perWindow(traced, func(w int) float64 {
			return 100 * ratio(ph.delta(w, counter), ph.delta(w, "guard_remote_received"))
		}))
	}
	vals["guard.pkts_per_read"] = gen.Summarize(ph.perWindow(traced, func(w int) float64 {
		return ratio(ph.delta(w, "guard_engine_ingest_packets"), ph.delta(w, "guard_engine_ingest_reads"))
	}))
	vals["guard.ctxsw_per_pkt"] = gen.Summarize(ph.perWindow(traced, func(w int) float64 {
		return ratio(float64(ph.samples[w+1].guard.CtxSw-ph.samples[w].guard.CtxSw), float64(ph.windows[w].Offered))
	}))
	vals["guard.sys_cpu_share"] = gen.Summarize(ph.perWindow(traced, func(w int) float64 {
		a, b := ph.samples[w].guard, ph.samples[w+1].guard
		return 100 * ratio(float64(b.SysTick-a.SysTick), float64(b.SysTick-a.SysTick+b.UserTick-a.UserTick))
	}))
	share("guard.fastpath_share", "guard_remote_fast_path_hits")
	share("guard.forward_share", "guard_remote_forwarded_to_ans")
	share("guard.reply_share", "guard_remote_replies_to_client")
	perSec("guard.cookie_invalid", "guard_remote_cookie_invalid")
	perSec("guard.rl1_dropped", "guard_remote_rl1_dropped")
	perSec("guard.rl2_dropped", "guard_remote_rl2_dropped")
	perSec("guard.pending_dropped", "guard_remote_pending_dropped")
	perSec("guard.malformed", "guard_remote_malformed")
	perSec("guard.upstream_strays", "guard_remote_upstream_strays")
	perSec("engine.shed_new", "guard_engine_shed_new")
	perSec("engine.shed_old", "guard_engine_shed_old")
	perSec("engine.verified_evictions", "guard_engine_fast_path_evictions")
	var pending []float64
	for i := traceFrom; i < len(ph.samples); i++ {
		pending = append(pending, ph.samples[i].guardM["guard_remote_pending"])
	}
	peak := gen.Summarize(pending)
	peak.Median = peak.Max // the metric is the peak; min and max still show the range scraped
	vals["guard.pending_peak"] = peak
	vals["ans.cpu_us_per_query"] = gen.Summarize(ph.perWindow(traced, func(w int) float64 {
		a, b := &ph.samples[w], &ph.samples[w+1]
		return ratio(float64(b.ans.RunNS-a.ans.RunNS)/1000, b.ansM["ans_udp_queries"]-a.ansM["ans_udp_queries"])
	}))
	vals["gen.cpu_us_per_pkt"] = gen.Summarize(ph.perWindow(use, func(w int) float64 {
		return ph.cpuUSPerPkt(w, selfOf, ph.windows[w].Offered)
	}))
	vals["gen.late_p99_us"] = gen.Summarize(ph.perWindow(use, func(w int) float64 { return ph.windows[w].Lateness.Percentile(99) / 1000 }))
	vals["gen.first_try_loss_pct"] = ph.firstTryLossPct(use)
	vals["gen.legit_fail_pct"] = ph.failPct(use)
	vals["gen.legit_p99_us"] = ph.latencyUS(use, 99)
	vals["gen.legit_p999_us"] = ph.latencyUS(use, 99.9)
	vals["rig.steal_pct"] = gen.Summarize(ph.steal)
	vals["rig.foreign_pct"] = gen.Summarize(ph.foreign)
	vals["rig.noisy_windows"] = single(float64(noisy))
	vals["rig.guard_core_busy_pct"], vals["rig.shared_core_busy_pct"] = ph.busySummaries()

	cpuTraced := ph.guardCPU(traced)
	overhead := 0.0
	if len(untraced) > 0 {
		overhead = 100 * (ratio(cpuTraced.Median, ph.guardCPU(untraced).Median) - 1)
	}
	vals["trace.overhead_pct"] = single(overhead)
	guardCPU := ph.guardCPU(use)
	vals["guard.cpu_us_per_pkt"] = guardCPU
	vals["gen.legit_p50_us"] = ph.latencyUS(use, 50)
	vals["gen.legit_p90_us"] = ph.latencyUS(use, 90)

	// The ladder: the pinned rate's verdict comes from the windows just
	// measured, each higher rung from a short phase of its own.
	var mainWindows []gen.Window
	for _, w := range use {
		mainWindows = append(mainWindows, ph.windows[w])
	}
	best := 0.0
	ok, why := rungOK(mainWindows)
	r.Rungs = append(r.Rungs, fmt.Sprintf("x1 (%d qps): ok=%v: %s", wl.LegitQPS, ok, why))
	if ok {
		best = float64(wl.LegitQPS)
	}
	for _, f := range ladder {
		rate := int(float64(wl.LegitQPS) * f)
		step, err := measure(b, gen.Phase{LegitQPS: rate, AttackPPS: wl.AttackPPS},
			rig.Plan{Target: ladderWindows, Cap: ladderWindows}, -1)
		if err != nil {
			return err
		}
		ok, why := rungOK(step.windows)
		r.Rungs = append(r.Rungs, fmt.Sprintf("x%g (%d qps): ok=%v: %s", f, rate, ok, why))
		if ok && float64(rate) > best {
			best = float64(rate)
		}
	}
	vals["gen.ladder_max_ok_qps"] = single(best)

	if err := b.close(); err != nil {
		r.Problems = append(r.Problems, "leak: "+err.Error())
	}
	// The daemons are gone; the timers may use every core (the guard rig
	// sets its own GOMAXPROCS).
	_ = rig.PinSelf(b.spin.CPUs())
	zoneText, err := os.ReadFile(filepath.Join(o.Root, "bench", "testdata", "bench.zone"))
	if err != nil {
		return err
	}
	suite, err := layers.NewSuite(string(zoneText), o.Seed)
	if err != nil {
		return err
	}
	if err := suite.RunMicro(); err != nil {
		return err
	}
	if err := suite.RunGuard(); err != nil {
		return err
	}
	for _, v := range suite.Values() {
		vals[v.Name] = v.Summary
	}
	r.Ledger, err = suite.BuildLedger(mixOf(wl), vals["guard.pkts_per_read"].Median)
	if err != nil {
		return err
	}
	vals["ledger.layers_us_per_pkt"] = single(r.Ledger.LayersUS)
	vals["ledger.residual_us_per_pkt"] = single(guardCPU.Median - r.Ledger.LayersUS)
	if err := r.Ledger.WriteSpans(filepath.Join(o.Out, "trace-"+wl.Name+".json")); err != nil {
		return err
	}
	return r.setValues(perLayer, vals)
}
