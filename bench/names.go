package main

import "dnsguard/bench/gen"

// metricDef is a metric's identity: what BENCHMARK.json lists, what the
// README documents, and what a run emits must be the same sets (the
// consistency test holds them together).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the gated metrics, one set per workload, measured with tracing
// off. The issue named seven; these three are the ones whose run-to-run
// spread on the reference host stays inside a bound the contract allows.
// guard CPU per packet, p50 and p90 spread 8–16 %, 7–16 % and 18–160 %
// between same-commit runs there (README.md, "Measured spread"), so by the
// issue's own rule they are demoted to the traced list (guard.cpu_us_per_pkt,
// gen.legit_p50_us, gen.legit_p90_us) and still printed with every untraced
// run. legit_fail_pct reads 0 on every workload, and the contract admits no
// metric that can read 0 and no absolute bound: it is gen.legit_fail_pct and
// the result line's failed/attempted.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"legit_goodput_qps", "1/s", "higher", 0.02},
	{"guard_rss_mb", "MiB", "lower", 0.20},
}

// perLayer are the single-layer metrics of the traced run, in the order the
// README's map lists them: in-process timers, the guard rig, the traced
// daemons, the generator and rig themselves, and the ledger.
var perLayer = []metricDef{
	{"dnswire.parse_view_ns", "ns", "lower", 0},
	{"dnswire.unpack_query_ns", "ns", "lower", 0},
	{"dnswire.unpack_query_allocs", "count", "lower", 0},
	{"dnswire.unpack_txt_query_ns", "ns", "lower", 0},
	{"dnswire.unpack_referral_ns", "ns", "lower", 0},
	{"dnswire.unpack_referral_allocs", "count", "lower", 0},
	{"dnswire.pack_fabricated_a_ns", "ns", "lower", 0},
	{"dnswire.pack_grant_ns", "ns", "lower", 0},
	{"cookie.mint_md5_ns", "ns", "lower", 0},
	{"cookie.verify_label_md5_ns", "ns", "lower", 0},
	{"cookie.verify_md5_ns", "ns", "lower", 0},
	{"cookie.batch_verify32_md5_ns", "ns", "lower", 0},
	{"cookie.verify_siphash_ns", "ns", "lower", 0},
	{"engine.verified_hit_ns", "ns", "lower", 0},
	{"engine.verified_miss_ns", "ns", "lower", 0},
	{"engine.verified_insert_evict_ns", "ns", "lower", 0},
	{"ratelimit.rl2_hot_ns", "ns", "lower", 0},
	{"ratelimit.rl1_cold_ns", "ns", "lower", 0},
	{"ratelimit.rl2_cold_ns", "ns", "lower", 0},
	{"realnet.read_b1_ns", "ns", "lower", 0},
	{"realnet.read_b32_ns", "ns", "lower", 0},
	{"realnet.write_b1_ns", "ns", "lower", 0},
	{"realnet.write_b32_ns", "ns", "lower", 0},
	{"ans.handle_referral_ns", "ns", "lower", 0},
	{"guard.reject_nslabel_ns", "ns", "lower", 0},
	{"guard.reject_nslabel_allocs", "count", "lower", 0},
	{"guard.reject_txt_ns", "ns", "lower", 0},
	{"guard.reject_txt_allocs", "count", "lower", 0},
	{"guard.grant_ns", "ns", "lower", 0},
	{"guard.grant_allocs", "count", "lower", 0},
	{"guard.verified_cycle_ns", "ns", "lower", 0},
	{"guard.verified_cycle_allocs", "count", "lower", 0},
	{"guard.first_verify_cycle_ns", "ns", "lower", 0},
	{"guard.passthrough_cycle_ns", "ns", "lower", 0},
	{"guard.passthrough_cycle_allocs", "count", "lower", 0},
	{"guard.reject_nslabel_2shard_ns", "ns", "lower", 0},

	{"guard.cpu_us_per_pkt", "us", "lower", 0},
	{"guard.pkts_per_read", "count", "higher", 0},
	{"guard.ctxsw_per_pkt", "count", "lower", 0},
	{"guard.sys_cpu_share", "%", "lower", 0},
	{"guard.fastpath_share", "%", "higher", 0},
	{"guard.forward_share", "%", "lower", 0},
	{"guard.reply_share", "%", "lower", 0},
	{"guard.cookie_invalid", "1/s", "lower", 0},
	{"guard.rl1_dropped", "1/s", "lower", 0},
	{"guard.rl2_dropped", "1/s", "lower", 0},
	{"guard.pending_dropped", "1/s", "lower", 0},
	{"guard.pending_peak", "count", "lower", 0},
	{"guard.malformed", "1/s", "lower", 0},
	{"guard.upstream_strays", "1/s", "lower", 0},
	{"engine.shed_new", "1/s", "lower", 0},
	{"engine.shed_old", "1/s", "lower", 0},
	{"engine.verified_evictions", "1/s", "lower", 0},
	{"ans.cpu_us_per_query", "us", "lower", 0},

	{"gen.cpu_us_per_pkt", "us", "lower", 0},
	{"gen.late_p99_us", "us", "lower", 0},
	{"gen.first_try_loss_pct", "%", "lower", 0},
	{"gen.legit_fail_pct", "%", "lower", 0},
	{"gen.legit_p50_us", "us", "lower", 0},
	{"gen.legit_p90_us", "us", "lower", 0},
	{"gen.legit_p99_us", "us", "lower", 0},
	{"gen.legit_p999_us", "us", "lower", 0},
	{"gen.ladder_max_ok_qps", "1/s", "higher", 0},
	{"rig.steal_pct", "%", "lower", 0},
	{"rig.foreign_pct", "%", "lower", 0},
	{"rig.noisy_windows", "count", "lower", 0},
	{"rig.guard_core_busy_pct", "%", "lower", 0},
	{"rig.shared_core_busy_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},

	{"ledger.layers_us_per_pkt", "us", "lower", 0},
	{"ledger.residual_us_per_pkt", "us", "lower", 0},
}

// workload is one traffic mix and the guard flags it runs under. The rates
// are pinned: they were sized once on the reference host (2 vCPU) so the
// guard's core sits at 35–65 % busy, the shared core under 75 %, and
// first-try loss under 0.5 % (3 % on spoof_flood); see README.md.
type workload struct {
	Name       string
	Why        string
	Kind       gen.Kind
	LegitQPS   int
	AttackPPS  int
	Exchange   bool     // complete the cookie exchange for every source during set-up
	GuardFlags []string // beyond the fixed rig flags
}

// sources is the fixed legitimate population: it fits the guard's
// 4096-entry verified cache with room to spare.
const sources = 2048

var workloads = []workload{
	{
		Name:     "verified_repeat",
		Why:      "12000 qps from 2048 sources in the verified cache (Table III cache hit): I/O, view parse, cache probe, RL2, pending table and upstream Unpack/Pack carry the cost; the cookie MAC idles",
		Kind:     gen.KindCookie,
		LegitQPS: 12000,
		Exchange: true,
	},
	{
		Name:      "spoof_flood",
		Why:       "4000 qps legitimate + 40000 pps never-repeating spoofed sources, thirds forged NS labels / newcomers / forged TXT cookies (Fig. 6): Unpack, MAC, RL1 and top-K dominate; ansd must see no attack query",
		Kind:      gen.KindCookie,
		LegitQPS:  4000,
		AttackPPS: 40000,
		Exchange:  true,
	},
	{
		Name:     "newcomer_churn",
		Why:      "4000 sessions/s from sources never seen before, grant then cookie query (Table III cache miss): cache and limiters used as writes: insert, evict, LRU churn, mint, first MAC verify",
		Kind:     gen.KindSession,
		LegitQPS: 4000,
	},
	{
		Name:       "passthrough",
		Why:        "12000 qps relayed raw, guard never active (-threshold 1000000): forwarding floor and bypass control; cookie, cache, limiter changes must not move it, I/O and loop changes move it most",
		Kind:       gen.KindPlain,
		LegitQPS:   12000,
		GuardFlags: []string{"-threshold", "1000000"},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
