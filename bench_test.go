// Benchmarks regenerating each table and figure of the paper (scaled-down
// sweeps suitable for `go test -bench`; cmd/benchtab runs the full sweeps)
// plus micro-benchmarks of the real data-path operations: cookie
// computation, wire codec, and the guard pipeline.
//
// The table/figure benchmarks execute the discrete-event simulation and
// report the measured quantities via b.ReportMetric — wall-clock ns/op
// reflects simulation effort, not protocol latency.
package dnsguard

import (
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/cpumodel"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/experiments"
	"dnsguard/internal/guard"
	"dnsguard/internal/metrics"
)

// --- Table II: request latency --------------------------------------------

func BenchmarkTableII_Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableII()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				b.ReportMetric(float64(r.Miss)/1e6, string(r.Scheme)+"_miss_ms")
				b.ReportMetric(float64(r.Hit)/1e6, string(r.Scheme)+"_hit_ms")
			}
		}
	}
}

// --- Table III: guard throughput (one benchmark per scheme) ----------------

func benchTableIIIScheme(b *testing.B, label experiments.SchemeLabel) {
	b.Helper()
	opts := experiments.TableIIIOptions{
		Clients: 128,
		Warmup:  150 * time.Millisecond,
		Window:  300 * time.Millisecond,
	}
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableIII(opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scheme == label {
				b.ReportMetric(r.Miss, "miss_req/s")
				b.ReportMetric(r.Hit, "hit_req/s")
				// Observability wired through the metrics registry: guard
				// counter movement over the hit window and fleet latency
				// percentiles.
				b.ReportMetric(float64(r.HitDetail.CookieValid), "hit_Δvalid")
				b.ReportMetric(float64(r.HitDetail.Forwarded), "hit_Δfwd")
				b.ReportMetric(float64(r.HitDetail.P50.Nanoseconds())/1e6, "hit_p50_ms")
				b.ReportMetric(float64(r.HitDetail.P99.Nanoseconds())/1e6, "hit_p99_ms")
			}
		}
		// One full TableIII run covers all schemes; report only the
		// requested one but avoid rerunning per scheme.
		break
	}
}

func BenchmarkTableIII_NSName(b *testing.B)   { benchTableIIIScheme(b, experiments.LabelNSName) }
func BenchmarkTableIII_FabIP(b *testing.B)    { benchTableIIIScheme(b, experiments.LabelFabIP) }
func BenchmarkTableIII_TCP(b *testing.B)      { benchTableIIIScheme(b, experiments.LabelTCP) }
func BenchmarkTableIII_Modified(b *testing.B) { benchTableIIIScheme(b, experiments.LabelModified) }

// --- Figure 5: BIND under attack -------------------------------------------

func BenchmarkFigure5_BINDUnderAttack(b *testing.B) {
	opts := experiments.Figure5Options{
		AttackRates: []float64{0, 16000},
		Warmup:      time.Second,
		Window:      2 * time.Second,
	}
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure5(opts)
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		b.ReportMetric(last.ThroughputOn, "legit_on_req/s@16K")
		b.ReportMetric(last.ThroughputOff, "legit_off_req/s@16K")
		b.ReportMetric(last.CPUOff*100, "ansCPU_off_%@16K")
		break
	}
}

// --- Figure 6: guard under attack -------------------------------------------

func BenchmarkFigure6_GuardUnderAttack(b *testing.B) {
	opts := experiments.Figure6Options{
		AttackRates: []float64{0, 250000},
		Clients:     128,
		Warmup:      150 * time.Millisecond,
		Window:      300 * time.Millisecond,
	}
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure6(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].ThroughputOn, "legit_req/s@0")
		last := points[len(points)-1]
		b.ReportMetric(last.ThroughputOn, "legit_on_req/s@250K")
		b.ReportMetric(last.ThroughputOff, "legit_off_req/s@250K")
		b.ReportMetric(last.CPUOn*100, "guardCPU_%@250K")
		break
	}
}

// --- Figure 7a: TCP proxy vs concurrency ------------------------------------

func BenchmarkFigure7a_ProxyConcurrency(b *testing.B) {
	opts := experiments.Figure7aOptions{
		Concurrency: []int{20, 6000},
		Warmup:      150 * time.Millisecond,
		Window:      300 * time.Millisecond,
	}
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure7a(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].Throughput, "req/s@20conns")
		b.ReportMetric(points[1].Throughput, "req/s@6000conns")
		break
	}
}

// --- Figure 7b: TCP proxy under flood ---------------------------------------

func BenchmarkFigure7b_ProxyUnderFlood(b *testing.B) {
	opts := experiments.Figure7bOptions{
		AttackRates: []float64{0, 250000},
		Warmup:      150 * time.Millisecond,
		Window:      300 * time.Millisecond,
	}
	for i := 0; i < b.N; i++ {
		points, err := experiments.Figure7b(opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(points[0].Throughput, "req/s@0")
		b.ReportMetric(points[1].Throughput, "req/s@250K")
		break
	}
}

// --- Micro-benchmarks: real CPU costs of the data path -----------------------

func benchAuth(b *testing.B) *cookie.Authenticator {
	b.Helper()
	var key [cookie.KeySize]byte
	for i := range key {
		key[i] = byte(i)
	}
	auth, err := cookie.Open(cookie.Options{Key: &key})
	if err != nil {
		b.Fatal(err)
	}
	return auth
}

func BenchmarkCookieMint(b *testing.B) {
	auth := benchAuth(b)
	src := netip.MustParseAddr("203.0.113.7")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = auth.Mint(src)
	}
}

func BenchmarkCookieVerify(b *testing.B) {
	auth := benchAuth(b)
	src := netip.MustParseAddr("203.0.113.7")
	c := auth.Mint(src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !auth.Verify(src, c) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkNSLabelEncodeVerify(b *testing.B) {
	auth := benchAuth(b)
	nc := cookie.NSCodec{}
	src := netip.MustParseAddr("203.0.113.7")
	label := nc.EncodeLabel(auth.Mint(src))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !nc.VerifyLabel(auth, src, label) {
			b.Fatal("label verify failed")
		}
	}
}

func benchResponse(b *testing.B) []byte {
	b.Helper()
	m := &dnswire.Message{
		ID:    4242,
		Flags: dnswire.Flags{QR: true, AA: true},
		Questions: []dnswire.Question{
			{Name: dnswire.MustName("www.foo.com"), Type: dnswire.TypeA, Class: dnswire.ClassINET},
		},
		Answers: []dnswire.RR{
			dnswire.NewRR(dnswire.MustName("www.foo.com"), 300, &dnswire.AData{Addr: netip.MustParseAddr("198.51.100.10")}),
		},
		Authority: []dnswire.RR{
			dnswire.NewRR(dnswire.MustName("foo.com"), 3600, &dnswire.NSData{Host: dnswire.MustName("ns1.foo.com")}),
		},
		Additional: []dnswire.RR{
			dnswire.NewRR(dnswire.MustName("ns1.foo.com"), 3600, &dnswire.AData{Addr: netip.MustParseAddr("192.0.2.1")}),
		},
	}
	wire, err := m.Pack()
	if err != nil {
		b.Fatal(err)
	}
	return wire
}

func BenchmarkWirePack(b *testing.B) {
	wire := benchResponse(b)
	m, err := dnswire.Unpack(wire)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireUnpack(b *testing.B) {
	wire := benchResponse(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dnswire.Unpack(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFabricateNSName(b *testing.B) {
	auth := benchAuth(b)
	nc := cookie.NSCodec{}
	c := auth.Mint(netip.MustParseAddr("203.0.113.7"))
	child := dnswire.MustName("foo.com")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := guard.FabricateNSName(nc, c, child); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGuardPipeline measures the real (wall-clock) cost of the guard's
// full cookie-check path on this machine: decode, label parse, MD5 verify.
// Compare against cpumodel's calibrated 2006 constants.
func BenchmarkGuardPipeline_CookieQuery(b *testing.B) {
	auth := benchAuth(b)
	nc := cookie.NSCodec{}
	src := netip.MustParseAddr("203.0.113.7")
	fab, err := guard.FabricateNSName(nc, auth.Mint(src), dnswire.MustName("foo.com"))
	if err != nil {
		b.Fatal(err)
	}
	wire, err := dnswire.NewQuery(1, fab, dnswire.TypeA).PackUDP(512)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		msg, err := dnswire.Unpack(wire)
		if err != nil {
			b.Fatal(err)
		}
		label, _, ok := guard.ParseFabricatedName(nc, msg.Question().Name)
		if !ok {
			b.Fatal("not a cookie name")
		}
		if !nc.VerifyLabel(auth, src, label) {
			b.Fatal("verify failed")
		}
	}
	costs := cpumodel.Default2006()
	b.ReportMetric(float64(costs.Guard.CookieCheck.Nanoseconds()), "calibrated2006_ns")
}

// --- Micro-benchmarks: metrics primitives ------------------------------------
// A histogram observation sits on the hot path (Func adapters run only at
// scrape time); this bounds its per-event cost.

func BenchmarkMetricsHistogramObserve(b *testing.B) {
	h := metrics.NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i%1000) * time.Microsecond)
	}
}
