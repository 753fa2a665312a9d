package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// ms converts a duration to floating-point milliseconds for table output.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// WriteTableI renders the scheme-comparison table (paper Table I).
func WriteTableI(w io.Writer) {
	fmt.Fprintln(w, "TABLE I. Comparison among spoof detection schemes")
	fmt.Fprintf(w, "%-34s %-14s %-13s %-34s %-22s %-18s %s\n",
		"Scheme", "Worst Latency", "Best Latency", "Cookie Storage", "Cookie Range", "Amplification", "Deployment")
	for _, r := range TableI() {
		fmt.Fprintf(w, "%-34s %-14s %-13s %-34s %-22s %-18s %s\n",
			r.Scheme,
			fmt.Sprintf("%d RTT", r.WorstLatencyRTT),
			fmt.Sprintf("%d RTT", r.BestLatencyRTT),
			r.CookieStorage, r.CookieRange, r.TrafficAmplification, r.Deployment)
	}
}

// WriteTableII renders measured latencies next to the paper's (Table II).
func WriteTableII(w io.Writer, rows []TableIIRow) {
	fmt.Fprintln(w, "TABLE II. Average DNS request latency (msec); RTT = 10.9 ms")
	fmt.Fprintf(w, "%-28s %14s %14s %14s %14s\n", "Scheme", "Miss (ours)", "Miss (paper)", "Hit (ours)", "Hit (paper)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %14.1f %14.1f %14.1f %14.1f\n",
			r.Scheme, ms(r.Miss), r.PaperMissMs, ms(r.Hit), r.PaperHitMs)
	}
}

// WriteTableIII renders measured throughput next to the paper's (Table III),
// with a per-cell detail line: guard counter movement over the measurement
// window and the client-observed latency percentiles.
func WriteTableIII(w io.Writer, rows []TableIIIRow) {
	fmt.Fprintln(w, "TABLE III. Average DNS request throughput (requests/sec)")
	fmt.Fprintf(w, "%-28s %14s %14s %14s %14s\n", "Scheme", "Miss (ours)", "Miss (paper)", "Hit (ours)", "Hit (paper)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %14.0f %14.0f %14.0f %14.0f\n",
			r.Scheme, r.Miss, r.PaperMiss, r.Hit, r.PaperHit)
		writeCellDetail(w, "miss", r.MissDetail)
		writeCellDetail(w, "hit", r.HitDetail)
	}
}

func writeCellDetail(w io.Writer, label string, d CellDetail) {
	fmt.Fprintf(w, "    %-4s Δvalid=%d Δinvalid=%d Δrl1drop=%d Δfwd=%d  p50=%.2fms p90=%.2fms p99=%.2fms\n",
		label, d.CookieValid, d.CookieInvalid, d.RL1Dropped, d.Forwarded,
		ms(d.P50), ms(d.P90), ms(d.P99))
	per := func(n uint64) float64 { return float64(n) / float64(max(d.Completed, 1)) }
	p := d.Paper
	fmt.Fprintf(w, "         per request: %.2f datagrams, %.2f checks, %.2f grants",
		per(d.Work.Read+d.Work.Written), per(d.Work.Checks), per(d.Work.Grants))
	if p.Datagrams > 0 {
		fmt.Fprintf(w, "; §IV-D: %d, %d, %d", p.Datagrams, p.Checks, p.Grants)
	}
	if p.Deviation != "" {
		fmt.Fprintf(w, " (%s)", p.Deviation)
	}
	fmt.Fprintln(w)
}

// WriteFigure5 renders the Figure 5 series.
func WriteFigure5(w io.Writer, points []Figure5Point) {
	fmt.Fprintln(w, "FIGURE 5. BIND 9 ANS under spoofed flood (guard on/off)")
	fmt.Fprintf(w, "%12s %14s %14s %10s %10s\n", "attack(r/s)", "legit-on(r/s)", "legit-off(r/s)", "cpuANS-on", "cpuANS-off")
	for _, p := range points {
		fmt.Fprintf(w, "%12.0f %14.0f %14.0f %9.0f%% %9.0f%%\n",
			p.AttackRate, p.ThroughputOn, p.ThroughputOff, p.CPUOn*100, p.CPUOff*100)
	}
}

// WriteFigure6 renders the Figure 6 series.
func WriteFigure6(w io.Writer, points []Figure6Point) {
	fmt.Fprintln(w, "FIGURE 6. Guard throughput under spoofed flood (modified-DNS scheme)")
	fmt.Fprintf(w, "%12s %14s %14s %12s %12s\n", "attack(r/s)", "legit-on(r/s)", "legit-off(r/s)", "cpuGuard-on", "Δdropped-on")
	for _, p := range points {
		fmt.Fprintf(w, "%12.0f %14.0f %14.0f %11.0f%% %12d\n",
			p.AttackRate, p.ThroughputOn, p.ThroughputOff, p.CPUOn*100, p.DroppedOn)
	}
}

// WriteFigure7a renders the Figure 7(a) series.
func WriteFigure7a(w io.Writer, points []Figure7aPoint) {
	fmt.Fprintln(w, "FIGURE 7a. Kernel TCP proxy throughput vs concurrent requests")
	fmt.Fprintf(w, "%12s %14s\n", "concurrent", "tput(r/s)")
	for _, p := range points {
		fmt.Fprintf(w, "%12d %14.0f\n", p.Concurrency, p.Throughput)
	}
}

// WriteFigure7b renders the Figure 7(b) series.
func WriteFigure7b(w io.Writer, points []Figure7bPoint) {
	fmt.Fprintln(w, "FIGURE 7b. Kernel TCP proxy throughput under UDP flood (50 concurrent)")
	fmt.Fprintf(w, "%12s %14s\n", "attack(r/s)", "tput(r/s)")
	for _, p := range points {
		fmt.Fprintf(w, "%12.0f %14.0f\n", p.AttackRate, p.Throughput)
	}
}

// Rule prints a section divider.
func Rule(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
}
