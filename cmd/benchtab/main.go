// Command benchtab regenerates every table and figure of the paper's
// evaluation on the discrete-event simulator and prints paper-style rows
// next to the paper's published numbers.
//
// Usage:
//
//	benchtab                  # everything (several minutes)
//	benchtab -run tableII     # one experiment: tableI, tableII, tableIII,
//	                          # fig5, fig6, fig7a, fig7b, campaigns, fleet
//	benchtab -quick           # abbreviated sweeps (~1 minute)
//
// Everything here runs on the virtual clock. A performance number of the
// implementation itself comes from `go run -C bench .` (bench/README.md).
// At exit benchtab prints its peak resident set on stderr ("benchtab: peak
// RSS N MiB", getrusage's ru_maxrss), which `make benchtab-check` bounds.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"dnsguard/internal/experiments"
)

func main() {
	err := run()
	if rss, ok := peakRSS(); ok {
		fmt.Fprintf(os.Stderr, "benchtab: peak RSS %d MiB\n", rss>>20)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	runSel := flag.String("run", "all", "experiment to run: all, tableI, tableII, tableIII, fig5, fig6, fig7a, fig7b, campaigns, fleet")
	quick := flag.Bool("quick", false, "abbreviated parameter sweeps")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments here (go tool pprof)")
	memProfile := flag.String("memprofile", "", "write a heap profile here at exit (go tool pprof)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settled heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: -memprofile: %v\n", err)
			}
		}()
	}

	sel := strings.ToLower(*runSel)
	want := func(name string) bool { return sel == "all" || sel == strings.ToLower(name) }
	out := os.Stdout

	if want("tableI") {
		experiments.Rule(out, "Table I — scheme comparison")
		experiments.WriteTableI(out)
	}
	if want("tableII") {
		experiments.Rule(out, "Table II — request latency (RTT 10.9 ms)")
		start := time.Now()
		rows, err := experiments.TableII()
		if err != nil {
			return fmt.Errorf("table II: %w", err)
		}
		experiments.WriteTableII(out, rows)
		fmt.Fprintf(out, "(measured in %v)\n", time.Since(start).Round(time.Millisecond))
	}
	if want("tableIII") {
		experiments.Rule(out, "Table III — guard throughput")
		opts := experiments.TableIIIOptions{}
		if *quick {
			opts.Warmup, opts.Window = 150*time.Millisecond, 300*time.Millisecond
		}
		start := time.Now()
		rows, err := experiments.TableIII(opts)
		if err != nil {
			return fmt.Errorf("table III: %w", err)
		}
		experiments.WriteTableIII(out, rows)
		fmt.Fprintf(out, "(measured in %v)\n", time.Since(start).Round(time.Millisecond))
	}
	if want("fig5") {
		experiments.Rule(out, "Figure 5 — BIND under attack (guard on/off)")
		opts := experiments.Figure5Options{}
		if *quick {
			opts.AttackRates = []float64{0, 4000, 8000, 12000, 16000}
			opts.Warmup, opts.Window = time.Second, 2*time.Second
		}
		start := time.Now()
		points, err := experiments.Figure5(opts)
		if err != nil {
			return fmt.Errorf("figure 5: %w", err)
		}
		experiments.WriteFigure5(out, points)
		fmt.Fprintf(out, "(measured in %v)\n", time.Since(start).Round(time.Millisecond))
	}
	if want("fig6") {
		experiments.Rule(out, "Figure 6 — guard throughput under attack")
		opts := experiments.Figure6Options{}
		if *quick {
			opts.AttackRates = []float64{0, 50000, 100000, 150000, 200000, 250000}
			opts.Warmup, opts.Window = 200*time.Millisecond, 400*time.Millisecond
		}
		start := time.Now()
		points, err := experiments.Figure6(opts)
		if err != nil {
			return fmt.Errorf("figure 6: %w", err)
		}
		experiments.WriteFigure6(out, points)
		fmt.Fprintf(out, "(measured in %v)\n", time.Since(start).Round(time.Millisecond))
	}
	if want("fig7a") {
		experiments.Rule(out, "Figure 7a — TCP proxy vs concurrency")
		opts := experiments.Figure7aOptions{}
		if *quick {
			opts.Concurrency = []int{1, 20, 100, 1000, 6000}
			opts.Warmup, opts.Window = 200*time.Millisecond, 400*time.Millisecond
		}
		start := time.Now()
		points, err := experiments.Figure7a(opts)
		if err != nil {
			return fmt.Errorf("figure 7a: %w", err)
		}
		experiments.WriteFigure7a(out, points)
		fmt.Fprintf(out, "(measured in %v)\n", time.Since(start).Round(time.Millisecond))
	}
	if want("fig7b") {
		experiments.Rule(out, "Figure 7b — TCP proxy under UDP flood")
		opts := experiments.Figure7bOptions{}
		if *quick {
			opts.AttackRates = []float64{0, 50000, 100000, 150000, 200000, 250000}
			opts.Warmup, opts.Window = 200*time.Millisecond, 400*time.Millisecond
		}
		start := time.Now()
		points, err := experiments.Figure7b(opts)
		if err != nil {
			return fmt.Errorf("figure 7b: %w", err)
		}
		experiments.WriteFigure7b(out, points)
		fmt.Fprintf(out, "(measured in %v)\n", time.Since(start).Round(time.Millisecond))
	}
	if want("campaigns") {
		experiments.Rule(out, "Campaign packs — layered auto-mitigation acceptance")
		start := time.Now()
		rows, err := experiments.Campaigns()
		if err != nil {
			return fmt.Errorf("campaigns: %w", err)
		}
		experiments.WriteCampaigns(out, rows)
		fmt.Fprintf(out, "(measured in %v)\n", time.Since(start).Round(time.Millisecond))
	}
	if want("fleet") {
		experiments.Rule(out, "Fleet — anycast guard fleet under scripted catchment churn")
		start := time.Now()
		rows, err := experiments.FleetBench(experiments.FleetBenchOptions{Quick: *quick})
		if err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
		experiments.WriteFleetBench(out, rows)
		fmt.Fprintf(out, "(measured in %v)\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}
