// Command bench is the repository's benchmark: it builds cmd/ansd and
// cmd/dnsguardd, boots them as processes on loopback, drives them from one
// paced open-loop generator, validates every reply, and prints each metric
// by name with its unit. See README.md for the workloads, the metric map,
// and how to read the ledger.
//
//	go run -C bench . -seed 1                       # four workloads, untraced then traced
//	go run -C bench . -workload spoof_flood -seed 7 -seconds 12 -trace 0
//	go run -C bench . -aa -seed 1                   # two full sets, differences against the bounds
//
// With -workload the last line of output is the benchmark contract's JSON
// result; BENCHMARK.json at the repository root names the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"dnsguard/bench/gen"
	"dnsguard/bench/rig"
)

func main() {
	if len(os.Args) == 2 && os.Args[1] == rig.SpinArg {
		rig.Spin() // a child of ours, pinned by its parent; never returns
	}
	os.Exit(run())
}

func run() (code int) {
	name := flag.String("workload", "", "run one workload and end with the contract's JSON line (default: all four, untraced then traced)")
	seed := flag.Uint64("seed", 1, "seed for source addresses, child names, transaction IDs and attack order")
	seconds := flag.Int("seconds", 12, "one-second measurement windows per phase (the phase extends by up to half to replace noisy ones)")
	trace := flag.Int("trace", 0, "with -workload: 1 makes the traced run that yields the per-layer metrics and the ledger")
	aa := flag.Bool("aa", false, "run two full untraced sets back to back and compare every end-to-end metric against its bound")
	repo := flag.String("repo", "", "repository root (default: found from the working directory)")
	flag.Parse()

	if !gen.Supported || !rig.Supported {
		fmt.Fprintln(os.Stderr, "bench: unsupported platform: needs Linux (IP_PKTINFO, sendmmsg/recvmmsg, sched_setaffinity, /proc) on amd64 or arm64")
		return 2
	}
	if *seconds < 4 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be between 4 and 60")
		return 2
	}
	root, err := findRoot(*repo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	o := options{Seed: *seed, Seconds: *seconds, Root: root, Out: filepath.Join(root, "bench", "out")}
	if err := os.MkdirAll(o.Out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	// No exit leaves a daemon behind: a signal kills every process group and
	// exits; a panic does the same on its way up; returns close their stacks.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		rig.KillAll()
		fmt.Fprintf(os.Stderr, "bench: %v: daemons killed\n", s)
		os.Exit(130)
	}()
	defer func() {
		if p := recover(); p != nil {
			rig.KillAll()
			panic(p)
		}
	}()

	switch {
	case *aa:
		err = runAA(o)
	case *name != "":
		wl := findWorkload(*name)
		if wl == nil {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		o.Trace = *trace != 0
		err = runOne(wl, o, true)
	default:
		for _, traced := range []bool{false, true} {
			for i := range workloads {
				o.Trace = traced
				if e := runOne(&workloads[i], o, false); e != nil {
					err = errors.Join(err, e)
				}
			}
		}
	}
	rig.KillAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// errIncorrect marks a run that completed but failed a validation, security
// or leak check.
var errIncorrect = errors.New("run incorrect")

// runOne runs a workload, prints its table, and with contract set ends with
// the contract's JSON line.
func runOne(wl *workload, o options, contract bool) error {
	res, err := runWorkload(wl, o)
	if err != nil {
		return fmt.Errorf("%s: %w", wl.Name, err)
	}
	printTable(os.Stdout, res)
	if err := writeRows(o.Out, res); err != nil {
		return err
	}
	if contract {
		if err := printContractLine(os.Stdout, res); err != nil {
			return err
		}
	}
	if !res.correct() {
		return fmt.Errorf("%s: %w: %s", wl.Name, errIncorrect, strings.Join(res.Problems, "; "))
	}
	return nil
}

// findRoot locates the repository: the directory whose go.mod declares
// module dnsguard, at or above the working directory (go run -C bench puts
// us one level below it).
func findRoot(flagRoot string) (string, error) {
	dir := flagRoot
	if dir == "" {
		var err error
		if dir, err = os.Getwd(); err != nil {
			return "", err
		}
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if strings.TrimSpace(line) == "module dnsguard" {
					return dir, nil
				}
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir || flagRoot != "" {
			return "", errors.New("repository root not found: no go.mod declaring module dnsguard at or above the working directory (use -repo)")
		}
		dir = parent
	}
}

// benchmarkFile is the part of BENCHMARK.json the A/A comparison reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAA runs every workload twice, untraced, with neighbouring seeds, and
// holds each end-to-end metric's relative difference against the bound
// BENCHMARK.json gives it: the same commit must agree with itself.
func runAA(o options) error {
	raw, err := os.ReadFile(filepath.Join(o.Root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var sets [2][]*result
	for s := range sets {
		for i := range workloads {
			oo := o
			oo.Seed = o.Seed + uint64(s)
			res, err := runWorkload(&workloads[i], oo)
			if err != nil {
				return fmt.Errorf("%s: %w", workloads[i].Name, err)
			}
			printTable(os.Stdout, res)
			if !res.correct() {
				return fmt.Errorf("%s: %w: %s", workloads[i].Name, errIncorrect, strings.Join(res.Problems, "; "))
			}
			sets[s] = append(sets[s], res)
		}
	}
	fmt.Printf("\n== A/A: second set against first, worsening as a share of the first\n")
	fmt.Printf("   %-18s %-24s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "worse", "bound")
	misses := 0
	for i := range workloads {
		for _, m := range bf.EndToEnd {
			a, okA := sets[0][i].get(m.Name)
			b, okB := sets[1][i].get(m.Name)
			if !okA || !okB {
				return fmt.Errorf("BENCHMARK.json lists %s, which the run does not emit", m.Name)
			}
			worse := ratio(b.Median-a.Median, a.Median)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  MISS"
				misses++
			}
			fmt.Printf("   %-18s %-24s %12.4f %12.4f %8.2f%% %6.0f%%%s\n",
				workloads[i].Name, m.Name, a.Median, b.Median, 100*worse, 100*m.Bound, verdict)
		}
	}
	if misses > 0 {
		return fmt.Errorf("A/A: %d metric(s) differ from themselves by more than their bound", misses)
	}
	return nil
}
