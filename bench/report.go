package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"dnsguard/bench/rig"
)

// row is one line of the machine-readable report: a metric with its spread
// and, on every row, the host it was measured on.
type row struct {
	Workload string   `json:"workload"`
	Trace    bool     `json:"trace"`
	Metric   string   `json:"metric"`
	Unit     string   `json:"unit"`
	Median   float64  `json:"median"`
	Min      float64  `json:"min"`
	Max      float64  `json:"max"`
	N        int      `json:"n"`
	Contract bool     `json:"contract"` // listed in BENCHMARK.json, as opposed to a note
	Host     rig.Host `json:"host"`
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// writeRows writes the run's rows to out/rows-<workload>-<mode>.jsonl.
func writeRows(dir string, r *result) error {
	mode := "e2e"
	if r.Trace {
		mode = "trace"
	}
	f, err := os.Create(filepath.Join(dir, "rows-"+r.Workload.Name+"-"+mode+".jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	emit := func(vs []value, contract bool) {
		for _, v := range vs {
			if err == nil {
				err = enc.Encode(row{
					Workload: r.Workload.Name, Trace: r.Trace, Metric: v.Def.Name, Unit: v.Def.Unit,
					Median: finite(v.Median), Min: finite(v.Min), Max: finite(v.Max), N: v.N,
					Contract: contract, Host: r.Host,
				})
			}
		}
	}
	emit(r.Values, true)
	emit(r.Notes, false)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printTable prints every metric of the run by name with its unit, the
// median over the quiet windows, and the extremes.
func printTable(w io.Writer, r *result) {
	mode := "end-to-end (tracing off)"
	if r.Trace {
		mode = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n== %s · %s · %d qps legitimate + %d pps attack\n", r.Workload.Name, mode, r.Workload.LegitQPS, r.Workload.AttackPPS)
	fmt.Fprintf(w, "   why: %s\n", r.Workload.Why)
	fmt.Fprintf(w, "   host: %s\n", r.Host)
	fmt.Fprintf(w, "   %-34s %-6s %14s %14s %14s %4s\n", "metric", "unit", "median", "min", "max", "n")
	line := func(v value, mark string) {
		fmt.Fprintf(w, " %s %-34s %-6s %14.4f %14.4f %14.4f %4d\n", mark, v.Def.Name, v.Def.Unit, v.Median, v.Min, v.Max, v.N)
	}
	for _, v := range r.Values {
		line(v, " ")
	}
	for _, v := range r.Notes {
		line(v, "·")
	}
	fmt.Fprintf(w, "   operations: attempted %d, failed %d; correct=%v\n", r.Attempted, r.Failed, r.correct())
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	for _, s := range r.Rungs {
		fmt.Fprintf(w, "   ladder %s\n", s)
	}
	if l := r.Ledger; l != nil {
		fmt.Fprintf(w, "   ledger (%d packets replayed, span cost %.0f ns subtracted, I/O priced at %.2f packets/read):\n",
			l.Packets, l.SpanCostNS, l.PktsPerRead)
		fmt.Fprintf(w, "     %-38s %10s %12s %12s\n", "layer call", "calls/pkt", "self ns", "us/pkt")
		for _, ln := range l.Lines {
			fmt.Fprintf(w, "     %-38s %10.3f %12.1f %12.3f\n", ln.Name, ln.CallsPerPkt, ln.SelfNS, ln.USPerPkt)
		}
	}
}

// contractLine is the benchmark contract's result object.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContractLine prints the run's result as the last line of output.
func printContractLine(w io.Writer, r *result) error {
	line := contractLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractMetric{}}
	for _, v := range r.Values {
		line.Metrics[v.Def.Name] = contractMetric{Value: finite(v.Median), Unit: v.Def.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
