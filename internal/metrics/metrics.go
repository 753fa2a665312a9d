// Package metrics is the guard-wide observability substrate: a
// dependency-free registry of read-only series adapters and fixed-bucket
// latency histograms with deterministic snapshot and export.
//
// The paper's entire evaluation (Tables I–III, Figures 5–7) is expressed in
// measured rates — cookie issues and verifications, drops at each rate
// limiter, offered load on the ANS, per-scheme latency — and operational
// DNS-defense work (Rizvi et al.'s layered root defense, Wei & Heidemann's
// spoof measurement) triggers every mitigation layer off live measurement.
// This package gives every component one substrate for those numbers:
//
//   - the counts stay where the code that makes them keeps them, in stats
//     structs of atomically written fields: Func and FuncUint register a
//     closure that reads one at snapshot time, and RegisterUint64Fields
//     registers every uint64 field of a struct that way;
//   - Histogram buckets latencies into log-spaced bins spanning the paper's
//     µs-to-s range and reports quantiles by interpolation; its owner
//     observes into it and attaches it with RegisterHistogram;
//   - Registry names those series and exports everything as sorted
//     expvar-style "name value" text or JSON — deterministic output for
//     tests and diffable scrapes.
//
// Naming convention: lower_snake_case, prefixed by component
// ("guard_remote_", "resolver_", "tcpproxy_", ...); histogram-derived
// series append _count, _sum_ns, _p50_ns, _p90_ns, _p99_ns, and
// _le_<bound> bucket lines. DESIGN.md §9 maps series to the paper's tables.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// Sample is one exported series value at snapshot time.
type Sample struct {
	Name  string
	Value float64
}

// metric is anything that can contribute samples to a snapshot.
type metric interface {
	sample(name string, emit func(Sample))
}

// funcMetric adapts a read-only closure — the snapshot adapter used to
// export pre-existing stats struct fields without migrating their type.
type funcMetric func() float64

func (f funcMetric) sample(name string, emit func(Sample)) {
	emit(Sample{name, f()})
}

// Registry is a named set of metrics. All methods are safe for concurrent
// use; registering a name twice panics.
type Registry struct {
	mu sync.RWMutex
	m  map[string]metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]metric)}
}

// RegisterHistogram attaches a caller-owned histogram under name, so
// components that pre-create histograms (one per engine shard) can expose
// them without routing construction through the registry. Panics if name is
// already registered.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered", name))
	}
	r.m[name] = h
}

// Func registers a read-only snapshot adapter under name: fn is called at
// every snapshot. Use it to export fields of pre-existing stats structs
// (loaded atomically by the caller) without changing their type.
func (r *Registry) Func(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.m[name]; ok {
		panic(fmt.Sprintf("metrics: %q already registered", name))
	}
	r.m[name] = funcMetric(fn)
}

// FuncUint is Func for the common case of a uint64 counter field.
func (r *Registry) FuncUint(name string, fn func() uint64) {
	r.Func(name, func() float64 { return float64(fn()) })
}

// Snapshot returns every sample, sorted by name — deterministic for a given
// set of metric values. Func adapters are invoked; histograms expand to
// their derived series.
func (r *Registry) Snapshot() []Sample {
	r.mu.RLock()
	names := make([]string, 0, len(r.m))
	for name := range r.m {
		names = append(names, name)
	}
	sort.Strings(names)
	samples := make([]Sample, 0, len(names))
	for _, name := range names {
		r.m[name].sample(name, func(s Sample) { samples = append(samples, s) })
	}
	r.mu.RUnlock()
	sort.Slice(samples, func(i, j int) bool { return samples[i].Name < samples[j].Name })
	return samples
}

// Get returns the snapshot value of one series (histograms expand to their
// derived series names) and whether it exists.
func (r *Registry) Get(name string) (float64, bool) {
	for _, s := range r.Snapshot() {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// WriteText writes the snapshot as expvar-style "name value" lines, sorted
// by name. Integral values print without a decimal point.
func (r *Registry) WriteText(w io.Writer) error {
	for _, s := range r.Snapshot() {
		if _, err := fmt.Fprintf(w, "%s %s\n", s.Name, formatValue(s.Value)); err != nil {
			return err
		}
	}
	return nil
}

// DumpEvery writes the registry as text to w every interval until stop is
// closed — the headless-run export path (point w at stderr). Each dump is
// framed with a "-- metrics --" header line so interleaved logs stay
// greppable.
func DumpEvery(r *Registry, interval time.Duration, w io.Writer, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			fmt.Fprintln(w, "-- metrics --")
			_ = r.WriteText(w)
		case <-stop:
			return
		}
	}
}

// WriteJSON writes the snapshot as a single JSON object keyed by series
// name, keys in sorted order, a non-finite value as null (JSON has no NaN).
func (r *Registry) WriteJSON(w io.Writer) error {
	b := []byte{'{'}
	for i, s := range r.Snapshot() {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, s.Name)
		b = append(b, ':')
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			b = append(b, "null"...)
		} else {
			b = append(b, formatValue(s.Value)...)
		}
	}
	_, err := w.Write(append(b, '}', '\n'))
	return err
}

// appendJSONString quotes s as encoding/json does, short of its HTML
// escapes: series names are plain snake_case, but Func takes any string.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for _, c := range s { // an invalid byte ranges as U+FFFD
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', byte(c))
		case c < 0x20:
			b = fmt.Appendf(b, `\u%04x`, c)
		default:
			b = utf8.AppendRune(b, c)
		}
	}
	return append(b, '"')
}

func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Delta computes per-series differences between two snapshots taken from the
// same registry (after minus before). Series absent from before are reported
// at their after value; series absent from after are dropped.
func Delta(before, after []Sample) []Sample {
	prev := make(map[string]float64, len(before))
	for _, s := range before {
		prev[s.Name] = s.Value
	}
	out := make([]Sample, 0, len(after))
	for _, s := range after {
		out = append(out, Sample{s.Name, s.Value - prev[s.Name]})
	}
	return out
}
