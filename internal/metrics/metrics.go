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
//     registers every field of a stats struct that way;
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
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
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

// Registry is a named set of metrics, sorted by name as they register. All
// methods are safe for concurrent use; registering a name twice panics. A
// snapshot reuses the registry's buffer, so a scrape allocates nothing.
type Registry struct {
	mu      sync.Mutex
	names   []string // sorted
	ms      []metric // ms[i] is registered under names[i]
	samples []Sample // the last snapshot
	emit    func(Sample)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	r := new(Registry)
	r.emit = func(s Sample) { r.samples = append(r.samples, s) }
	return r
}

// add registers m under name, in name order. Panics if name is taken.
func (r *Registry) add(name string, m metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, found := slices.BinarySearch(r.names, name)
	if found {
		panic("metrics: " + strconv.Quote(name) + " already registered")
	}
	r.names, r.ms = slices.Insert(r.names, i, name), slices.Insert(r.ms, i, m)
}

// RegisterHistogram attaches a caller-owned histogram under name, so a
// component that pre-creates its histograms can expose them without routing
// construction through the registry. Panics if name is already registered.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	r.add(name, histMetric{h, h.seriesNames(name)})
}

// Func registers a read-only snapshot adapter under name: fn is called at
// every snapshot. Use it to export fields of pre-existing stats structs
// (loaded atomically by the caller) without changing their type.
func (r *Registry) Func(name string, fn func() float64) {
	r.add(name, funcMetric(fn))
}

// FuncUint is Func for the common case of a uint64 counter field.
func (r *Registry) FuncUint(name string, fn func() uint64) {
	r.Func(name, func() float64 { return float64(fn()) })
}

// snapshot is Snapshot into r.samples, which it reuses; r.mu must be held.
func (r *Registry) snapshot() []Sample {
	r.samples = r.samples[:0]
	for i, m := range r.ms {
		m.sample(r.names[i], r.emit)
	}
	slices.SortFunc(r.samples, func(a, b Sample) int { return strings.Compare(a.Name, b.Name) })
	return r.samples
}

// Snapshot returns every sample, sorted by name — deterministic for a given
// set of metric values. Func adapters are invoked; histograms expand to
// their derived series.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.snapshot())
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
	_, err := w.Write(r.appendText(nil))
	return err
}

// WriteJSON writes the snapshot as a single JSON object keyed by series
// name, keys in sorted order, a non-finite value as null (JSON has no NaN).
func (r *Registry) WriteJSON(w io.Writer) error {
	_, err := w.Write(r.appendJSON(nil))
	return err
}

// appendText appends what WriteText writes to b.
func (r *Registry) appendText(b []byte) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.snapshot() {
		b = append(append(b, s.Name...), ' ')
		b = append(appendValue(b, s.Value), '\n')
	}
	return b
}

// appendJSON appends what WriteJSON writes to b.
func (r *Registry) appendJSON(b []byte) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	b = append(b, '{')
	for i, s := range r.snapshot() {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendJSONString(b, s.Name), ':')
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			b = append(b, "null"...)
		} else {
			b = appendValue(b, s.Value)
		}
	}
	return append(b, '}', '\n')
}

// DumpEvery writes the registry as text to w every interval until stop is
// closed — the headless-run export path (point w at stderr). Each dump is
// framed with a "-- metrics --" header line so interleaved logs stay
// greppable.
func DumpEvery(r *Registry, interval time.Duration, w io.Writer, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	var b []byte
	for {
		select {
		case <-t.C:
			b = r.appendText(append(b[:0], "-- metrics --\n"...))
			_, _ = w.Write(b)
		case <-stop:
			return
		}
	}
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
			b = append(b, '\\', 'u', '0', '0', "0123456789abcdef"[c>>4], "0123456789abcdef"[c&0xf])
		default:
			b = utf8.AppendRune(b, c)
		}
	}
	return append(b, '"')
}

// appendValue appends v, integral values without a decimal point.
func appendValue(b []byte, v float64) []byte {
	if v == float64(int64(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
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
