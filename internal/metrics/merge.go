package metrics

import (
	"errors"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Cross-registry aggregation. A guard fleet runs one Registry per guard so
// the hot paths never share a counter cacheline across instances; the
// fleet-level view ("how many cookies did the *fleet* verify") is produced
// at scrape time by summing the per-guard snapshots. The same helper serves
// any multi-process roll-up: collect N registries (or N snapshots shipped
// over the wire), merge, export.

// MergeHistogram adds src's observations into dst, bucket by bucket. Both
// histograms must have identical bounds; otherwise nothing is merged and an
// error is returned. Concurrent observation on src during the merge may
// produce a momentarily torn view (same caveat as Histogram snapshots).
func MergeHistogram(dst, src *Histogram) error {
	if len(dst.bounds) != len(src.bounds) {
		return errors.New("metrics: merge histogram: bucket count mismatch (" + strconv.Itoa(len(dst.bounds)) + " vs " + strconv.Itoa(len(src.bounds)) + ")")
	}
	for i := range dst.bounds {
		if dst.bounds[i] != src.bounds[i] {
			return errors.New("metrics: merge histogram: bound " + strconv.Itoa(i) + " mismatch (" + dst.bounds[i].String() + " vs " + src.bounds[i].String() + ")")
		}
	}
	for i := range src.counts {
		dst.counts[i].Add(src.counts[i].Load())
	}
	dst.count.Add(src.count.Load())
	dst.sum.Add(src.sum.Load())
	return nil
}

// Merged snapshots every registry and combines same-named series: Func
// adapters sum their values; histograms merge bucket-wise
// first and then emit their derived series (_count/_sum_ns/quantiles/_le_*),
// so the merged quantiles are computed over the combined distribution rather
// than averaged per-registry. The result is sorted by name.
//
// A series name must have the same kind in every registry, and histogram
// series must share bounds; Merged panics otherwise — mixed kinds under one
// name are a programming error, exactly like double registration.
func Merged(regs ...*Registry) []Sample {
	sums := make(map[string]float64)
	hists := make(map[string]*Histogram)
	for _, r := range regs {
		r.mu.Lock()
		for i, name := range r.names {
			if h, ok := r.ms[i].(histMetric); ok {
				if _, clash := sums[name]; clash {
					r.mu.Unlock()
					panic("metrics: merged series " + strconv.Quote(name) + " is both histogram and scalar")
				}
				acc := hists[name]
				if acc == nil {
					acc = NewHistogramBounds(append([]time.Duration(nil), h.bounds...))
					hists[name] = acc
				}
				if err := MergeHistogram(acc, h.Histogram); err != nil {
					r.mu.Unlock()
					panic(err.Error())
				}
				continue
			}
			r.ms[i].sample(name, func(s Sample) {
				if _, clash := hists[s.Name]; clash {
					panic("metrics: merged series " + strconv.Quote(s.Name) + " is both histogram and scalar")
				}
				sums[s.Name] += s.Value
			})
		}
		r.mu.Unlock()
	}
	var out []Sample
	for name, v := range sums {
		out = append(out, Sample{name, v})
	}
	for name, h := range hists {
		histMetric{h, h.seriesNames(name)}.sample(name, func(s Sample) { out = append(out, s) })
	}
	slices.SortFunc(out, func(a, b Sample) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// MergedInto registers a live roll-up of regs on r: every snapshot of r
// re-merges the current state of all source registries and emits each merged
// series under prefix+name. The roll-up is registered as a single entry
// named prefix; registering two roll-ups with the same prefix panics.
func MergedInto(r *Registry, prefix string, regs ...*Registry) {
	r.add(prefix, mergedMetric{prefix: prefix, regs: regs})
}

// mergedMetric is the registry entry behind MergedInto: one registered name
// expanding to the full merged series set at sample time.
type mergedMetric struct {
	prefix string
	regs   []*Registry
}

func (m mergedMetric) sample(_ string, emit func(Sample)) {
	for _, s := range Merged(m.regs...) {
		emit(Sample{m.prefix + s.Name, s.Value})
	}
}
