package metrics

import (
	"strconv"
	"sync/atomic"
	"time"
)

// Histogram buckets count observed durations. Bounds are fixed at
// construction: log-spaced (doubling) from 1 µs, which spans the paper's
// latency range — sub-millisecond cookie verification up to multi-second
// TCP-redirect round trips — in ~25 buckets with ≤2x relative error.
//
// Observations and snapshots are lock-free: each bucket is an independent
// atomic counter, plus an atomic count and sum. A concurrent snapshot may
// see a torn view (an observation counted in sum but not yet in a bucket);
// for monitoring this is acceptable and every individual value is exact
// eventually.
type Histogram struct {
	bounds []time.Duration // upper bound of bucket i (inclusive); last bucket is +inf
	counts []atomic.Uint64 // len(bounds)+1: final slot is the overflow bucket
	count  atomic.Uint64
	sum    atomic.Int64 // total nanoseconds
}

// defaultBounds doubles from 1 µs for 25 buckets: 1µs, 2µs, … ~16.8 s.
func defaultBounds() []time.Duration {
	bounds := make([]time.Duration, 25)
	b := time.Microsecond
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}

// NewHistogram creates a histogram with the default log-spaced bounds.
func NewHistogram() *Histogram {
	return NewHistogramBounds(defaultBounds())
}

// NewHistogramBounds creates a histogram with the given ascending upper
// bounds. An implicit overflow bucket captures anything above the last.
func NewHistogramBounds(bounds []time.Duration) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one duration. Negative durations count in the first
// bucket (they arise from clock adjustments; dropping them would hide load).
func (h *Histogram) Observe(d time.Duration) {
	h.counts[h.bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// bucketIndex locates the first bucket whose upper bound is >= d (binary
// search over the fixed bounds).
func (h *Histogram) bucketIndex(d time.Duration) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] >= d {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear interpolation
// within the containing bucket. Returns 0 when the histogram is empty.
// Observations in the overflow bucket report the last finite bound.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if cum+n >= rank && n > 0 {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lower := time.Duration(0)
			if i > 0 {
				lower = h.bounds[i-1]
			}
			upper := h.bounds[i]
			frac := (rank - cum) / n
			return lower + time.Duration(frac*float64(upper-lower))
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// seriesNames names what h exports under name: _count, _sum_ns, _p50_ns,
// _p90_ns, _p99_ns, then _le_<bound>us per bucket and _le_inf for overflow.
func (h *Histogram) seriesNames(name string) []string {
	names := []string{name + "_count", name + "_sum_ns", name + "_p50_ns", name + "_p90_ns", name + "_p99_ns"}
	for _, b := range h.bounds {
		names = append(names, name+"_le_"+strconv.FormatInt(b.Microseconds(), 10)+"us")
	}
	return append(names, name+"_le_inf")
}

// histMetric is a histogram with its seriesNames built once. It emits the
// count, the sum, the interpolated p50/p90/p99, and one cumulative _le_ line
// per non-empty prefix of buckets.
type histMetric struct {
	*Histogram
	names []string
}

func (m histMetric) sample(_ string, emit func(Sample)) {
	emit(Sample{m.names[0], float64(m.count.Load())})
	emit(Sample{m.names[1], float64(m.sum.Load())})
	emit(Sample{m.names[2], float64(m.Quantile(0.50))})
	emit(Sample{m.names[3], float64(m.Quantile(0.90))})
	emit(Sample{m.names[4], float64(m.Quantile(0.99))})
	var cum uint64
	for i := range m.counts {
		if cum += m.counts[i].Load(); cum != 0 { // empty leading buckets keep exports short
			emit(Sample{m.names[5+i], float64(cum)})
		}
	}
}
