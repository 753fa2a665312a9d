package gen

import (
	"math"
	"sort"
)

// Samples is an exact latency record: raw nanosecond values, sorted on
// demand. A one-second window holds a few tens of thousands of samples, so
// exact nearest-rank percentiles cost less than a histogram's resolution
// would cost in spread.
type Samples struct {
	v      []int32
	sorted bool
}

// Add records one value in nanoseconds (clamped to what int32 holds, ~2.1 s;
// an operation fails at 1.5 s, so nothing real is clamped).
func (s *Samples) Add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if ns > 1<<31-1 {
		ns = 1<<31 - 1
	}
	s.v = append(s.v, int32(ns))
	s.sorted = false
}

// Len is the sample count.
func (s *Samples) Len() int { return len(s.v) }

// Merge appends o's samples.
func (s *Samples) Merge(o *Samples) {
	s.v = append(s.v, o.v...)
	s.sorted = false
}

// Percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) in
// nanoseconds, and 0 for an empty record.
func (s *Samples) Percentile(p float64) float64 {
	n := len(s.v)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Slice(s.v, func(i, j int) bool { return s.v[i] < s.v[j] })
		s.sorted = true
	}
	// Nearest rank: the smallest value with at least p% of samples at or
	// below it. The epsilon keeps products like 0.9·10 = 9.000000000000002
	// from rounding up a rank.
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return float64(s.v[rank-1])
}

// Summary is a metric's value over the quiet windows: the median and the
// extremes, with the window count.
type Summary struct {
	Median, Min, Max float64
	N                int
}

// Summarize reduces per-window values to their median, minimum and maximum.
// The median of an even count is the mean of the middle pair.
func Summarize(vals []float64) Summary {
	n := len(vals)
	if n == 0 {
		return Summary{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return Summary{Median: med, Min: s[0], Max: s[n-1], N: n}
}
