package ratelimit

import (
	"net/netip"
	"sync/atomic"

	"dnsguard/internal/srctab"
)

// TopK is a space-saving heavy-hitter sketch (Metwally et al.) over a stream
// of source addresses. It tracks at most k counters; when a new source
// arrives with all counters occupied, the minimum counter is evicted and
// inherited, so counts are overestimates bounded by the evicted minimum. The
// guard's Rate-Limiter1 uses it to identify the top cookie requesters
// (§III-F). Sources are told apart by srctab.Key, so Top reports an IPv4
// source unmapped whichever way it arrived.
//
// Storage is flat and pointer-free: counters by value in one slice, a
// min-heap of their indices ordered as container/heap would order it, and a
// source table from key to counter index.
type TopK struct {
	entries   []tkEntry
	heap      []uint32 // entry indices, min count at the root
	index     *srctab.Table[uint32]
	evictions atomic.Uint64
}

type tkEntry struct {
	key   srctab.Key
	count uint64
	err   uint64 // overestimation bound inherited at eviction
	pos   uint32 // where in heap this entry's index sits
}

// NewTopK creates a sketch with k counters.
func NewTopK(k int) *TopK {
	t := new(TopK)
	t.reset(k)
	return t
}

// reset empties the sketch and zeroes its eviction count, keeping its
// storage when k is unchanged.
func (t *TopK) reset(k int) {
	if k = max(k, 1); cap(t.entries) != k {
		t.entries, t.heap = make([]tkEntry, 0, k), make([]uint32, 0, k)
		t.index = srctab.New[uint32](k, srctab.FIFO)
	} else {
		t.entries, t.heap = t.entries[:0], t.heap[:0]
		t.index.Reset()
	}
	t.evictions.Store(0)
}

func (t *TopK) less(i, j int) bool {
	return t.entries[t.heap[i]].count < t.entries[t.heap[j]].count
}

func (t *TopK) swap(i, j int) {
	h := t.heap
	h[i], h[j] = h[j], h[i]
	t.entries[h[i]].pos, t.entries[h[j]].pos = uint32(i), uint32(j)
}

// up and down are container/heap's, comparison for comparison: which of two
// equal counters an eviction takes is part of every golden. A counter that
// grew only moves down, a new one (count 1) only up.
func (t *TopK) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !t.less(j, i) {
			break
		}
		t.swap(i, j)
		j = i
	}
}

func (t *TopK) down(i int) {
	for n := len(t.heap); ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && t.less(j2, j) {
			j = j2
		}
		if !t.less(j, i) {
			break
		}
		t.swap(i, j)
		i = j
	}
}

// Observe records one occurrence of src.
func (t *TopK) Observe(src netip.Addr) {
	key := srctab.Key(src.As16())
	if at := t.index.Get(key); at != nil {
		e := &t.entries[*at]
		e.count++
		t.down(int(e.pos))
		return
	}
	at := uint32(len(t.entries))
	if len(t.entries) < cap(t.entries) {
		t.entries = append(t.entries, tkEntry{key: key, count: 1, pos: at})
		t.heap = append(t.heap, at)
		t.up(int(at))
	} else {
		// Evict the minimum and inherit its count (space-saving step).
		t.evictions.Add(1)
		at = t.heap[0]
		e := &t.entries[at]
		t.index.Delete(e.key)
		e.key, e.err = key, e.count
		e.count++
		t.down(0)
	}
	slot, _, _ := t.index.Put(key)
	*slot = at
}

// Estimate returns the (over-)estimated count for src and the error bound.
// Missing sources report 0, 0.
func (t *TopK) Estimate(src netip.Addr) (count, errBound uint64) {
	if at := t.index.Get(src.As16()); at != nil {
		return t.entries[*at].count, t.entries[*at].err
	}
	return 0, 0
}

// Contains reports whether src currently holds a counter, i.e. is among the
// tracked heavy hitters.
func (t *TopK) Contains(src netip.Addr) bool { return t.index.Get(src.As16()) != nil }

// Top returns up to n tracked sources ordered by descending estimated count.
func (t *TopK) Top(n int) []netip.Addr {
	all := make([]uint32, len(t.heap))
	copy(all, t.heap)
	// Insertion sort: k is small.
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && t.entries[all[j]].count > t.entries[all[j-1]].count; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	srcs := make([]netip.Addr, min(n, len(all)))
	for i := range srcs {
		srcs[i] = netip.AddrFrom16(t.entries[all[i]].key).Unmap()
	}
	return srcs
}

// Len reports the number of occupied counters.
func (t *TopK) Len() int { return len(t.entries) }

// Evictions reports how many space-saving evictions have occurred — a
// saturation signal: nonzero means the sketch saw more distinct keys than
// it has counters and estimates carry inherited error. Safe to call from a
// metrics scraper concurrent with Observe.
func (t *TopK) Evictions() uint64 { return t.evictions.Load() }
