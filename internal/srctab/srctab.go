// Package srctab is the guard's one per-source table: a fixed-capacity,
// open-addressed hash table from a source address to a small pointer-free
// value, with an intrusive list that gives exact LRU or exact FIFO eviction.
// Rate-Limiter1's buckets and Rate-Limiter2's verified-source records sit on
// it (DESIGN.md, "Per-source state").
//
// A table is two allocations made by New — one []entry, one index array —
// and with a pointer-free V neither holds a pointer, so the collector never
// scans per-source state however many sources an attacker sprays. A table
// is not synchronized, and Get writes too: it remembers its probe.
package srctab

import (
	"fmt"
	"hash/maphash"
)

// Key is a source's identity: netip.Addr.As16, the same bytes a cookie is
// bound to (an IPv4 source and its 4-in-6 twin are one source; zones are
// not part of it).
type Key [16]byte

// Order says what a hit through Put does to a source's place in the
// eviction order: nothing (FIFO, oldest insert goes first) or make it the
// newest (LRU).
type Order bool

const (
	FIFO Order = false
	LRU  Order = true
)

// An index slot is a 17-bit tag, the low bits of the key's hash, then a
// 15-bit entry number, so a table holds at most MaxCap sources. The largest
// index has 2^16 slots: a tag holds every home and one bit more to filter a
// probe.
const (
	refBits = 15
	MaxCap  = 1<<refBits - 1
	tagMask = 1<<(32-refBits) - 1
)

type entry[V any] struct {
	key          Key
	newer, older uint32 // list neighbours as entry numbers; 0 is the sentinel
	val          V
}

// Table maps up to Cap sources to a V each.
type Table[V any] struct {
	// seed is per table and random: the attacker chooses the keys, so must
	// not be able to choose their slots. Layout never shows — eviction order
	// comes from the list — so no virtual-clock golden depends on it.
	seed  maphash.Seed
	order Order
	// entries[0] is the list sentinel (.older is the newest source, .newer
	// the oldest); sources live in entries[1:].
	entries []entry[V]
	// index is linear-probed and at most half full. A slot is tag<<refBits |
	// entry number, 0 when empty, and its home is tag & mask: a probe
	// compares tags before it touches an entry, and a deletion closes its gap
	// by shifting later slots back (no tombstones) using the stored tags alone.
	index []uint32
	mask  uint32
	used  uint32 // entries[1:used+1] have held a source since the last Reset
	free  uint32 // deleted entries, chained through older
	n     int
	// last is where Get left its key: its slot and entry number, or the
	// empty slot that ends its probe run and 0.
	last struct {
		key            Key
		tag, slot, ref uint32
	}
}

// New returns an empty table for capacity sources (at least 1). It panics
// if capacity is over MaxCap: a caller that would be clamped must say so.
func New[V any](capacity int, order Order) *Table[V] {
	if capacity > MaxCap {
		panic(fmt.Sprintf("srctab: capacity %d over MaxCap %d", capacity, MaxCap))
	}
	capacity = max(capacity, 1)
	slots := 2
	for slots < 2*capacity {
		slots *= 2
	}
	return &Table[V]{
		seed:    maphash.MakeSeed(),
		order:   order,
		entries: make([]entry[V], capacity+1),
		index:   make([]uint32, slots),
		mask:    uint32(slots - 1),
	}
}

// Len reports how many sources the table holds; Cap, how many it can.
func (t *Table[V]) Len() int { return t.n }
func (t *Table[V]) Cap() int { return len(t.entries) - 1 }

// Reset empties the table in place.
func (t *Table[V]) Reset() {
	clear(t.index)
	t.entries[0] = entry[V]{}
	t.used, t.free, t.n = 0, 0, 0
}

// find probes for k: its tag, and either its slot and entry number or the
// empty slot that ends its probe run and 0.
func (t *Table[V]) find(k Key) (tag, slot, ref uint32) {
	tag = uint32(maphash.Bytes(t.seed, k[:])>>32) & tagMask
	for slot = tag & t.mask; ; slot = (slot + 1) & t.mask {
		s := t.index[slot]
		if s == 0 {
			return tag, slot, 0
		}
		if s>>refBits == tag && t.entries[s&MaxCap].key == k {
			return tag, slot, s & MaxCap
		}
	}
}

// vacate empties slot and moves back every later slot of the run that the
// gap would otherwise cut off from its home (Knuth 6.4, algorithm R).
func (t *Table[V]) vacate(slot uint32) {
	for j := slot; ; {
		j = (j + 1) & t.mask
		s := t.index[j]
		if s == 0 {
			break
		}
		if home := s >> refBits & t.mask; (j-home)&t.mask >= (j-slot)&t.mask {
			t.index[slot] = s
			slot = j
		}
	}
	t.index[slot] = 0
}

func (t *Table[V]) unlink(e *entry[V]) {
	t.entries[e.newer].older = e.older
	t.entries[e.older].newer = e.newer
}

func (t *Table[V]) linkNewest(ref uint32) {
	s, e := &t.entries[0], &t.entries[ref]
	e.newer, e.older = 0, s.older
	t.entries[s.older].newer = ref
	s.older = ref
}

// Get returns k's value, or nil. It never reorders, and it remembers where
// it probed for a Keep that may follow.
func (t *Table[V]) Get(k Key) *V {
	t.last.key = k
	t.last.tag, t.last.slot, t.last.ref = t.find(k)
	if t.last.ref == 0 {
		return nil
	}
	return &t.entries[t.last.ref].val
}

// Put returns k's value, inserting k as the newest source if it was not
// found. A full table evicts the oldest source for it, so a flood of
// never-seen sources allocates nothing; the evicted value is left in place
// for the caller to read before overwriting. Otherwise a new value is zero.
func (t *Table[V]) Put(k Key) (v *V, found, evicted bool) {
	t.Get(k)
	return t.Keep()
}

// Keep is Put for the key the last Get looked up, without probing again, so
// a caller can decide between the two on what Get found. Nothing may change
// the table in between.
func (t *Table[V]) Keep() (v *V, found, evicted bool) {
	k, tag, slot, ref := t.last.key, t.last.tag, t.last.slot, t.last.ref
	if ref != 0 {
		e := &t.entries[ref]
		if t.order == LRU && e.newer != 0 {
			t.unlink(e)
			t.linkNewest(ref)
		}
		return &e.val, true, false
	}
	switch {
	case t.n == t.Cap():
		evicted, ref = true, t.entries[0].newer
		_, old, _ := t.find(t.entries[ref].key)
		t.vacate(old)
		t.unlink(&t.entries[ref])
		for slot = tag & t.mask; t.index[slot] != 0; slot = (slot + 1) & t.mask {
		}
	case t.free != 0:
		ref = t.free
		t.free = t.entries[ref].older
	default:
		t.used++
		ref = t.used
	}
	e := &t.entries[ref]
	if !evicted {
		t.n++
		clear(t.entries[ref : ref+1]) // val may be left over from before a Delete or Reset
	}
	e.key = k
	t.index[slot] = tag<<refBits | ref
	t.linkNewest(ref)
	return &e.val, false, evicted
}

// Delete removes k and reports whether it was present.
func (t *Table[V]) Delete(k Key) bool {
	_, slot, ref := t.find(k)
	if ref == 0 {
		return false
	}
	t.vacate(slot)
	e := &t.entries[ref]
	t.unlink(e)
	e.older, t.free = t.free, ref
	t.n--
	return true
}
