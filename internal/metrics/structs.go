package metrics

import (
	"strconv"
	"sync/atomic"
	"unsafe"
)

// This file is the one place stats structs are copied, summed or exported
// from. Every component keeps a plain struct of uint64 counters, and nothing
// else, written with atomic operations, and declares beside an exported one a
// name table: one lower_snake_case name per field, in field order.
// SnapshotUint64, AddUint64 and RegisterUint64Fields read such a struct as its
// array of words, so copying, summing or exporting one takes no reflection;
// TestStatsNames holds every table to its struct's fields.

// words returns *s, a struct of uint64 fields only, as those words.
func words[S any](s *S) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(s)), unsafe.Sizeof(*s)/8)
}

// SnapshotUint64 returns a copy of *s, a struct of uint64 fields only, with
// every field read atomically. Each field is individually exact; the set is
// not a single consistent cut, which is fine for monitoring and quiesced
// test assertions.
func SnapshotUint64[S any](s *S) (out S) {
	AddUint64(&out, s)
	return out
}

// AddUint64 adds each field of *s, read atomically, to the same field of
// *sum: structs of uint64 fields only, one per shard summed into a total.
func AddUint64[S any](sum, s *S) {
	dst, src := words(sum), words(s)
	for i := range src {
		dst[i] += atomic.LoadUint64(&src[i])
	}
}

// RegisterUint64Fields registers each field of S, a struct of uint64 fields
// only, on r as a Func series named prefix + names[i], reading that field of
// what read returns at scrape time: a snapshot of one struct, or a sum or
// view of several. names is S's name table; it panics unless names has one
// entry per field.
func RegisterUint64Fields[S any](r *Registry, prefix string, names []string, read func() S) {
	var zero S
	if n := unsafe.Sizeof(zero) / 8; uintptr(len(names)) != n {
		panic("metrics: " + strconv.Itoa(len(names)) + " names for " + strconv.Itoa(int(n)) + " fields")
	}
	for i, name := range names {
		r.FuncUint(prefix+name, func() uint64 {
			s := read()
			return words(&s)[i]
		})
	}
}
