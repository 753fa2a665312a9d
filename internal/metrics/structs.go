package metrics

import (
	"strconv"
	"sync/atomic"
	"unsafe"
)

// This file is the one place stats structs are copied or exported from.
// Every component keeps a plain struct of uint64 counters, and nothing else,
// written with atomic operations, and declares beside it a name table: one
// lower_snake_case name per field, in field order. SnapshotUint64 and
// RegisterUint64Fields read such a struct as its array of words, so copying
// or exporting one takes no reflection; TestStatsNames holds every table to
// its struct's fields.

// words returns *s, a struct of uint64 fields only, as those words.
func words[S any](s *S) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(s)), unsafe.Sizeof(*s)/8)
}

// SnapshotUint64 returns a copy of *s, a struct of uint64 fields only, with
// every field read atomically. Each field is individually exact; the set is
// not a single consistent cut, which is fine for monitoring and quiesced
// test assertions.
func SnapshotUint64[S any](s *S) (out S) {
	dst, src := words(&out), words(s)
	for i := range src {
		dst[i] = atomic.LoadUint64(&src[i])
	}
	return out
}

// RegisterUint64Fields registers each field of S, a struct of uint64 fields
// only, on r as a Func series named prefix + names[i], reading that field of
// each of ss atomically at scrape time and summing them: one struct, or one
// per shard. names is S's name table; it panics unless names has one entry
// per field. The structs must outlive the registry's use.
func RegisterUint64Fields[S any](r *Registry, prefix string, names []string, ss ...*S) {
	var zero S
	if n := unsafe.Sizeof(zero) / 8; uintptr(len(names)) != n {
		panic("metrics: " + strconv.Itoa(len(names)) + " names for " + strconv.Itoa(int(n)) + " fields")
	}
	for i, name := range names {
		ps := make([]*uint64, len(ss))
		for j, s := range ss {
			ps[j] = &words(s)[i]
		}
		r.FuncUint(prefix+name, func() (sum uint64) {
			for _, p := range ps {
				sum += atomic.LoadUint64(p)
			}
			return sum
		})
	}
}
