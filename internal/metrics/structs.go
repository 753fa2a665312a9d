package metrics

import (
	"reflect"
	"strings"
	"sync/atomic"
	"unicode"
)

// This file is the one place stats structs are copied or exported from.
// Every component keeps a plain struct of exported uint64 counters written
// with atomic operations; SnapshotUint64 and RegisterUint64Fields derive the
// snapshot copy and the registry series from the struct shape itself, so new
// counters (the engine adds several per shard) cannot drift out of the
// hand-maintained copies that used to exist per struct.

// SnapshotUint64 returns a copy of *s with every exported uint64 field read
// atomically. Non-uint64 exported fields are copied plainly. Each field is
// individually exact; the set is not a single consistent cut, which is fine
// for monitoring and quiesced test assertions.
func SnapshotUint64[S any](s *S) S {
	var out S
	src := reflect.ValueOf(s).Elem()
	dst := reflect.ValueOf(&out).Elem()
	for i := 0; i < src.NumField(); i++ {
		f := src.Field(i)
		if !f.CanInterface() {
			continue // unexported: not part of the snapshot contract
		}
		if f.Kind() == reflect.Uint64 {
			dst.Field(i).SetUint(atomic.LoadUint64(f.Addr().Interface().(*uint64)))
			continue
		}
		dst.Field(i).Set(f)
	}
	return out
}

// RegisterUint64Fields registers every exported uint64 field of S on r as a
// Func series named prefix + SnakeCase(FieldName), reading that field of
// each of ss atomically at scrape time and summing them: one struct, or one
// per shard. The structs must outlive the registry's use.
func RegisterUint64Fields[S any](r *Registry, prefix string, ss ...*S) {
	t := reflect.TypeFor[S]()
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Type.Kind() == reflect.Uint64 && f.IsExported() {
			ps := make([]*uint64, len(ss))
			for j, s := range ss {
				ps[j] = reflect.ValueOf(s).Elem().Field(i).Addr().Interface().(*uint64)
			}
			r.FuncUint(prefix+SnakeCase(f.Name), func() (sum uint64) {
				for _, p := range ps {
					sum += atomic.LoadUint64(p)
				}
				return sum
			})
		}
	}
}

// SnakeCase converts a Go exported identifier to the registry's
// lower_snake_case convention, keeping acronym/digit runs together:
// "NewcomerGrants" → "newcomer_grants", "RL1Dropped" → "rl1_dropped",
// "ForwardedToANS" → "forwarded_to_ans", "TCRedirects" → "tc_redirects".
func SnakeCase(name string) string {
	var b strings.Builder
	rs := []rune(name)
	for i, r := range rs {
		if unicode.IsUpper(r) && i > 0 {
			prev := rs[i-1]
			next := rune(0)
			if i+1 < len(rs) {
				next = rs[i+1]
			}
			// A word starts at an uppercase rune following a lowercase rune
			// or digit, or at the last uppercase rune of an acronym run
			// ("TCRedirects": the R before "edirects").
			if unicode.IsLower(prev) || unicode.IsDigit(prev) ||
				(unicode.IsUpper(prev) && unicode.IsLower(next)) {
				b.WriteByte('_')
			}
		}
		b.WriteRune(unicode.ToLower(r))
	}
	return b.String()
}
