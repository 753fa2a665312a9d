package metrics_test

import (
	"reflect"
	"strings"
	"testing"
	"unicode"

	"dnsguard/internal/engine"
	"dnsguard/internal/guard"
	"dnsguard/internal/netsim"
)

// Every existing stats field name must keep producing the exact series
// suffix the hand-written MetricsInto maps used, or scrape consumers
// (TestMetricsSmoke, benchtab annotations) silently lose series.
func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		// guard.RemoteStats
		"Received":        "received",
		"PassedThrough":   "passed_through",
		"NewcomerGrants":  "newcomer_grants",
		"TCRedirects":     "tc_redirects",
		"CookieValid":     "cookie_valid",
		"CookieInvalid":   "cookie_invalid",
		"RL1Dropped":      "rl1_dropped",
		"RL2Dropped":      "rl2_dropped",
		"ForwardedToANS":  "forwarded_to_ans",
		"AnswersRelayed":  "answers_relayed",
		"PendingOverflow": "pending_overflow",
		"PendingDropped":  "pending_dropped",
		"UpstreamStrays":  "upstream_strays",
		"UpstreamSpoofed": "upstream_spoofed",
		"CacheHits":       "cache_hits",
		"KeyRotations":    "key_rotations",
		// netsim stats
		"Delivered":      "delivered",
		"NoRoute":        "no_route",
		"RecvDropped":    "recv_dropped",
		"PartitionDrops": "partition_drops",
		"Reordered":      "reordered",
		// engine
		"ShedNew":      "shed_new",
		"FastPathHits": "fast_path_hits",
	}
	for in, want := range cases {
		if got := SnakeCase(in); got != want {
			t.Errorf("SnakeCase(%q) = %q, want %q", in, got, want)
		}
	}
}

// SnakeCase converts a Go exported identifier to the registry's
// lower_snake_case convention, keeping acronym/digit runs together:
// "NewcomerGrants" → "newcomer_grants", "RL1Dropped" → "rl1_dropped",
// "ForwardedToANS" → "forwarded_to_ans", "TCRedirects" → "tc_redirects".
// It is the rule every name table follows; TestStatsNames applies it.
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

// TestStatsNames holds every stats struct to the name table its package
// declares beside it. SnapshotUint64 and RegisterUint64Fields read a struct
// as an array of words, so a field that is not a uint64 would corrupt a
// copy, and a field added without its name, or a name out of order, would
// export one counter under another's series. ShardStats and IngestStats
// have no table: the engine registers their series by hand, ShedNew read off
// the interface at scrape time.
func TestStatsNames(t *testing.T) {
	for _, c := range []struct {
		typ   reflect.Type
		names []string
	}{
		{reflect.TypeFor[guard.RemoteStats](), guard.RemoteStatsNames},
		{reflect.TypeFor[guard.Work](), guard.WorkNames},
		{reflect.TypeFor[guard.LifecycleStats](), guard.LifecycleStatsNames},
		{reflect.TypeFor[guard.MitigationStats](), guard.MitigationStatsNames},
		{reflect.TypeFor[engine.ShardStats](), nil},
		{reflect.TypeFor[engine.SupervisionStats](), engine.SupervisionStatsNames},
		{reflect.TypeFor[engine.IngestStats](), nil},
		{reflect.TypeFor[netsim.NetStats](), netsim.NetStatsNames},
	} {
		if c.names != nil && len(c.names) != c.typ.NumField() {
			t.Errorf("%v: %d names for %d fields", c.typ, len(c.names), c.typ.NumField())
		}
		for i := 0; i < c.typ.NumField(); i++ {
			f := c.typ.Field(i)
			if f.Type.Kind() != reflect.Uint64 || !f.IsExported() {
				t.Errorf("%v.%s is %v: a stats struct holds exported uint64 fields only", c.typ, f.Name, f.Type)
			}
			if i < len(c.names) && c.names[i] != SnakeCase(f.Name) {
				t.Errorf("%v.%s is named %q, want %q", c.typ, f.Name, c.names[i], SnakeCase(f.Name))
			}
		}
	}
}
