package metrics

import (
	"sync/atomic"
	"testing"
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

type testStats struct {
	Received  uint64
	RL1Drop   uint64
	NotACount int // non-uint64 exported field: copied, not registered
	hidden    uint64
}

func TestSnapshotUint64(t *testing.T) {
	s := &testStats{NotACount: 7, hidden: 3}
	atomic.StoreUint64(&s.Received, 42)
	atomic.StoreUint64(&s.RL1Drop, 9)
	got := SnapshotUint64(s)
	if got.Received != 42 || got.RL1Drop != 9 || got.NotACount != 7 {
		t.Fatalf("snapshot = %+v", got)
	}
	if got.hidden != 0 {
		t.Fatalf("unexported field copied: %+v", got)
	}
}

func TestRegisterUint64Fields(t *testing.T) {
	s := &testStats{}
	r := NewRegistry()
	RegisterUint64Fields(r, "x_", s)
	atomic.StoreUint64(&s.Received, 5)
	if v, ok := r.Get("x_received"); !ok || v != 5 {
		t.Fatalf("x_received = %v, %v", v, ok)
	}
	if v, ok := r.Get("x_rl1_drop"); !ok || v != 0 {
		t.Fatalf("x_rl1_drop = %v, %v", v, ok)
	}
	if _, ok := r.Get("x_not_a_count"); ok {
		t.Fatal("non-uint64 field registered")
	}
}

func TestRegisterHistogram(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram()
	r.RegisterHistogram("lat", h)
	h.Observe(1000)
	if v, ok := r.Get("lat_count"); !ok || v != 1 {
		t.Fatalf("lat_count = %v, %v", v, ok)
	}
}
