package engine

import (
	"net/netip"
	"strings"
	"testing"
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/realnet"
)

// manualEnv is an Env whose clock only the test moves.
type manualEnv struct {
	netapi.Env
	now time.Duration
}

func (m *manualEnv) Now() time.Duration { return m.now }

func newCacheEngine(t *testing.T) (*Engine, *manualEnv) {
	t.Helper()
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	env := &manualEnv{Env: realnet.New()}
	e, err := New(Config{
		Env:         env,
		IOs:         []PacketIO{newFakeIO(1)},
		FastPathTTL: time.Minute,
		NewHandler:  rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, env
}

// TestVerifiedReinsertKeepsPlace: a source that expires and verifies again is
// a new insert at the back of the eviction order. With the insertion-order
// slice it kept the slot of its first insert, so the next overflow evicted it
// live through that stale slot while the dead entries ahead of it stayed.
func TestVerifiedReinsertKeepsPlace(t *testing.T) {
	e, env := newCacheEngine(t)
	a, b, d := srcAP(1).Addr(), srcAP(2).Addr(), srcAP(3).Addr()
	e.MarkVerifiedOn(0, a, "cred")
	e.MarkVerifiedOn(0, b, "cred")
	for i := 0; i < fastPathSources-2; i++ {
		e.MarkVerifiedOn(0, srcAP(100+i).Addr(), "cred")
	}
	env.now = time.Minute + time.Second
	if e.VerifiedCredMatchOn(0, a, []byte("cred")) {
		t.Fatal("a is live a second after its TTL")
	}
	e.MarkVerifiedOn(0, a, "cred") // expire → re-insert
	e.MarkVerifiedOn(0, d, "cred") // → overflow by one: takes b, dead and oldest
	if !e.VerifiedCredMatchOn(0, a, []byte("cred")) {
		t.Error("the re-verified source was evicted by the next insert")
	}
	if !e.VerifiedCredMatchOn(0, d, []byte("cred")) {
		t.Error("the newest source is not cached")
	}
	if e.shards[0].verified.tab.Get(b.As16()) != nil {
		t.Error("the oldest entry survived a full cache")
	}
	if fp := e.FastPath(); fp.Evictions != 0 || fp.Inserts != fastPathSources+2 {
		t.Errorf("evictions %d inserts %d, want 0 (the entry taken had expired) and %d", fp.Evictions, fp.Inserts, fastPathSources+2)
	}
}

// TestVerifiedSteadyPopulationAllocs: a population that fits the cache and
// re-verifies once per TTL — the steady state of a guard in front of a fixed
// set of resolvers — allocates nothing, round after round. The insertion-
// order slice grew by one slot per re-verification and nothing ever popped
// it, because the map never exceeded its capacity.
func TestVerifiedSteadyPopulationAllocs(t *testing.T) {
	const sources = 256
	e, env := newCacheEngine(t)
	cred := []byte("ns:pr00000000")
	round := func() {
		env.now += time.Minute + time.Second
		for i := 0; i < sources; i++ {
			src := srcAP(i).Addr()
			if e.VerifiedCredMatchOn(0, src, cred) {
				t.Fatalf("source %d live past its TTL", i)
			}
			e.MarkVerifiedCredOn(0, src, cred)
		}
	}
	round()
	// One run of ten rounds: AllocsPerRun reports mallocs/runs truncated,
	// which would hide an append that reallocates every few hundred marks.
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10; i++ {
			round()
		}
	}); n != 0 {
		t.Errorf("10 TTL rounds over %d sources allocated %.0f times, want 0", sources, n)
	}
	if got := e.shards[0].verified.size(); got != sources {
		t.Errorf("cache holds %d sources, want %d", got, sources)
	}
	if fp := e.FastPath(); fp.Evictions != 0 {
		t.Errorf("evictions = %d, want 0", fp.Evictions)
	}
}

// TestVerifiedColdMarkAllocs: at capacity, caching a never-seen source takes
// over the oldest entry and allocates nothing — credential included, which
// is stored inline — and neither does any probe.
func TestVerifiedColdMarkAllocs(t *testing.T) {
	const sources = fastPathSources
	e, _ := newCacheEngine(t)
	next := 0
	cold := func() netip.Addr { next++; return srcAP(next).Addr() }
	longest := "ck:" + strings.Repeat("x", MaxCred-3)
	for i := 0; i < sources; i++ {
		e.MarkVerifiedOn(0, cold(), longest)
	}
	wire, other, scratch := []byte(longest), []byte("ns:other"), []byte(longest)
	if n := testing.AllocsPerRun(2560, func() {
		src := cold()
		if next%2 == 0 {
			e.MarkVerifiedOn(0, src, longest)
		} else {
			// The handlers' call: the credential in scratch they reuse at
			// once. The cache keeps a copy.
			copy(scratch, longest)
			e.MarkVerifiedCredOn(0, src, scratch)
			clear(scratch)
		}
		if !e.VerifiedCredMatchOn(0, src, wire) || e.VerifiedCredMatchOn(0, src, other) {
			t.Fatal("the credential just cached does not match itself")
		}
	}); n != 0 {
		t.Errorf("at-capacity mark and probes of an unseen source allocate %.1f/op, want 0", n)
	}
	if fp := e.FastPath(); fp.Evictions != uint64(next-sources) || e.shards[0].verified.size() != sources {
		t.Errorf("evictions %d size %d, want %d and %d", fp.Evictions, e.shards[0].verified.size(), next-sources, sources)
	}
	// A credential no scheme can form is refused, not truncated into one
	// that a shorter presented credential could match.
	src := cold()
	e.MarkVerifiedOn(0, src, longest+"x")
	if _, ok := e.VerifiedCredOn(0, src); ok {
		t.Error("a credential longer than MaxCred was cached")
	}
}
