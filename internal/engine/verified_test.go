package engine

import (
	"net/netip"
	"runtime"
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

// size reports the shard's entry count, expired entries not yet probed
// included.
func (v *verifiedShard) size() int {
	if v.tab == nil {
		return 0
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.tab.Len()
}

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
	if got := e.shards[0].verified.size(); got != fastPathSources {
		t.Errorf("cache holds %d sources, want %d", got, fastPathSources)
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
	const cred = "ns:pr00000000"
	round := func() {
		env.now += time.Minute + time.Second
		for i := 0; i < sources; i++ {
			src := srcAP(i).Addr()
			if e.VerifiedCredMatchOn(0, src, []byte(cred)) {
				t.Fatalf("source %d live past its TTL", i)
			}
			e.MarkVerifiedOn(0, src, cred)
		}
	}
	round()
	// AllocsPerRun counts every goroutine's mallocs. The start of each
	// collection wakes the runtime's goroutine that sweeps unique's maps
	// (net/netip's zones), and under -race it allocates 16–96 bytes as it
	// runs, though no round allocates. The setup's allocations started a
	// collection in the window now and then: force one before it instead,
	// and let the goroutine it woke finish.
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
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
	wire, other := []byte(longest), []byte("ns:other")
	if n := testing.AllocsPerRun(2560, func() {
		src := cold()
		e.MarkVerifiedOn(0, src, longest)
		if !e.VerifiedCredMatchOn(0, src, wire) || e.VerifiedCredMatchOn(0, src, other) {
			t.Fatal("the credential just cached does not match itself")
		}
	}); n != 0 {
		t.Errorf("at-capacity mark and probes of an unseen source allocate %.1f/op, want 0", n)
	}
	if got := e.shards[0].verified.size(); got != sources {
		t.Errorf("cache holds %d sources, want %d", got, sources)
	}
	// A credential no scheme can form is refused, not truncated into one
	// that a shorter presented credential could match.
	src := cold()
	e.MarkVerifiedOn(0, src, longest+"x")
	if _, ok := e.VerifiedCredOn(0, src); ok {
		t.Error("a credential longer than MaxCred was cached")
	}
}
