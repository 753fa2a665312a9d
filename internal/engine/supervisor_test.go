package engine

import (
	"errors"
	"net/netip"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/realnet"
)

// poison marks a packet whose Observer injects a handler panic — the
// supervision test hook the Observer contract documents.
var poison = []byte{0xFF, 0xDE, 0xAD}

func panicOnPoison(shard int, pkt Packet) {
	if len(pkt.Payload) > 0 && pkt.Payload[0] == 0xFF {
		panic("poison packet")
	}
}

// waitSup polls the supervision counters until ok or a deadline.
func waitSup(t *testing.T, e *Engine, ok func(SupervisionStats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !ok(e.Supervision()) {
		if time.Now().After(deadline) {
			t.Fatalf("supervision stats = %+v", e.Supervision())
		}
		time.Sleep(time.Millisecond)
	}
}

// A panic on one shard must restart only that shard: every other shard keeps
// serving, the restart metric increments, and the offending packet lands in
// the quarantine ring with its hex dump and panic value.
func TestSupervisorPanicIsolatesShard(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	var newCalls atomic.Uint64
	io := newFakeIO(64)
	e, err := New(Config{
		Env:    realnet.New(),
		IOs:    []PacketIO{io},
		Shards: 4,
		NewHandler: func(shard int) Handler {
			newCalls.Add(1)
			return rg.newHandler(shard)
		},
		Observer:   panicOnPoison,
		Supervisor: SupervisorConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Close()

	// Pick two sources on different shards.
	victim := srcAP(1)
	other := victim
	for i := 2; e.ShardOf(other.Addr()) == e.ShardOf(victim.Addr()); i++ {
		other = srcAP(i)
	}

	io.ch <- Packet{Src: victim, Dst: srcAP(100), Payload: poison}
	waitSup(t, e, func(s SupervisionStats) bool { return s.ShardRestarts == 1 })

	// Both shards — including the restarted one — keep serving.
	io.ch <- Packet{Src: victim, Payload: []byte{1}}
	io.ch <- Packet{Src: other, Payload: []byte{2}}
	waitCount(t, &rg.count, 2)

	if e.ShardTripped(e.ShardOf(victim.Addr())) {
		t.Fatal("one panic tripped the shard")
	}
	// A restart keeps the shard's handler: one construction per shard.
	if got := newCalls.Load(); got != 4 {
		t.Fatalf("NewHandler called %d times, want 4", got)
	}

	q := e.Quarantined()
	if len(q) != 1 {
		t.Fatalf("quarantine holds %d packets, want 1", len(q))
	}
	qp := q[0]
	if qp.Shard != e.ShardOf(victim.Addr()) || qp.Src != victim {
		t.Fatalf("quarantined %+v, want shard %d src %v", qp, e.ShardOf(victim.Addr()), victim)
	}
	if !strings.Contains(qp.PanicValue, "poison") {
		t.Fatalf("panic value %q missing cause", qp.PanicValue)
	}
	if !strings.Contains(qp.Dump, "ff de ad") {
		t.Fatalf("hex dump %q missing payload bytes", qp.Dump)
	}
	st := e.Supervision()
	if st.PanicsQuarantined != 1 || st.ShardsTripped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// crashHandler panics on a poison packet from inside HandlePacket itself.
type crashHandler struct{}

func (crashHandler) HandlePacket(pkt Packet) { panicOnPoison(0, pkt) }

// Without supervision a handler panic is fatal, as it is for any goroutine:
// the recover boundary every packet crosses raises it again. The engine runs
// in a re-executed copy of the test binary, which must exit non-zero with
// the handler's method in its trace.
func TestUnsupervisedPanicCrashes(t *testing.T) {
	if os.Getenv("ENGINE_CRASH_CHILD") == "1" {
		io := newFakeIO(1)
		e, err := New(Config{
			Env:        realnet.New(),
			IOs:        []PacketIO{io},
			NewHandler: func(int) Handler { return crashHandler{} },
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		io.ch <- Packet{Src: srcAP(1), Payload: poison}
		time.Sleep(10 * time.Second)
		t.Fatal("the engine survived a handler panic")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnsupervisedPanicCrashes$")
	cmd.Env = append(os.Environ(), "ENGINE_CRASH_CHILD=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("child exited with %v, want a non-zero exit; output:\n%s", err, out)
	}
	for _, want := range []string{"panic: poison packet", "engine.crashHandler.HandlePacket"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("crash output lacks %q:\n%s", want, out)
		}
	}
}

// resettableHandler implements Resetter: a supervised restart calls
// ResetShard on the handler the shard already has.
type resettableHandler struct {
	recHandler
	resets *atomic.Uint64
}

func (h *resettableHandler) ResetShard() { h.resets.Add(1) }

func TestSupervisorRestartResetsInPlace(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	var newCalls, resets atomic.Uint64
	io := newFakeIO(16)
	e, err := New(Config{
		Env: realnet.New(),
		IOs: []PacketIO{io},
		NewHandler: func(shard int) Handler {
			newCalls.Add(1)
			h := rg.newHandler(shard).(*recHandler)
			return &resettableHandler{recHandler: *h, resets: &resets}
		},
		Observer:   panicOnPoison,
		Supervisor: SupervisorConfig{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Close()

	io.ch <- Packet{Src: srcAP(1), Payload: poison}
	waitSup(t, e, func(s SupervisionStats) bool { return s.ShardRestarts == 1 })

	if got := resets.Load(); got != 1 {
		t.Fatalf("ResetShard called %d times, want 1", got)
	}
	if newCalls.Load() != 1 {
		t.Fatal("restart constructed a handler")
	}
}

// Exhausting the restart budget inside the window trips the shard into its
// configured degraded mode: TripDrop blackholes, TripPass hands packets to
// OnPass. Either way the shard stops crash-looping.
func TestSupervisorTripPolicies(t *testing.T) {
	for _, tc := range []struct {
		name string
		trip TripPolicy
	}{
		{"drop", TripDrop},
		{"pass", TripPass},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rg := &rig{bySrc: make(map[netip.Addr][]int)}
			var passed atomic.Uint64
			io := newFakeIO(16)
			e, err := New(Config{
				Env:        realnet.New(),
				IOs:        []PacketIO{io},
				NewHandler: rg.newHandler,
				Observer:   panicOnPoison,
				Supervisor: SupervisorConfig{
					Enabled: true,
					Trip:    tc.trip,
					OnPass:  func(shard int, pkt Packet) { passed.Add(1) },
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Close()

			for i := 0; i <= maxRestarts; i++ {
				io.ch <- Packet{Src: srcAP(1), Payload: poison}
			}
			waitSup(t, e, func(s SupervisionStats) bool { return s.ShardsTripped == 1 })
			if !e.ShardTripped(0) {
				t.Fatal("shard not marked tripped")
			}

			io.ch <- Packet{Src: srcAP(1), Payload: []byte{1}}
			switch tc.trip {
			case TripDrop:
				waitSup(t, e, func(s SupervisionStats) bool { return s.TrippedDrops == 1 })
				if passed.Load() != 0 {
					t.Fatal("TripDrop invoked OnPass")
				}
			case TripPass:
				waitSup(t, e, func(s SupervisionStats) bool { return s.TrippedPassthrough == 1 })
				if passed.Load() != 1 {
					t.Fatalf("OnPass saw %d packets, want 1", passed.Load())
				}
			}
			if rg.count.Load() != 0 {
				t.Fatal("tripped shard's handler still saw traffic")
			}
		})
	}
}

// Close must join every engine proc on preemptive environments: repeated
// start/close cycles leave no goroutines behind. Regression test for the
// fire-and-forget Close that leaked the reader and workers.
func TestCloseJoinsProcsNoGoroutineLeak(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	before := runtime.NumGoroutine()
	for iter := 0; iter < 10; iter++ {
		io := newFakeIO(8)
		e, err := New(Config{
			Env:        realnet.New(),
			IOs:        []PacketIO{io},
			Shards:     4,
			NewHandler: rg.newHandler,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		io.ch <- Packet{Src: srcAP(iter), Payload: []byte{1}}
		e.Close()
	}
	// Close returns after wg.Wait, but the goroutines' final teardown can
	// lag the Done by a scheduler beat — retry before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after 10 start/close cycles",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// freezableEnv is an Env whose clock a test can stop.
type freezableEnv struct {
	netapi.Env
	frozen atomic.Bool
	at     time.Duration // Now() once frozen; written before frozen is set
}

func (f *freezableEnv) Now() time.Duration {
	if f.frozen.Load() {
		return f.at
	}
	return f.Env.Now()
}

func (f *freezableEnv) freeze() {
	f.at = f.Env.Now()
	f.frozen.Store(true)
}

// TTL expiry deletes cache entries from inside VerifiedCredOn while other
// procs concurrently promote the same sources (MarkVerifiedOn) and the
// scrape counts them (size). Run under -race this pins down the locking
// contract.
func TestVerifiedCacheExpiryRacesPromotion(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	env := &freezableEnv{Env: realnet.New()}
	e, err := New(Config{
		Env:         env,
		IOs:         []PacketIO{newFakeIO(1)},
		Shards:      2,
		FastPathTTL: 50 * time.Microsecond, // expire constantly mid-race
		NewHandler:  rg.newHandler,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Three times what both shards hold: the shards fill and take over
	// their oldest entries mid-race too.
	addrs := make([]netip.Addr, 3*2*fastPathSources)
	for i := range addrs {
		addrs[i] = srcAP(i).Addr()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < len(addrs); i++ {
				a := addrs[(g+i)%len(addrs)]
				switch i % 3 {
				case 0:
					e.MarkVerifiedOn(e.ShardOf(a), a, "cred")
				case 1:
					e.VerifiedCredOn(e.ShardOf(a), a) // expiry path deletes in place
				default:
					e.shards[e.ShardOf(a)].verified.size()
				}
			}
		}(g)
	}
	wg.Wait()
	// Coherence after the storm: a fresh promotion is immediately visible.
	// The clock is stopped so the 50 µs TTL cannot lapse between the two
	// calls when the scheduler preempts this goroutine.
	env.freeze()
	e.MarkVerifiedOn(e.ShardOf(addrs[0]), addrs[0], "final")
	if cred, ok := e.VerifiedCredOn(e.ShardOf(addrs[0]), addrs[0]); !ok || cred != "final" {
		t.Fatalf("VerifiedCred = (%q, %v) after race storm", cred, ok)
	}
}
