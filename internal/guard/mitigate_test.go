package guard

import (
	"strings"
	"testing"
	"time"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/metrics"
	"dnsguard/internal/ratelimit"
)

// mitCfg is the test tuning: small counts, short holds, explicit numbers so
// each transition is exercised by a handful of step calls.
func mitCfg() MitigationConfig {
	cfg := MitigationConfig{
		Enabled:         true,
		Interval:        100 * time.Millisecond,
		FloodRate:       1000,
		PoisonRate:      50,
		DiverseNames:    64,
		DeescalateAfter: 3,
		MinHold:         400 * time.Millisecond,
		FlapWindow:      2 * time.Second,
	}
	return cfg
}

// stepSeq drives m with one sample per Interval starting at start.
func stepSeq(m *mitigator, start time.Duration, samples []mitSample) time.Duration {
	now := start
	for _, s := range samples {
		now += m.cfg.Interval
		m.step(now, s)
	}
	return now
}

// repeat returns n copies of s.
func repeat(s mitSample, n int) []mitSample {
	out := make([]mitSample, n)
	for i := range out {
		out[i] = s
	}
	return out
}

var (
	sampleQuiet   = mitSample{}
	sampleFlood   = mitSample{in: 5000, grants: 5000, names: 2}
	sampleTorture = mitSample{in: 5000, grants: 5000, names: 400}
	samplePoison  = mitSample{in: 100, poison: 300}
	sampleBlind   = mitSample{in: 5000}              // raw volume only: passthrough vantage
	sampleGray    = mitSample{grants: 500, names: 2} // between calm (250) and hot (1000)
)

func TestMitigatorClassify(t *testing.T) {
	cases := []struct {
		name  string
		layer MitigationLayer
		s     mitSample
		want  AttackClass
	}{
		{"quiet", LayerPassthrough, sampleQuiet, ClassNone},
		{"flood-low-diversity", LayerCookies, sampleFlood, ClassSpoofFlood},
		{"flood-high-diversity", LayerCookies, sampleTorture, ClassWaterTorture},
		{"poison-beats-flood", LayerCookies, mitSample{grants: 5000, poison: 300, names: 400}, ClassPoisoning},
		{"blind-raw-volume", LayerPassthrough, sampleBlind, ClassSpoofFlood},
		{"sighted-raw-volume-ignored", LayerCookies, sampleBlind, ClassNone},
		{"gray-not-hot", LayerCookies, sampleGray, ClassNone},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMitigator(mitCfg())
			m.layer.Store(int32(tc.layer))
			if got := m.classify(tc.s, 1); got != tc.want {
				t.Fatalf("classify(%+v) at %v = %v, want %v", tc.s, tc.layer, got, tc.want)
			}
		})
	}
}

func TestTerminalLayerPerClass(t *testing.T) {
	cases := []struct {
		class AttackClass
		want  MitigationLayer
	}{
		{ClassNone, LayerPassthrough},
		{ClassSpoofFlood, LayerSourceLimit},
		{ClassWaterTorture, LayerTCPFallback},
		{ClassPoisoning, LayerCookies},
	}
	for _, tc := range cases {
		if got := TerminalLayer(tc.class); got != tc.want {
			t.Errorf("TerminalLayer(%v) = %v, want %v", tc.class, got, tc.want)
		}
	}
}

// TestMitigatorTransitions drives the ladder through every transition shape
// with scripted sample sequences.
func TestMitigatorTransitions(t *testing.T) {
	cases := []struct {
		name      string
		seq       []mitSample
		wantLayer MitigationLayer
		wantClass AttackClass
		wantEsc   uint64
		wantDeesc uint64
	}{
		{
			// One hot sample is not enough (EscalateAfter 2).
			name:      "single-hot-sample-holds",
			seq:       []mitSample{sampleTorture},
			wantLayer: LayerPassthrough,
			wantClass: ClassWaterTorture,
		},
		{
			// Two consecutive hot samples climb exactly one rung.
			name:      "escalate-one-rung",
			seq:       repeat(sampleTorture, 2),
			wantLayer: LayerThreshold,
			wantClass: ClassWaterTorture,
			wantEsc:   1,
		},
		{
			// A calm gap between hot samples resets the escalate counter.
			name:      "hot-counter-resets-on-calm",
			seq:       []mitSample{sampleTorture, sampleQuiet, sampleTorture},
			wantLayer: LayerPassthrough,
			wantClass: ClassWaterTorture,
		},
		{
			// Sustained water torture stops at its terminal rung
			// (TCPFallback) no matter how long it lasts.
			name:      "water-torture-terminal",
			seq:       repeat(sampleTorture, 20),
			wantLayer: LayerTCPFallback,
			wantClass: ClassWaterTorture,
			wantEsc:   3,
		},
		{
			// Sustained spoofed flood climbs all the way to SourceLimit.
			name:      "spoof-flood-terminal",
			seq:       repeat(sampleFlood, 20),
			wantLayer: LayerSourceLimit,
			wantClass: ClassSpoofFlood,
			wantEsc:   4,
		},
		{
			// Poisoning stops at cookies: TCP fallback would not help.
			name:      "poisoning-terminal",
			seq:       repeat(samplePoison, 20),
			wantLayer: LayerCookies,
			wantClass: ClassPoisoning,
			wantEsc:   2,
		},
		{
			// Calm long enough descends one rung at a time back to
			// passthrough and clears the class.
			name:      "full-deescalation",
			seq:       append(repeat(sampleTorture, 8), repeat(sampleQuiet, 30)...),
			wantLayer: LayerPassthrough,
			wantClass: ClassNone,
			wantEsc:   3,
			wantDeesc: 3,
		},
		{
			// Gray-zone samples (below hot, above CalmFactor×hot) hold the
			// rung: no escalation, no descent, however long they persist.
			name:      "hysteresis-gray-zone-holds",
			seq:       append(repeat(sampleTorture, 8), repeat(sampleGray, 30)...),
			wantLayer: LayerTCPFallback,
			wantClass: ClassWaterTorture,
			wantEsc:   3,
		},
		{
			// A hot sample of a class with a lower terminal counts toward
			// descent: the guard is over-mitigated for what it now sees.
			name:      "class-switch-descends",
			seq:       append(repeat(sampleFlood, 10), repeat(samplePoison, 8)...),
			wantLayer: LayerCookies,
			wantClass: ClassPoisoning,
			wantEsc:   4,
			wantDeesc: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMitigator(mitCfg())
			stepSeq(m, 0, tc.seq)
			st := m.snapshot()
			if st.Layer != tc.wantLayer {
				t.Errorf("layer = %v, want %v", st.Layer, tc.wantLayer)
			}
			if st.Class != tc.wantClass {
				t.Errorf("class = %v, want %v", st.Class, tc.wantClass)
			}
			if tc.wantEsc != 0 && st.Stats.Escalations != tc.wantEsc {
				t.Errorf("escalations = %d, want %d", st.Stats.Escalations, tc.wantEsc)
			}
			if st.Stats.Deescalations != tc.wantDeesc {
				t.Errorf("deescalations = %d, want %d", st.Stats.Deescalations, tc.wantDeesc)
			}
		})
	}
}

// TestMitigatorMinHold: enough calm samples alone do not descend — the rung
// must also have been held MinHold.
func TestMitigatorMinHold(t *testing.T) {
	cfg := mitCfg()
	cfg.MinHold = 10 * time.Second // enormous relative to the sequence
	m := newMitigator(cfg)
	now := stepSeq(m, 0, repeat(samplePoison, 4)) // reach LayerCookies
	if got := MitigationLayer(m.layer.Load()); got != LayerCookies {
		t.Fatalf("setup layer = %v", got)
	}
	stepSeq(m, now, repeat(sampleQuiet, 50))
	if got := MitigationLayer(m.layer.Load()); got != LayerCookies {
		t.Fatalf("descended during MinHold: layer = %v", got)
	}
	if m.stats.Deescalations != 0 {
		t.Fatalf("deescalations = %d, want 0", m.stats.Deescalations)
	}
}

// TestMitigatorFlapSuppression: a re-escalation shortly after a descent
// extends the next hold FlapHoldFactor×, so a pulsing attacker cannot make
// the guard oscillate at its tempo.
func TestMitigatorFlapSuppression(t *testing.T) {
	cfg := mitCfg()
	m := newMitigator(cfg)
	// Pulse 1: up to cookies, then calm back down one rung.
	now := stepSeq(m, 0, repeat(samplePoison, 4))
	now = stepSeq(m, now, repeat(sampleQuiet, 8))
	if m.stats.Deescalations == 0 {
		t.Fatal("setup: expected a descent before the second pulse")
	}
	// Pulse 2 arrives inside FlapWindow: escalation still happens...
	now = stepSeq(m, now, repeat(samplePoison, 2))
	if m.stats.FlapHolds != 1 {
		t.Fatalf("flap holds = %d, want 1", m.stats.FlapHolds)
	}
	deescBefore := m.stats.Deescalations
	// ...but the extended hold (4×MinHold = 1.6s = 16 samples) now blocks
	// descent where plain MinHold+DeescalateAfter (max 7 samples) would
	// have allowed it.
	stepSeq(m, now, repeat(sampleQuiet, 7))
	if m.stats.Deescalations != deescBefore {
		t.Fatalf("descended inside the flap hold (deesc %d -> %d)", deescBefore, m.stats.Deescalations)
	}
	// Once the extended hold expires, calm descends again.
	stepSeq(m, now+7*cfg.Interval, repeat(sampleQuiet, 30))
	if m.stats.Deescalations == deescBefore {
		t.Fatal("never descended after the flap hold expired")
	}
}

// TestNameSketch: distinct names raise the estimate, repeats do not, and
// drain resets it.
func TestNameSketch(t *testing.T) {
	var sk nameSketch
	wire := func(name string) []byte {
		q := questionsWire([]dnswire.Question{{Name: dnswire.MustName(name)}})
		return q[:len(q)-4]
	}
	one := wire("www.foo.com")
	for i := 0; i < 1000; i++ {
		sk.observe(one)
	}
	if est := sk.drain(); est < 0.5 || est > 2 {
		t.Fatalf("single repeated name estimated at %.1f, want ~1", est)
	}
	for i := 0; i < 400; i++ {
		sk.observe(wire(labelName(i)))
	}
	if est := sk.drain(); est < 300 || est > 520 {
		t.Fatalf("400 distinct names estimated at %.1f, want ~400", est)
	}
	if est := sk.drain(); est != 0 {
		t.Fatalf("estimate after drain = %.1f, want 0", est)
	}
}

func labelName(i int) string {
	return "a" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26)) + ".foo.com"
}

// TestResetShardKeepsStrictLimits: a shard restarted while the ladder sits at
// source-limit comes back with the tightened limiters. ResetShard puts the
// normal configuration into both; if it left the shard believing the strict
// one was applied, syncLimiters saw no transition and the shard ran normal
// limits until the ladder next moved.
func TestResetShardKeepsStrictLimits(t *testing.T) {
	h := newShardHarness(t, func(cfg *RemoteConfig) {
		cfg.Mitigation.Enabled = true
		cfg.RL2 = ratelimit.Limiter2Config{PerSourceRate: strictFactor, PerSourceBurst: strictFactor, TrackedSources: 16}
	})
	h.g.mit.layer.Store(int32(LayerSourceLimit))
	src := mustAP("10.0.0.53:4444")
	pkt := Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: h.nsQueryWire(t, src.Addr(), "www.foo.com", 1)}
	// The harness clock stands still: of four verified requests a burst of
	// strictFactor/strictFactor = 1 token forwards one, the normal burst of
	// strictFactor all of them.
	burst := func() uint64 {
		before := h.g.Stats.Load().ForwardedToANS
		for i := 0; i < 4; i++ {
			h.handle(pkt)
		}
		return h.g.Stats.Load().ForwardedToANS - before
	}
	if got := burst(); got != 1 {
		t.Fatalf("at source-limit %d of 4 verified requests passed Rate-Limiter2, want 1", got)
	}
	h.s.ResetShard()
	if got := burst(); got != 1 {
		t.Errorf("after a shard restart at source-limit %d of 4 verified requests passed Rate-Limiter2, want 1", got)
	}
}

// TestExportedCountersNeverDecrease: what the guard exports as a count only
// grows. A strict/normal limiter transition and a supervised shard restart
// empty tables in place, and neither may take back a count already scraped;
// only the gauges — the NAT-table size, queue depths, the verified cache's
// size, the selector's rung and class, the lifecycle state, the shard count
// and histogram quantiles — move both ways.
func TestExportedCountersNeverDecrease(t *testing.T) {
	h := newShardHarness(t, func(cfg *RemoteConfig) {
		cfg.Mitigation.Enabled = true
		cfg.RL1 = ratelimit.Limiter1Config{PerSourceRate: 1, PerSourceBurst: 1, GlobalRate: 1e6, GlobalBurst: 1e6, TrackedSources: 16}
		cfg.RL2 = ratelimit.Limiter2Config{PerSourceRate: 1, PerSourceBurst: 1, TrackedSources: 16}
	})
	h.g.mit.layer.Store(int32(LayerCookies))
	reg := metrics.NewRegistry()
	h.g.MetricsInto(reg)

	// The harness clock stands still: a grant and an RL1 drop, then a verified
	// query left pending and an RL2 drop.
	src := mustAP("10.0.0.53:4444")
	plain := mustPack(t, dnswire.NewQuery(1, dnswire.MustName("www.foo.com"), dnswire.TypeA))
	named := h.nsQueryWire(t, src.Addr(), "www.foo.com", 2)
	for _, wire := range [][]byte{plain, plain, named, named} {
		h.handle(Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: wire})
	}
	if st := h.g.Stats.Load(); st.NewcomerGrants != 1 || st.RL1Dropped != 1 || st.CookieValid != 2 || st.ForwardedToANS != 1 || st.RL2Dropped != 1 {
		t.Fatalf("want a grant, an RL1 drop, a forward and an RL2 drop: %+v", st)
	}
	before := reg.Snapshot()
	h.g.mit.layer.Store(int32(LayerSourceLimit))
	h.s.syncLimiters()
	h.s.ResetShard()
	after := map[string]float64{}
	for _, s := range reg.Snapshot() {
		after[s.Name] = s.Value
	}

	gauge := func(name string) bool {
		switch name {
		case "guard_remote_pending", "guard_mitigation_layer",
			"guard_mitigation_class", "guard_lifecycle_state", "guard_engine_shards":
			return true
		}
		for _, suffix := range []string{"queue_depth", "_p50_ns", "_p90_ns", "_p99_ns"} {
			if strings.HasSuffix(name, suffix) {
				return true
			}
		}
		return false
	}
	for _, s := range before {
		if v, ok := after[s.Name]; !ok {
			t.Errorf("%s is no longer exported", s.Name)
		} else if v < s.Value && !gauge(s.Name) {
			t.Errorf("%s went from %v to %v across a limiter transition and a shard restart", s.Name, s.Value, v)
		}
	}
	if st := h.g.Stats.Load(); st.PendingDropped != 1 || h.g.PendingEntries() != 0 {
		t.Errorf("the restart left %d pending and counted %d dropped, want 0 and 1", h.g.PendingEntries(), st.PendingDropped)
	}
}
