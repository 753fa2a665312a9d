package metrics

import (
	"strings"
	"testing"
	"time"
)

func mergedValue(t *testing.T, samples []Sample, name string) float64 {
	t.Helper()
	for _, s := range samples {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("merged snapshot missing series %q", name)
	return 0
}

// constant is a Func reading v.
func constant(v float64) func() float64 { return func() float64 { return v } }

// observed is a histogram registered on r under name, holding one
// observation of d.
func observed(r *Registry, name string, d time.Duration) {
	h := NewHistogram()
	r.RegisterHistogram(name, h)
	h.Observe(d)
}

func TestMergedSumsCounters(t *testing.T) {
	a, b, c := NewRegistry(), NewRegistry(), NewRegistry()
	a.Func("received", constant(10))
	b.Func("received", constant(32))
	c.Func("received", constant(0))
	a.Func("only_a", constant(7))
	b.Func("depth", constant(4))
	c.Func("depth", constant(-1))
	a.FuncUint("handled", func() uint64 { return 5 })
	b.FuncUint("handled", func() uint64 { return 6 })

	m := Merged(a, b, c)
	if got := mergedValue(t, m, "received"); got != 42 {
		t.Errorf("received = %v, want 42", got)
	}
	if got := mergedValue(t, m, "only_a"); got != 7 {
		t.Errorf("only_a = %v, want 7", got)
	}
	if got := mergedValue(t, m, "depth"); got != 3 {
		t.Errorf("depth = %v, want 3 (negative values sum too)", got)
	}
	if got := mergedValue(t, m, "handled"); got != 11 {
		t.Errorf("handled = %v, want 11", got)
	}
	// Sorted by name, like Snapshot.
	for i := 1; i < len(m); i++ {
		if m[i-1].Name >= m[i].Name {
			t.Fatalf("merged samples not sorted: %q before %q", m[i-1].Name, m[i].Name)
		}
	}
}

func TestMergedHistogramsCombineDistributions(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	ha, hb := NewHistogram(), NewHistogram()
	a.RegisterHistogram("wait", ha)
	b.RegisterHistogram("wait", hb)
	// 90 fast observations in one registry, 10 slow in the other: the merged
	// p99 must land in the slow region, which per-registry averaging of
	// quantiles could never produce.
	for i := 0; i < 90; i++ {
		ha.Observe(2 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		hb.Observe(slowTail)
	}
	m := Merged(a, b)
	if got := mergedValue(t, m, "wait_count"); got != 100 {
		t.Errorf("wait_count = %v, want 100", got)
	}
	wantSum := float64(90*2*time.Microsecond + 10*slowTail)
	if got := mergedValue(t, m, "wait_sum_ns"); got != wantSum {
		t.Errorf("wait_sum_ns = %v, want %v", got, wantSum)
	}
	if got := time.Duration(mergedValue(t, m, "wait_p99_ns")); got < time.Millisecond {
		t.Errorf("merged p99 = %v, want >= 1ms (slow tail from second registry)", got)
	}
	if got := time.Duration(mergedValue(t, m, "wait_p50_ns")); got > 10*time.Microsecond {
		t.Errorf("merged p50 = %v, want fast-path dominated", got)
	}
}

const slowTail = 3 * time.Millisecond

func TestMergeHistogramBoundsMismatch(t *testing.T) {
	dst := NewHistogramBounds([]time.Duration{time.Microsecond, time.Millisecond})
	src := NewHistogramBounds([]time.Duration{time.Microsecond, 2 * time.Millisecond})
	if err := MergeHistogram(dst, src); err == nil {
		t.Fatal("MergeHistogram accepted mismatched bounds")
	}
	short := NewHistogramBounds([]time.Duration{time.Microsecond})
	if err := MergeHistogram(dst, short); err == nil {
		t.Fatal("MergeHistogram accepted mismatched bucket count")
	}
	same := NewHistogramBounds([]time.Duration{time.Microsecond, time.Millisecond})
	same.Observe(time.Microsecond)
	if err := MergeHistogram(dst, same); err != nil {
		t.Fatalf("MergeHistogram on matching bounds: %v", err)
	}
	if dst.Count() != 1 {
		t.Fatalf("dst.Count = %d, want 1", dst.Count())
	}
}

func TestMergedPanicsOnMixedKinds(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Func("x", constant(1))
	observed(b, "x", time.Microsecond)
	defer func() {
		if recover() == nil {
			t.Fatal("Merged did not panic on scalar/histogram kind clash")
		}
	}()
	Merged(a, b)
}

func TestMergedInto(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	received := 3.0
	a.Func("guard_remote_received", func() float64 { return received })
	b.Func("guard_remote_received", constant(4))
	observed(a, "guard_wait", time.Microsecond)
	observed(b, "guard_wait", time.Microsecond)

	top := NewRegistry()
	top.Func("fleet_sites", constant(2))
	MergedInto(top, "fleet_", a, b)

	var sb strings.Builder
	if err := top.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"fleet_guard_remote_received 7\n",
		"fleet_guard_wait_count 2\n",
		"fleet_sites 2\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("roll-up text missing %q; got:\n%s", want, text)
		}
	}
	// The roll-up is live: source registries keep moving after registration.
	received += 10
	if v, ok := top.Get("fleet_guard_remote_received"); !ok || v != 17 {
		t.Errorf("live roll-up = %v (ok=%v), want 17", v, ok)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("duplicate MergedInto prefix did not panic")
		}
	}()
	MergedInto(top, "fleet_", a)
}
