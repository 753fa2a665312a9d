package metrics

import (
	"sync/atomic"
	"testing"
)

type testStats struct {
	Received uint64
	RL1Drop  uint64
}

var testStatsNames = []string{"received", "rl1_drop"}

func TestSnapshotUint64(t *testing.T) {
	s := &testStats{}
	atomic.StoreUint64(&s.Received, 42)
	atomic.StoreUint64(&s.RL1Drop, 9)
	if got := SnapshotUint64(s); got != (testStats{42, 9}) {
		t.Fatalf("snapshot = %+v", got)
	}
	// A snapshot is a copy on the caller's stack: the guard's mitigation
	// loop takes two an interval.
	if n := testing.AllocsPerRun(100, func() { _ = SnapshotUint64(s) }); n != 0 {
		t.Fatalf("SnapshotUint64 allocates %v objects", n)
	}
	var sum testStats
	AddUint64(&sum, s)
	AddUint64(&sum, s)
	if sum != (testStats{84, 18}) {
		t.Fatalf("sum = %+v", sum)
	}
	if n := testing.AllocsPerRun(100, func() { AddUint64(&sum, s) }); n != 0 {
		t.Fatalf("AddUint64 allocates %v objects", n)
	}
}

func TestRegisterUint64Fields(t *testing.T) {
	s, s2 := &testStats{}, &testStats{}
	r := NewRegistry()
	RegisterUint64Fields(r, "x_", testStatsNames, func() (sum testStats) {
		AddUint64(&sum, s)
		AddUint64(&sum, s2)
		return sum
	})
	atomic.StoreUint64(&s.Received, 5)
	atomic.StoreUint64(&s2.Received, 2)
	if v, ok := r.Get("x_received"); !ok || v != 7 {
		t.Fatalf("x_received = %v, %v", v, ok)
	}
	if v, ok := r.Get("x_rl1_drop"); !ok || v != 0 {
		t.Fatalf("x_rl1_drop = %v, %v", v, ok)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a name table one short registered")
		}
	}()
	RegisterUint64Fields(r, "y_", testStatsNames[:1], func() testStats { return *s })
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
