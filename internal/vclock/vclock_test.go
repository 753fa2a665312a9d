package vclock

import (
	"runtime"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := New(1)
	var woke time.Duration
	s.Go("sleeper", func() {
		s.Sleep(250 * time.Millisecond)
		woke = s.Now()
	})
	s.Run(0)
	if woke != 250*time.Millisecond {
		t.Fatalf("woke at %v, want 250ms", woke)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New(1)
	var order []int
	s.After(30*time.Millisecond, func() { order = append(order, 3) })
	s.After(10*time.Millisecond, func() { order = append(order, 1) })
	s.After(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run(0)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
}

func TestSameInstantEventsRunInScheduleOrder(t *testing.T) {
	s := New(1)
	var order []int
	for i := 1; i <= 5; i++ {
		i := i
		s.After(time.Millisecond, func() { order = append(order, i) })
	}
	s.Run(0)
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.After(time.Millisecond, func() { fired = true })
	tm.Stop()
	s.Run(0)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestQueuePutGet(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	var got []int
	s.Go("consumer", func() {
		for i := 0; i < 3; i++ {
			v, err := q.Get(NoTimeout)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			got = append(got, v)
		}
	})
	s.Go("producer", func() {
		for i := 1; i <= 3; i++ {
			s.Sleep(time.Millisecond)
			q.Put(i)
		}
	})
	s.Run(0)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got = %v, want [1 2 3]", got)
	}
}

func TestQueueGetTimeout(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	var err error
	var elapsed time.Duration
	s.Go("consumer", func() {
		start := s.Now()
		_, err = q.Get(5 * time.Millisecond)
		elapsed = s.Now() - start
	})
	s.Run(0)
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed != 5*time.Millisecond {
		t.Fatalf("elapsed = %v, want 5ms", elapsed)
	}
}

func TestQueueGetZeroTimeoutPolls(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	q.Put(7)
	s.Go("poller", func() {
		if v, err := q.Get(0); err != nil || v != 7 {
			t.Errorf("Get = %v, %v; want 7, nil", v, err)
		}
		if _, err := q.Get(0); err != ErrTimeout {
			t.Errorf("empty poll err = %v, want ErrTimeout", err)
		}
	})
	s.Run(0)
}

func TestQueueTimeoutThenPutDoesNotLoseItem(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	var after int
	s.Go("consumer", func() {
		if _, err := q.Get(time.Millisecond); err != ErrTimeout {
			t.Errorf("first Get err = %v, want timeout", err)
		}
		v, err := q.Get(NoTimeout)
		if err != nil {
			t.Errorf("second Get err = %v", err)
		}
		after = v
	})
	s.Go("producer", func() {
		s.Sleep(2 * time.Millisecond)
		q.Put(42)
	})
	s.Run(0)
	if after != 42 {
		t.Fatalf("after = %d, want 42 (item delivered to stale waiter?)", after)
	}
}

func TestQueueCloseWakesWaiter(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	var err error
	s.Go("consumer", func() { _, err = q.Get(NoTimeout) })
	s.Go("closer", func() {
		s.Sleep(time.Millisecond)
		q.Close()
	})
	s.Run(0)
	if err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestQueueCloseDrainsBufferedItems(t *testing.T) {
	s := New(1)
	q := NewQueue[int](s)
	q.Put(1)
	q.Close()
	s.Go("consumer", func() {
		if v, err := q.Get(NoTimeout); err != nil || v != 1 {
			t.Errorf("Get = %v, %v; want 1, nil", v, err)
		}
		if _, err := q.Get(NoTimeout); err != ErrClosed {
			t.Errorf("after drain err = %v, want ErrClosed", err)
		}
	})
	s.Run(0)
}

func TestBoundedQueueDrops(t *testing.T) {
	s := New(1)
	q := NewBoundedQueue[int](s, 2)
	if !q.Put(1) || !q.Put(2) {
		t.Fatal("first two puts rejected")
	}
	if q.Put(3) {
		t.Fatal("third put accepted beyond capacity")
	}
	if q.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", q.Dropped())
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New(1)
	fired := 0
	s.After(time.Second, func() { fired++ })
	s.After(3*time.Second, func() { fired++ })
	end := s.Run(2 * time.Second)
	if end != 2*time.Second {
		t.Fatalf("end = %v, want 2s", end)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	s.Run(0)
	if fired != 2 {
		t.Fatalf("after second run fired = %d, want 2", fired)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		s := New(42)
		q := NewQueue[int](s)
		var stamps []time.Duration
		for i := 0; i < 4; i++ {
			i := i
			s.Go("p", func() {
				d := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
				s.Sleep(d)
				q.Put(i)
			})
		}
		s.Go("c", func() {
			for i := 0; i < 4; i++ {
				if _, err := q.Get(NoTimeout); err != nil {
					return
				}
				stamps = append(stamps, s.Now())
			}
		})
		s.Run(0)
		return stamps
	}
	a, b := run(), run()
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("incomplete runs: %v %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: %v vs %v", a, b)
		}
	}
}

func TestGoFromProc(t *testing.T) {
	s := New(1)
	done := false
	s.Go("outer", func() {
		s.Go("inner", func() { done = true })
		s.Sleep(time.Millisecond)
	})
	s.Run(0)
	if !done {
		t.Fatal("inner proc never ran")
	}
}

func TestYieldRunsAfterQueuedEvents(t *testing.T) {
	s := New(1)
	var order []string
	s.Go("a", func() {
		order = append(order, "a1")
		s.Yield()
		order = append(order, "a2")
	})
	s.Go("b", func() { order = append(order, "b") })
	s.Run(0)
	want := []string{"a1", "b", "a2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestCloseEndsParkedProcs: procs a run leaves asleep, blocked in a queue or
// never started end at Close — oldest first, each running its deferred
// calls, one of which blocks and is ended there — so no goroutine outlives
// the simulation. Nothing runs on the scheduler after.
func TestCloseEndsParkedProcs(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(1)
	q := NewQueue[int](s)
	var ended []string
	s.Go("sleeper", func() {
		defer func() { ended = append(ended, "sleeper") }()
		s.Sleep(time.Hour)
		t.Error("the sleeper woke")
	})
	s.Go("reader", func() {
		defer func() { ended = append(ended, "reader") }()
		defer s.Sleep(time.Second) // blocks again while ending: ends there
		q.Get(NoTimeout)
		t.Error("the reader read")
	})
	s.Run(time.Minute)
	s.Go("unstarted", func() { t.Error("a proc started after Close") })
	s.Close()
	if len(ended) != 2 || ended[0] != "sleeper" || ended[1] != "reader" {
		t.Errorf("deferred calls ran for %v, want [sleeper reader]", ended)
	}
	s.After(0, func() { t.Error("an event ran after Close") })
	s.Go("late", func() { t.Error("a proc started after Close") })
	if end := s.Run(0); end != time.Minute {
		t.Errorf("Run after Close moved the clock to %v", end)
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines after Close, %d before the simulation", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
