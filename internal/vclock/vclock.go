// Package vclock implements a deterministic discrete-event scheduler with a
// virtual clock and cooperative simulated goroutines ("procs").
//
// The scheduler runs at most one proc at a time. A proc may block only through
// vclock primitives (Sleep, Queue.Get, Cond.Wait); blocking parks the proc and
// returns control to the event loop, which advances virtual time to the next
// scheduled event. Because control transfer is explicit and events are ordered
// by (time, sequence number), every run of a simulation with the same inputs
// is bit-for-bit deterministic.
//
// This is the substrate for the network simulator used by the DNS Guard
// experiments: latency, timeouts, and CPU service times are all expressed as
// virtual durations, so experiments that model minutes of traffic complete in
// milliseconds of real time.
package vclock

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// Scheduler owns the virtual clock and the event queue. The zero value is not
// usable; create one with New.
type Scheduler struct {
	now     time.Duration
	events  eventHeap
	seq     uint64
	rng     *rand.Rand
	ctl     chan struct{} // proc -> scheduler handoff
	running *Proc         // proc currently holding the execution token
	stopped bool
	live    Proc // sentinel of the ring of procs not yet finished, oldest first
	closed  bool
}

// New returns a Scheduler whose clock starts at zero and whose random source
// is seeded with seed (determinism requires all simulation randomness to come
// from Rand).
func New(seed int64) *Scheduler {
	s := &Scheduler{
		rng: rand.New(rand.NewSource(seed)),
		ctl: make(chan struct{}),
	}
	s.live.prev, s.live.next = &s.live, &s.live
	return s
}

// Now returns the current virtual time as an offset from the start of the
// simulation.
func (s *Scheduler) Now() time.Duration { return s.now }

// Rand returns the scheduler's deterministic random source. It must only be
// used from procs or event callbacks.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// RandDuration returns a uniformly distributed duration in [0, max), drawn
// from the scheduler's deterministic random source. It is the primitive the
// network simulator's fault-injection layer uses for latency jitter and
// reorder delays, so degraded-network runs replay bit-for-bit from a seed.
// A non-positive max yields zero without consuming randomness.
func (s *Scheduler) RandDuration(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(s.rng.Int63n(int64(max)))
}

// Proc is a simulated goroutine. Procs are created with Go and must perform
// all blocking through the scheduler that owns them.
type Proc struct {
	name       string
	sched      *Scheduler
	resume     chan struct{}
	dead       bool
	prev, next *Proc // neighbours on the scheduler's ring of live procs
}

func (p *Proc) String() string { return fmt.Sprintf("proc(%s)", p.name) }

type event struct {
	at   time.Duration
	seq  uint64
	proc *Proc  // if non-nil, wake this proc
	fn   func() // otherwise run this callback inline (must not block)
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func (s *Scheduler) schedule(at time.Duration, p *Proc, fn func()) *event {
	if at < s.now {
		at = s.now
	}
	s.seq++
	heap.Push(&s.events, event{at: at, seq: s.seq, proc: p, fn: fn})
	return nil
}

// Go spawns a new proc that begins executing fn at the current virtual time.
// The name is used in diagnostics only. Go may be called from outside the
// simulation (before Run) or from a running proc or callback.
func (s *Scheduler) Go(name string, fn func()) *Proc {
	p := &Proc{name: name, sched: s, resume: make(chan struct{}), dead: s.closed}
	if p.dead {
		return p
	}
	p.prev, p.next = s.live.prev, &s.live
	p.prev.next, s.live.prev = p, p
	go func() {
		<-p.resume // wait to be scheduled for the first time
		ended := false
		defer func() {
			if !ended && !s.closed {
				return // fn panicked: the program ends with the scheduler waiting
			}
			p.dead = true
			p.prev.next, p.next.prev = p.next, p.prev
			s.ctl <- struct{}{} // return the token; proc goroutine exits
		}()
		if !s.closed {
			fn()
		}
		ended = true
	}()
	s.schedule(s.now, p, nil)
	return p
}

// After schedules fn to run as an event callback after d elapses. Callbacks
// run on the scheduler's goroutine and must not block. It returns a Timer
// that can be stopped.
func (s *Scheduler) After(d time.Duration, fn func()) *Timer {
	t := &Timer{}
	s.schedule(s.now+d, nil, func() {
		if !t.stopped {
			fn()
		}
	})
	return t
}

// Timer is a cancellable callback handle returned by After.
type Timer struct{ stopped bool }

// Stop prevents the timer's callback from firing if it has not fired yet.
func (t *Timer) Stop() { t.stopped = true }

// Sleep parks the calling proc for d of virtual time.
func (s *Scheduler) Sleep(d time.Duration) {
	p := s.mustRunning("Sleep")
	s.schedule(s.now+d, p, nil)
	s.park(p)
}

// Yield parks the calling proc and reschedules it at the current time, after
// any events already queued for this instant.
func (s *Scheduler) Yield() { s.Sleep(0) }

// park transfers control from proc p back to the scheduler loop and blocks
// until the scheduler resumes p.
func (s *Scheduler) park(p *Proc) {
	if !s.closed { // else a deferred call of a proc Close is ending
		s.ctl <- struct{}{}
		<-p.resume
	}
	if s.closed {
		runtime.Goexit()
	}
}

func (s *Scheduler) mustRunning(op string) *Proc {
	if s.running == nil {
		panic("vclock: " + op + " called from outside a proc")
	}
	return s.running
}

// Running reports the proc currently executing, or nil when the scheduler
// itself (a callback) is running.
func (s *Scheduler) Running() *Proc { return s.running }

// Run processes events until the queue is empty, the virtual clock passes
// until, or Stop is called. It returns the virtual time at which it stopped.
// A zero until means run until the event queue drains.
func (s *Scheduler) Run(until time.Duration) time.Duration {
	s.stopped = false
	for len(s.events) > 0 && !s.stopped && !s.closed {
		e := heap.Pop(&s.events).(event)
		if until > 0 && e.at > until {
			// Put it back for a future Run call and stop at the horizon.
			heap.Push(&s.events, e)
			s.now = until
			return s.now
		}
		s.now = e.at
		switch {
		case e.proc != nil:
			if e.proc.dead {
				continue
			}
			s.running = e.proc
			e.proc.resume <- struct{}{}
			<-s.ctl // wait for the proc to park or finish
			s.running = nil
		case e.fn != nil:
			e.fn()
		}
	}
	return s.now
}

// Stop makes Run return after the current event completes.
func (s *Scheduler) Stop() { s.stopped = true }

// Close ends every proc that has not finished — asleep, blocked in a Queue,
// or never started — so its goroutine exits and what it holds can be
// collected: a proc left parked keeps its stack, and through it the whole
// simulation, for the life of the program. The procs end one at a time,
// oldest first, each running its deferred calls; a vclock call that would
// block ends the proc there. Call it from outside Run once the simulation's
// results are read: nothing runs on the scheduler after.
func (s *Scheduler) Close() {
	s.closed = true
	for s.live.next != &s.live {
		s.running = s.live.next
		s.running.resume <- struct{}{}
		<-s.ctl
	}
	s.running, s.events = nil, nil
}

// Pending reports the number of queued events, mostly for tests.
func (s *Scheduler) Pending() int { return len(s.events) }
