package vclock

import (
	"errors"
	"time"
)

// ErrClosed is returned by Queue.Get when the queue has been closed and
// drained.
var ErrClosed = errors.New("vclock: queue closed")

// ErrTimeout is returned by Queue.Get when the timeout elapses before an item
// arrives.
var ErrTimeout = errors.New("vclock: timeout")

// NoTimeout passed to Queue.Get blocks until an item arrives or the queue is
// closed.
const NoTimeout time.Duration = -1

// Queue is an unbounded-by-default FIFO mailbox connecting procs (and event
// callbacks) to procs. Put never blocks; Get blocks the calling proc. A
// capacity may be set, in which case Put drops the item and reports false
// when the queue is full (tail drop) — this is how bounded socket buffers and
// CPU backlogs are modelled.
type Queue[T any] struct {
	sched   *Scheduler
	items   []T
	cap     int // 0 means unbounded
	closed  bool
	waiters []*qwaiter[T]
	dropped uint64
}

type qwaiter[T any] struct {
	proc  *Proc
	item  T
	ok    bool
	err   error
	fired bool // an item or close has been handed to this waiter
}

// NewQueue returns an unbounded queue bound to s.
func NewQueue[T any](s *Scheduler) *Queue[T] {
	return &Queue[T]{sched: s}
}

// NewBoundedQueue returns a queue that holds at most capacity items; further
// Puts are dropped.
func NewBoundedQueue[T any](s *Scheduler, capacity int) *Queue[T] {
	return &Queue[T]{sched: s, cap: capacity}
}

// Len reports the number of buffered items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Dropped reports how many Puts were discarded due to the capacity bound.
func (q *Queue[T]) Dropped() uint64 { return q.dropped }

// Put appends v to the queue, waking the oldest waiter if one exists. It
// reports whether the item was accepted (false when the queue is closed or
// full). Put may be called from procs and from event callbacks.
func (q *Queue[T]) Put(v T) bool {
	if q.closed {
		return false
	}
	// Hand the item directly to the oldest waiter that has not fired yet.
	for len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		if w.fired {
			continue
		}
		w.item, w.ok, w.fired = v, true, true
		q.sched.schedule(q.sched.now, w.proc, nil)
		return true
	}
	if q.cap > 0 && len(q.items) >= q.cap {
		q.dropped++
		return false
	}
	q.items = append(q.items, v)
	return true
}

// Get removes and returns the oldest item. It blocks the calling proc until
// an item is available, the queue is closed (ErrClosed), or timeout elapses
// (ErrTimeout). A timeout of NoTimeout blocks indefinitely; a timeout of zero
// polls without blocking.
func (q *Queue[T]) Get(timeout time.Duration) (T, error) {
	var zero T
	if len(q.items) > 0 {
		v := q.items[0]
		q.items = q.items[1:]
		return v, nil
	}
	if q.closed {
		return zero, ErrClosed
	}
	if timeout == 0 {
		return zero, ErrTimeout
	}
	p := q.sched.mustRunning("Queue.Get")
	w := &qwaiter[T]{proc: p}
	q.waiters = append(q.waiters, w)
	var timer *Timer
	if timeout > 0 {
		timer = q.sched.After(timeout, func() {
			if !w.fired {
				w.err, w.fired = ErrTimeout, true
				q.sched.schedule(q.sched.now, p, nil)
			}
		})
	}
	q.sched.park(p)
	if timer != nil {
		timer.Stop()
	}
	if w.err != nil {
		return zero, w.err
	}
	if !w.ok {
		return zero, ErrClosed
	}
	return w.item, nil
}

// Close marks the queue closed. Buffered items may still be drained with Get;
// blocked waiters are woken with ErrClosed.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for _, w := range q.waiters {
		if w.fired {
			continue
		}
		w.fired = true
		q.sched.schedule(q.sched.now, w.proc, nil)
	}
	q.waiters = nil
}
