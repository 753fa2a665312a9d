package netapi

import (
	"sync"
	"time"
)

// NewChanQueue returns the portable Queue implementation for environments
// scheduled by the Go runtime (realnet, tests). It is a mutex-guarded ring
// with a wakeup channel, designed for the engine's topology: any number of
// producers, ONE consumer. A single consumer drains the ring to empty before
// blocking again, so the capacity-1 wakeup channel cannot lose a wakeup;
// multiple concurrent Get callers would need a condition variable instead.
//
// Simulator procs must not use this (a channel receive inside a netsim proc
// deadlocks the virtual clock); netsim's Env provides its own Queue.
func NewChanQueue(capacity int) Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &chanQueue{
		items:  make([]any, capacity),
		notify: make(chan struct{}, 1),
	}
}

type chanQueue struct {
	mu     sync.Mutex
	items  []any // ring buffer of len == capacity
	head   int
	n      int
	closed bool
	notify chan struct{}
}

func (q *chanQueue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

func (q *chanQueue) Put(v any) bool {
	q.mu.Lock()
	if q.closed || q.n == len(q.items) {
		q.mu.Unlock()
		return false
	}
	q.items[(q.head+q.n)%len(q.items)] = v
	q.n++
	q.mu.Unlock()
	q.wake()
	return true
}

func (q *chanQueue) Get(timeout time.Duration) (any, error) {
	var timer *time.Timer
	var expire <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		expire = timer.C
		defer timer.Stop()
	}
	for {
		q.mu.Lock()
		if q.n > 0 {
			v := q.items[q.head]
			q.items[q.head] = nil
			q.head = (q.head + 1) % len(q.items)
			q.n--
			q.mu.Unlock()
			return v, nil
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return nil, ErrClosed
		}
		if timeout == 0 {
			return nil, ErrTimeout
		}
		select {
		case <-q.notify:
		case <-expire:
			return nil, ErrTimeout
		}
	}
}

func (q *chanQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

func (q *chanQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.wake()
}
