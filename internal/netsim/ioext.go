// The Env capability extension the engine dataplane needs here:
// scheduler-aware bounded queues (netapi.QueueEnv). netsim procs may only
// block through vclock primitives — an engine built on Go channels would
// deadlock the discrete-event scheduler the moment a worker blocked on one.
package netsim

import (
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/vclock"
)

var _ netapi.QueueEnv = (*Host)(nil)

// NewQueue implements netapi.QueueEnv with a vclock bounded queue, so Get
// parks the calling proc on the virtual clock.
func (h *Host) NewQueue(capacity int) netapi.Queue {
	return &simQueue{q: vclock.NewBoundedQueue[any](h.net.sched, capacity)}
}

type simQueue struct {
	q *vclock.Queue[any]
}

func (s *simQueue) Put(v any) bool { return s.q.Put(v) }

func (s *simQueue) Get(timeout time.Duration) (any, error) {
	v, err := s.q.Get(timeout)
	if err != nil {
		return nil, mapQueueErr(err)
	}
	return v, nil
}

func (s *simQueue) Len() int { return s.q.Len() }

func (s *simQueue) Close() { s.q.Close() }
