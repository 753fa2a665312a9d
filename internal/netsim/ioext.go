// Env capability extensions used by the engine dataplane: scheduler-aware
// bounded queues (netapi.QueueEnv) and multi-handle UDP ingest
// (netapi.UDPReuseEnv). Both must exist here because netsim procs may only
// block through vclock primitives — an engine built on Go channels would
// deadlock the discrete-event scheduler the moment a worker blocked on one.
package netsim

import (
	"fmt"
	"net/netip"
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/vclock"
)

var (
	_ netapi.QueueEnv    = (*Host)(nil)
	_ netapi.UDPReuseEnv = (*Host)(nil)
)

// NewQueue implements netapi.QueueEnv with a vclock bounded queue, so Get
// parks the calling proc on the virtual clock.
func (h *Host) NewQueue(capacity int) netapi.Queue {
	return &simQueue{q: vclock.NewBoundedQueue[any](h.net.sched, capacity)}
}

type simQueue struct {
	q *vclock.Queue[any]
}

func (s *simQueue) Put(v any) bool { return s.q.Put(v) }

func (s *simQueue) PutEvict(v any) (any, bool) {
	if s.q.Closed() {
		// netapi.Queue contract: a closed queue bounces v back as evicted.
		return v, true
	}
	return s.q.PutEvict(v)
}

func (s *simQueue) Get(timeout time.Duration) (any, error) {
	v, err := s.q.Get(timeout)
	if err != nil {
		return nil, mapQueueErr(err)
	}
	return v, nil
}

func (s *simQueue) Len() int { return s.q.Len() }

func (s *simQueue) Close() { s.q.Close() }

// ListenUDPReuse implements netapi.UDPReuseEnv as a fan-out shim: the
// address is bound once and n handles share the underlying receive queue
// (vclock queues support multiple blocked readers, each datagram waking
// exactly one — the closest simulator analog of kernel SO_REUSEPORT
// steering). The binding is released when every handle has been closed.
func (h *Host) ListenUDPReuse(addr netip.AddrPort, n int) ([]netapi.UDPConn, error) {
	if n < 1 {
		return nil, fmt.Errorf("netsim: ListenUDPReuse: n must be >= 1, got %d", n)
	}
	base, err := h.ListenUDP(addr)
	if err != nil {
		return nil, err
	}
	shared := &sharedUDP{conn: base.(*UDPConn), refs: n}
	conns := make([]netapi.UDPConn, n)
	for i := range conns {
		conns[i] = &reuseConn{shared: shared}
	}
	return conns, nil
}

// sharedUDP refcounts one bound simulator socket across reuse handles.
type sharedUDP struct {
	conn *UDPConn
	refs int
}

type reuseConn struct {
	shared *sharedUDP
	closed bool
}

var (
	_ netapi.UDPConn        = (*reuseConn)(nil)
	_ netapi.FlowStableConn = (*reuseConn)(nil)
)

// FlowStable reports false: the fan-out shim hands each datagram to whichever
// handle is blocked, so a flow wanders across handles. Shards must not read
// these handles directly — netsim keeps the engine's source-hash fan-out,
// which is also what makes multi-shard replays deterministic.
func (c *reuseConn) FlowStable() bool { return false }

func (c *reuseConn) ReadFrom(timeout time.Duration) ([]byte, netip.AddrPort, error) {
	if c.closed {
		return nil, netip.AddrPort{}, netapi.ErrClosed
	}
	return c.shared.conn.ReadFrom(timeout)
}

func (c *reuseConn) WriteTo(b []byte, to netip.AddrPort) error {
	if c.closed {
		return netapi.ErrClosed
	}
	return c.shared.conn.WriteTo(b, to)
}

func (c *reuseConn) LocalAddr() netip.AddrPort { return c.shared.conn.LocalAddr() }

func (c *reuseConn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	c.shared.refs--
	if c.shared.refs == 0 {
		return c.shared.conn.Close()
	}
	return nil
}
