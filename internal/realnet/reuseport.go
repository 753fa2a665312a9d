// netapi capability extensions for the real network: scheduler-agnostic
// bounded queues and multi-socket UDP ingest for the engine dataplane.
package realnet

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"dnsguard/internal/netapi"
)

var (
	_ netapi.QueueEnv    = (*Env)(nil)
	_ netapi.UDPReuseEnv = (*Env)(nil)
)

// NewQueue implements netapi.QueueEnv with the portable channel-backed queue.
func (e *Env) NewQueue(capacity int) netapi.Queue {
	return netapi.NewChanQueue(capacity)
}

// ListenUDPReuse implements netapi.UDPReuseEnv. On platforms with
// SO_REUSEPORT (reuseport_linux.go) it binds n independent sockets to the
// same address so the kernel steers datagrams across them; elsewhere — or
// when the reused bind fails — it falls back to one socket shared by n
// refcounted handles (concurrent ReadFrom on a single *net.UDPConn is safe,
// the kernel serializes datagram reads).
func (e *Env) ListenUDPReuse(addr netip.AddrPort, n int) ([]netapi.UDPConn, error) {
	if n < 1 {
		return nil, fmt.Errorf("realnet: ListenUDPReuse: n must be >= 1, got %d", n)
	}
	if n == 1 {
		c, err := e.ListenUDP(addr)
		if err != nil {
			return nil, err
		}
		return []netapi.UDPConn{c}, nil
	}
	if conns, err := listenReusePort(addr, n); err == nil {
		return conns, nil
	}
	return e.listenShared(addr, n)
}

// listenShared is the portable fallback: one bound socket, n handles.
func (e *Env) listenShared(addr netip.AddrPort, n int) ([]netapi.UDPConn, error) {
	base, err := e.ListenUDP(addr)
	if err != nil {
		return nil, err
	}
	shared := &sharedConn{conn: base.(*udpConn), refs: n}
	conns := make([]netapi.UDPConn, n)
	for i := range conns {
		conns[i] = &sharedHandle{shared: shared}
	}
	return conns, nil
}

type sharedConn struct {
	conn *udpConn
	mu   sync.Mutex
	refs int
}

type sharedHandle struct {
	shared *sharedConn
	mu     sync.Mutex
	closed bool
}

var (
	_ netapi.UDPConn        = (*sharedHandle)(nil)
	_ netapi.FlowStableConn = (*sharedHandle)(nil)
)

// FlowStable reports false: the handles race ReadFrom on one kernel socket,
// so consecutive datagrams of one flow land on whichever handle wins. The
// SO_REUSEPORT path (independent sockets, kernel 4-tuple steering) is the
// flow-stable one; see udpConn.FlowStable.
func (h *sharedHandle) FlowStable() bool { return false }

func (h *sharedHandle) ReadFrom(timeout time.Duration) ([]byte, netip.AddrPort, error) {
	if h.isClosed() {
		return nil, netip.AddrPort{}, netapi.ErrClosed
	}
	return h.shared.conn.ReadFrom(timeout)
}

func (h *sharedHandle) WriteTo(b []byte, to netip.AddrPort) error {
	if h.isClosed() {
		return netapi.ErrClosed
	}
	return h.shared.conn.WriteTo(b, to)
}

func (h *sharedHandle) LocalAddr() netip.AddrPort { return h.shared.conn.LocalAddr() }

func (h *sharedHandle) isClosed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.closed
}

func (h *sharedHandle) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	h.mu.Unlock()
	h.shared.mu.Lock()
	h.shared.refs--
	last := h.shared.refs == 0
	h.shared.mu.Unlock()
	if last {
		return h.shared.conn.Close()
	}
	return nil
}

// bindAddr renders addr for net.ListenConfig, treating the zero AddrPort as
// "any address, ephemeral port" like Env.ListenUDP does.
func bindAddr(addr netip.AddrPort) string {
	if !addr.Addr().IsValid() {
		return fmt.Sprintf(":%d", addr.Port())
	}
	return addr.String()
}
