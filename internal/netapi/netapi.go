// Package netapi defines the minimal network environment used by every
// component in this repository: a clock, goroutine spawning, and UDP/TCP
// endpoints addressed with netip types.
//
// Two implementations exist: internal/netsim (a deterministic discrete-event
// simulator on a virtual clock, used by all experiments) and internal/realnet
// (OS sockets, via syscall on Linux amd64/arm64 and net elsewhere, for the
// cmd/ daemons and the realservers example). Env code runs unchanged on both.
//
// # Optional capabilities
//
// Beyond the core Env contract, an environment may implement optional
// capability interfaces. Callers never type-assert for these individually;
// they call Capabilities(env) once and branch on the returned Caps:
//
//	capability       interface        realnet                       netsim
//	----------       ---------        -------                       ------
//	reuse-port       UDPReuseEnv      n SO_REUSEPORT sockets (Linux absent: Host.OpenTaps splits
//	                                  amd64/arm64); n > 1 fails     a host's capture instead
//	                                  elsewhere
//	cooperative      CooperativeEnv   false — OS goroutines,        true — coroutines on the virtual
//	scheduling                        blocking allowed              clock; OS blocking deadlocks
//
// No UDPReuseEnv means one socket and one shard. Batch I/O is not a
// capability: every UDPConn reads with ReadBatch into its caller's slab
// (realnet: one recvmmsg on Linux amd64/arm64, a read loop elsewhere;
// netsim: a drain of the delivery queue) and writes with WriteTo or
// WriteBatch.
package netapi

import (
	"errors"
	"net/netip"
	"time"
)

// Blocking-call timeouts. A negative timeout blocks indefinitely; zero polls.
const NoTimeout time.Duration = -1

// Errors returned by Env endpoints. Implementations wrap or return these
// directly so callers can match with errors.Is.
var (
	ErrTimeout   = errors.New("netapi: i/o timeout")
	ErrClosed    = errors.New("netapi: endpoint closed")
	ErrRefused   = errors.New("netapi: connection refused")
	ErrNoRoute   = errors.New("netapi: no route to host")
	ErrAddrInUse = errors.New("netapi: address in use")
)

// Env is the execution environment: virtual or real time plus socket
// factories. Addresses on an Env are IPv4/IPv6 netip addresses; the simulator
// assigns them explicitly while realnet uses whatever the host OS provides.
type Env interface {
	// Now returns monotonic time as an offset from an arbitrary epoch.
	Now() time.Duration
	// Sleep blocks the calling proc/goroutine for d.
	Sleep(d time.Duration)
	// Go runs fn concurrently. The name is used in diagnostics only.
	Go(name string, fn func())
	// ListenUDP binds a datagram endpoint. A zero port picks an ephemeral
	// port; on the simulator the address must belong to the calling host.
	ListenUDP(addr netip.AddrPort) (UDPConn, error)
	// DialTCP opens a stream connection to raddr.
	DialTCP(raddr netip.AddrPort) (Conn, error)
	// ListenTCP binds a stream listener.
	ListenTCP(addr netip.AddrPort) (Listener, error)
}

// CooperativeEnv is an optional Env capability describing the scheduling
// discipline. CooperativeScheduling reports true when procs are cooperative
// coroutines on a shared virtual clock (netsim): such a proc must never
// block through OS-level primitives (channel receives, WaitGroup waits) —
// doing so wedges the scheduler goroutine and deadlocks the whole
// simulation. Components that would otherwise join their workers on
// shutdown (engine.Close) consult this and fall back to the scheduler's own
// drain semantics. An Env that does not implement the interface is treated
// as preemptive (real goroutines, OS blocking allowed).
type CooperativeEnv interface {
	CooperativeScheduling() bool
}

// UDPReuseEnv is an optional Env capability: bind n datagram endpoints to
// the same address so each engine shard can read its own, where the
// environment steers every datagram of a flow to one of them (realnet with
// SO_REUSEPORT: the kernel's 4-tuple hash). It returns exactly n conns or an
// error; all of them report the same LocalAddr.
type UDPReuseEnv interface {
	ListenUDPReuse(addr netip.AddrPort, n int) ([]UDPConn, error)
}

// Packet is a raw datagram as a capture point sees it: a middlebox knows
// both addresses. Simulator taps, the engine and the guard's handlers all
// name this one type.
type Packet struct {
	Src     netip.AddrPort
	Dst     netip.AddrPort
	Payload []byte
}

// UDPConn is a datagram endpoint. It has one read: ReadBatch into a slab
// of Datagram slots the caller owns, a single datagram being a slab of one.
// A filled slot's payload is the caller's until its next ReadBatch into that
// slot, which overwrites it; a caller that keeps a payload past that copies
// it.
type UDPConn interface {
	// ReadBatch fills up to len(msgs) slots and returns the number filled.
	// It blocks per netapi timeout rules for the first datagram (NoTimeout
	// blocks; zero polls; ErrTimeout/ErrClosed on failure) and then takes
	// only what is already buffered — it never waits to fill the slab, so
	// n >= 1 whenever err is nil.
	ReadBatch(msgs []Datagram, timeout time.Duration) (n int, err error)
	// WriteTo sends one datagram to to. Delivery is best-effort.
	WriteTo(b []byte, to netip.AddrPort) error
	// WriteBatch sends msgs[i].Payload() to msgs[i].Addr for each slot, in
	// order, and returns the number sent. Delivery is best-effort; a
	// non-nil error reports the first send failure.
	WriteBatch(msgs []Datagram) (n int, err error)
	LocalAddr() netip.AddrPort
	Close() error
}

// Conn is a byte-stream connection.
type Conn interface {
	// Read fills b with available bytes, blocking until at least one byte
	// arrives, the timeout elapses, or the peer closes (ErrClosed on a
	// clean close after all data is drained).
	Read(b []byte, timeout time.Duration) (int, error)
	// Write queues b for delivery to the peer.
	Write(b []byte) (int, error)
	Close() error
	LocalAddr() netip.AddrPort
	RemoteAddr() netip.AddrPort
}

// Listener accepts inbound stream connections.
type Listener interface {
	// Accept blocks until a connection is established, the timeout
	// elapses, or the listener is closed.
	Accept(timeout time.Duration) (Conn, error)
	Addr() netip.AddrPort
	Close() error
}
