// Package realnet implements netapi.Env over the operating system's sockets
// and clock. The same servers, resolvers, and guards that run inside
// internal/netsim for experiments run here for real: the cmd/ daemons and
// the realservers example use this environment.
//
// On Linux amd64 and arm64 (socket_linux.go, batch_linux.go) each socket is
// opened with syscall and parked on the runtime poller through os.NewFile,
// with no net package in between, and a datagram slab moves in one
// recvmmsg/sendmmsg; every other platform goes through the net package
// (portable.go), one datagram per syscall and one socket, so one shard.
//
// Limitations relative to the simulator are inherent to userspace sockets
// and documented in DESIGN.md: source addresses cannot be spoofed, the guard
// intercepts by being addressed directly rather than by claiming a subnet,
// and SYN cookies are the kernel's business.
package realnet

import (
	"errors"
	"net/netip"
	"strconv"
	"time"

	"dnsguard/internal/netapi"
)

// Env is the real-network environment. The zero value is not usable; call
// New.
type Env struct {
	start time.Time
}

var (
	_ netapi.Env         = (*Env)(nil)
	_ netapi.UDPReuseEnv = (*Env)(nil)
	_ netapi.UDPConn     = (*udpConn)(nil)
	_ netapi.Conn        = (*tcpConn)(nil)
	_ netapi.Listener    = (*tcpListener)(nil)
)

// New returns an Env whose clock starts now.
func New() *Env {
	return &Env{start: time.Now()}
}

// Now implements netapi.Env.
func (e *Env) Now() time.Duration { return time.Since(e.start) }

// Sleep implements netapi.Env.
func (e *Env) Sleep(d time.Duration) { time.Sleep(d) }

// Go implements netapi.Env.
func (e *Env) Go(name string, fn func()) { go fn() }

// ListenUDP implements netapi.Env.
func (e *Env) ListenUDP(addr netip.AddrPort) (netapi.UDPConn, error) {
	c, err := listenUDP(addr, false)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// ErrNoReusePort is ListenUDPReuse's answer to more than one socket on a
// platform where this package binds no SO_REUSEPORT group (every one but
// Linux amd64 and arm64): the kernel could not steer a flow to one of them.
var ErrNoReusePort = errors.New("realnet: SO_REUSEPORT is unavailable on this platform: one socket, one shard")

// ListenUDPReuse implements netapi.UDPReuseEnv: n sockets bound to addr with
// SO_REUSEPORT, so the kernel steers each flow to one of them, on Linux
// amd64 and arm64. Elsewhere n > 1 fails with ErrNoReusePort rather than
// binding fewer sockets than the caller has shards.
func (e *Env) ListenUDPReuse(addr netip.AddrPort, n int) ([]netapi.UDPConn, error) {
	if n < 1 {
		return nil, errors.New("realnet: ListenUDPReuse: n must be >= 1, got " + strconv.Itoa(n))
	}
	if n > 1 && !reusePort {
		return nil, ErrNoReusePort
	}
	conns := make([]netapi.UDPConn, 0, n)
	for len(conns) < n {
		c, err := listenUDP(addr, n > 1)
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, err
		}
		conns = append(conns, c)
		addr = c.LocalAddr() // the first bind picks an ephemeral port, the rest reuse it
	}
	return conns, nil
}

// maxDatagram is the largest possible UDP payload: the size of the portable
// build's read scratch, and of the buffer the mmsg path allocates for a slab
// slot the caller left empty.
const maxDatagram = 65536

// WriteTo implements netapi.UDPConn as a batch of one.
func (c *udpConn) WriteTo(b []byte, to netip.AddrPort) error {
	d := [1]netapi.Datagram{{Buf: b, N: len(b), Addr: to}}
	_, err := c.WriteBatch(d[:])
	return err
}
