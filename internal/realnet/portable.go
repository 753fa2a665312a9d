//go:build !(linux && (amd64 || arm64))

// The portable build: every platform but Linux on amd64 and arm64 reaches
// its sockets through the net package, moves one datagram per syscall (a
// batch is a read loop) and binds no SO_REUSEPORT group, so it runs one
// shard.

package realnet

import (
	"errors"
	"io"
	"net"
	"net/netip"
	"os"
	"sync"
	"time"

	"dnsguard/internal/errs"
	"dnsguard/internal/netapi"
)

const reusePort = false

func listenUDP(addr netip.AddrPort, _ bool) (*udpConn, error) {
	conn, err := net.ListenUDP("udp", net.UDPAddrFromAddrPort(addr))
	if err != nil {
		return nil, errs.Wrap("realnet: "+err.Error(), err)
	}
	return &udpConn{conn: conn}, nil
}

// DialTCP implements netapi.Env.
func (e *Env) DialTCP(raddr netip.AddrPort) (netapi.Conn, error) {
	c, err := net.DialTimeout("tcp", raddr.String(), 10*time.Second)
	if err != nil {
		return nil, mapErr(err)
	}
	return &tcpConn{conn: c.(*net.TCPConn)}, nil
}

// ListenTCP implements netapi.Env.
func (e *Env) ListenTCP(addr netip.AddrPort) (netapi.Listener, error) {
	l, err := net.ListenTCP("tcp", net.TCPAddrFromAddrPort(addr))
	if err != nil {
		return nil, mapErr(err)
	}
	return &tcpListener{l: l}, nil
}

// pollGrace is the deadline of a zero-timeout (poll) call. A deadline of
// exactly now races the runtime's deadline timer against the poller's first
// non-blocking attempt — the timer usually wins, the syscall is never
// issued, and what is already buffered is unreachable through a poll (the
// netapi conformance suite pins it). A hair of grace guarantees one genuine
// attempt; an empty socket still turns the poll around within ~pollGrace.
const pollGrace = 200 * time.Microsecond

// deadline renders a netapi timeout as a net deadline.
func deadline(timeout time.Duration) time.Time {
	switch {
	case timeout < 0:
		return time.Time{}
	case timeout == 0:
		timeout = pollGrace
	}
	return time.Now().Add(timeout)
}

type udpConn struct {
	conn *net.UDPConn
	// readMu is held from a read's deadline to the read's end. A net read
	// deadline belongs to the socket, not the call: unguarded, a poll's
	// deadline would cut a concurrent blocking read short, and a blocking
	// reader's cleared deadline would turn a poll into a blocking read.
	readMu sync.Mutex
}

// SetReadBuffer sets the socket's kernel receive buffer (SO_RCVBUF).
// Optional capability probed by interface assertion; load generators raise
// it so burst absorption is bounded by the harness, not the distro default.
func (c *udpConn) SetReadBuffer(bytes int) error {
	return mapErr(c.conn.SetReadBuffer(bytes))
}

// readBufPool recycles the max-datagram scratch buffers every read takes a
// datagram into before it stores it in the caller's slot: the net package
// reads one datagram per call, and a short buffer would cut it. The 64 KiB
// scratch is reused across reads and across sockets.
var readBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, maxDatagram)
		return &b
	},
}

// ReadBatch implements netapi.UDPConn: one read under the caller's
// timeout, then polls for whatever else is already buffered, all under the
// socket's read lock. A poll that finds another reader holding it returns
// ErrTimeout at once, as the mmsg path's polls never wait; a timed read, in
// contrast, can wait behind a blocking one past its timeout.
func (c *udpConn) ReadBatch(msgs []netapi.Datagram, timeout time.Duration) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	if timeout != 0 {
		c.readMu.Lock()
	} else if !c.readMu.TryLock() {
		return 0, netapi.ErrTimeout
	}
	defer c.readMu.Unlock()
	scratch := readBufPool.Get().(*[]byte)
	defer readBufPool.Put(scratch)
	if err := c.readInto(*scratch, &msgs[0], timeout); err != nil {
		return 0, err
	}
	n := 1
	for n < len(msgs) && c.readInto(*scratch, &msgs[n], 0) == nil {
		n++
	}
	return n, nil
}

// readInto reads one datagram into scratch, which holds any UDP payload,
// and stores it in the slot under the slab contract (Datagram.Store).
func (c *udpConn) readInto(scratch []byte, d *netapi.Datagram, timeout time.Duration) error {
	if err := c.conn.SetReadDeadline(deadline(timeout)); err != nil {
		return mapErr(err)
	}
	n, src, err := c.conn.ReadFromUDPAddrPort(scratch)
	if err != nil {
		return mapErr(err)
	}
	d.Store(scratch[:n], unmap(src))
	return nil
}

// WriteBatch implements netapi.UDPConn, one datagram per syscall.
func (c *udpConn) WriteBatch(msgs []netapi.Datagram) (int, error) {
	for i := range msgs {
		if _, err := c.conn.WriteToUDPAddrPort(msgs[i].Payload(), msgs[i].Addr); err != nil {
			return i, mapErr(err)
		}
	}
	return len(msgs), nil
}

func (c *udpConn) LocalAddr() netip.AddrPort {
	return unmap(c.conn.LocalAddr().(*net.UDPAddr).AddrPort())
}

func (c *udpConn) Close() error { return c.conn.Close() }

type tcpConn struct {
	conn *net.TCPConn
}

func (c *tcpConn) Read(b []byte, timeout time.Duration) (int, error) {
	if err := c.conn.SetReadDeadline(deadline(timeout)); err != nil {
		return 0, mapErr(err)
	}
	n, err := c.conn.Read(b)
	return n, mapErr(err)
}

func (c *tcpConn) Write(b []byte) (int, error) {
	n, err := c.conn.Write(b)
	return n, mapErr(err)
}

func (c *tcpConn) Close() error { return c.conn.Close() }

func (c *tcpConn) LocalAddr() netip.AddrPort {
	return unmap(c.conn.LocalAddr().(*net.TCPAddr).AddrPort())
}

func (c *tcpConn) RemoteAddr() netip.AddrPort {
	return unmap(c.conn.RemoteAddr().(*net.TCPAddr).AddrPort())
}

type tcpListener struct {
	l *net.TCPListener
}

func (l *tcpListener) Accept(timeout time.Duration) (netapi.Conn, error) {
	if err := l.l.SetDeadline(deadline(timeout)); err != nil {
		return nil, mapErr(err)
	}
	c, err := l.l.AcceptTCP()
	if err != nil {
		return nil, mapErr(err)
	}
	return &tcpConn{conn: c}, nil
}

func (l *tcpListener) Addr() netip.AddrPort {
	return unmap(l.l.Addr().(*net.TCPAddr).AddrPort())
}

func (l *tcpListener) Close() error { return l.l.Close() }

// unmap normalizes 4-in-6 addresses so netip comparisons work.
func unmap(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// mapErr turns net's errors into netapi's: a clean close by the peer
// (io.EOF) is ErrClosed, as netapi.Conn promises.
func mapErr(err error) error {
	switch {
	case err == nil:
		return nil
	case os.IsTimeout(err):
		return netapi.ErrTimeout
	case errors.Is(err, net.ErrClosed), errors.Is(err, io.EOF):
		return netapi.ErrClosed
	default:
		var opErr *net.OpError
		if errors.As(err, &opErr) && opErr.Op == "dial" {
			return errs.Wrap(netapi.ErrRefused.Error()+": "+err.Error(), netapi.ErrRefused)
		}
		return err
	}
}
