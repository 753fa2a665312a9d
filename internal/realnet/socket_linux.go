//go:build linux && (amd64 || arm64)

// Sockets without the net package: each one is opened with syscall,
// non-blocking and close-on-exec, and handed to the runtime poller through
// os.NewFile, whose SyscallConn parks a caller the way net's sockets do. A
// daemon that imports no net links no cgo resolver, and with it no libc and
// no ld.so (DESIGN.md §19).

package realnet

import (
	"errors"
	"net/netip"
	"os"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"dnsguard/internal/errs"
	"dnsguard/internal/netapi"
)

const (
	// reusePort: ListenUDPReuse binds one SO_REUSEPORT socket per shard.
	reusePort = true
	// soReusePort is SO_REUSEPORT, absent from the frozen syscall package.
	soReusePort = 15
	// dialTimeout bounds a TCP connect.
	dialTimeout = 10 * time.Second
)

// sock is one socket on the runtime poller. Every call on it follows one
// rule (call): the syscall is tried once, and on EAGAIN a zero timeout
// answers ErrTimeout, a positive one parks until its deadline, and
// NoTimeout parks with no deadline armed.
type sock struct {
	f     *os.File
	rc    syscall.RawConn
	local netip.AddrPort
	armed [2]atomic.Bool // a deadline is set on the read [0] or write [1] side
}

// open puts fd, which must be non-blocking, on the poller.
func (s *sock) open(fd int) {
	s.f = os.NewFile(uintptr(fd), "socket")
	s.rc, _ = s.f.SyscallConn() // fails only for a nil File
}

// call runs fn on one side of the socket. fn makes one attempt per wakeup
// and reports what it made of it through attempt.settle.
func (s *sock) call(write bool, timeout time.Duration, fn func(fd uintptr) bool) error {
	var err error
	armed := &s.armed[0]
	if write {
		armed = &s.armed[1]
	}
	if timeout > 0 || armed.Load() {
		var dl time.Time
		if timeout > 0 {
			dl = time.Now().Add(timeout)
		}
		armed.Store(timeout > 0)
		if write {
			err = s.f.SetWriteDeadline(dl)
		} else {
			err = s.f.SetReadDeadline(dl)
		}
	}
	if err == nil && write {
		err = s.rc.Write(fn)
	} else if err == nil {
		err = s.rc.Read(fn)
	}
	switch {
	case err == nil:
		return nil
	case errors.Is(err, os.ErrDeadlineExceeded):
		return netapi.ErrTimeout
	}
	return netapi.ErrClosed // all else the poller reports is a closed file
}

func (s *sock) LocalAddr() netip.AddrPort { return s.local }

func (s *sock) Close() error { return s.f.Close() }

// attempt is what one call shares with the callback the poller runs: poll
// (a zero timeout) and the error that ended the call.
type attempt struct {
	poll bool
	err  error
}

// settle reports whether the callback is done after errno: EAGAIN parks
// unless the call polls, and anything but success is the call's error.
// Callbacks retry EINTR themselves.
func (a *attempt) settle(op string, errno syscall.Errno) bool {
	switch {
	case errno == 0:
		return true
	case errno != syscall.EAGAIN:
		a.err = os.NewSyscallError(op, errno)
	case !a.poll:
		return false
	default:
		a.err = netapi.ErrTimeout
	}
	return true
}

// socket opens a non-blocking, close-on-exec socket: IPv6 with IPV6_V6ONLY
// off, as net leaves it, when is6, else IPv4.
func socket(typ int, is6 bool) (int, error) {
	family := syscall.AF_INET
	if is6 {
		family = syscall.AF_INET6
	}
	fd, err := syscall.Socket(family, typ|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
	if err == nil && is6 {
		if err = syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, 0); err != nil {
			syscall.Close(fd)
		}
	}
	return fd, err
}

// listen binds s to addr with the socket option opt (SO_REUSEPORT,
// SO_REUSEADDR; 0 for none) set first, and listens when typ is a stream.
// An unspecified or zero address is net's dual-stack wildcard: IPv6, or
// IPv4 on a host without it.
func (s *sock) listen(typ int, addr netip.AddrPort, opt int) (is6 bool, err error) {
	a := addr.Addr()
	wild := !a.IsValid() || a.IsUnspecified()
	is6 = wild || !a.Unmap().Is4()
	fd, err := socket(typ, is6)
	if err == syscall.EAFNOSUPPORT && wild {
		is6 = false
		fd, err = socket(typ, false)
	}
	if err != nil {
		return false, errs.Wrap("realnet: socket: "+err.Error(), err)
	}
	if opt != 0 {
		err = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, opt, 1)
	}
	if err == nil {
		err = syscall.Bind(fd, sockaddr(addr, is6))
	}
	if err == nil && typ == syscall.SOCK_STREAM {
		err = syscall.Listen(fd, 0xffff) // the kernel caps it at somaxconn, net's figure
	}
	if err != nil {
		syscall.Close(fd)
		return false, errs.Wrap("realnet: bind "+addr.String()+": "+err.Error(), err)
	}
	s.open(fd)
	s.local = localAddr(fd)
	return is6, nil
}

func sockaddr(ap netip.AddrPort, is6 bool) syscall.Sockaddr {
	if is6 {
		return &syscall.SockaddrInet6{Port: int(ap.Port()), Addr: ap.Addr().As16()}
	}
	sa := &syscall.SockaddrInet4{Port: int(ap.Port())}
	if a := ap.Addr().Unmap(); a.Is4() {
		sa.Addr = a.As4()
	}
	return sa
}

// localAddr is the address fd is bound to, read into a raw sockaddr and
// decoded in place: no syscall.Sockaddr is allocated.
func localAddr(fd int) netip.AddrPort {
	var sa syscall.RawSockaddrAny
	n := uint32(syscall.SizeofSockaddrAny)
	syscall.RawSyscall(syscall.SYS_GETSOCKNAME, uintptr(fd), uintptr(unsafe.Pointer(&sa)), uintptr(unsafe.Pointer(&n)))
	return anyToAddrPort(&sa)
}

type udpConn struct {
	sock
	is6        bool // IPv4 destinations go out as 4-in-6 sockaddrs
	recv, send mmsgState
}

func listenUDP(addr netip.AddrPort, reuse bool) (*udpConn, error) {
	opt := 0
	if reuse {
		opt = soReusePort
	}
	c := new(udpConn)
	var err error
	if c.is6, err = c.listen(syscall.SOCK_DGRAM, addr, opt); err != nil {
		return nil, err
	}
	return c, nil
}

// SetReadBuffer sets the socket's kernel receive buffer (SO_RCVBUF).
// Optional capability probed by interface assertion; load generators raise
// it so burst absorption is bounded by the harness, not the distro default.
func (c *udpConn) SetReadBuffer(bytes int) error {
	var err error
	if cerr := c.rc.Control(func(fd uintptr) {
		err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, bytes)
	}); cerr != nil {
		return netapi.ErrClosed
	}
	return err
}

// DialTCP implements netapi.Env.
func (e *Env) DialTCP(raddr netip.AddrPort) (netapi.Conn, error) {
	is6 := !raddr.Addr().Unmap().Is4()
	fd, err := socket(syscall.SOCK_STREAM, is6)
	if err != nil {
		return nil, errs.Wrap("realnet: socket: "+err.Error(), err)
	}
	c := newTCPConn(fd, raddr)
	var a attempt
	started := false
	err = c.call(true, dialTimeout, func(fd uintptr) bool {
		if !started { // connect once; it goes on in the kernel past EINPROGRESS and EINTR
			started = true
			errno, _ := syscall.Connect(int(fd), sockaddr(raddr, is6)).(syscall.Errno)
			if errno == syscall.EINPROGRESS || errno == syscall.EINTR {
				return false
			}
			return a.settle("connect", errno)
		}
		v, err := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_ERROR)
		switch errno := syscall.Errno(v); {
		case err != nil:
			errno, _ = err.(syscall.Errno)
			return a.settle("getsockopt", errno)
		case errno == 0:
			_, err := syscall.Getpeername(int(fd)) // the poller wakes spuriously: connected yet?
			return err == nil
		case errno == syscall.EINPROGRESS || errno == syscall.EALREADY || errno == syscall.EINTR:
			return false
		default:
			return a.settle("connect", errno)
		}
	})
	if err == nil {
		err = a.err
	}
	if err == nil {
		c.local = localAddr(fd)
		return c, nil
	}
	c.Close()
	if errors.Is(err, netapi.ErrTimeout) {
		return nil, errs.Wrap("realnet: connect "+raddr.String()+": "+err.Error(), err)
	}
	return nil, errs.Wrap(netapi.ErrRefused.Error()+": connect "+raddr.String()+": "+err.Error(), netapi.ErrRefused)
}

// ListenTCP implements netapi.Env.
func (e *Env) ListenTCP(addr netip.AddrPort) (netapi.Listener, error) {
	l := new(tcpListener)
	if _, err := l.listen(syscall.SOCK_STREAM, addr, syscall.SO_REUSEADDR); err != nil {
		return nil, err
	}
	return l, nil
}

type tcpListener struct{ sock }

func (l *tcpListener) Addr() netip.AddrPort { return l.local }

func (l *tcpListener) Accept(timeout time.Duration) (netapi.Conn, error) {
	var nfd int
	var sa syscall.RawSockaddrAny // the peer, decoded in place as a read's source is
	a := attempt{poll: timeout == 0}
	err := l.call(false, timeout, func(fd uintptr) bool {
		for {
			n := uint32(syscall.SizeofSockaddrAny)
			r1, _, errno := syscall.Syscall6(syscall.SYS_ACCEPT4, fd, uintptr(unsafe.Pointer(&sa)),
				uintptr(unsafe.Pointer(&n)), syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0, 0)
			if errno != syscall.EINTR && errno != syscall.ECONNABORTED {
				nfd = int(r1)
				return a.settle("accept4", errno)
			}
		}
	})
	if err == nil {
		err = a.err
	}
	if err != nil {
		return nil, err
	}
	c := newTCPConn(nfd, anyToAddrPort(&sa))
	c.local = localAddr(nfd)
	return c, nil
}

// tcpConn is one stream: one reader and one writer at a time, each with a
// callback bound once, so a steady-state Read or Write allocates nothing.
// Like net, it sets TCP_NODELAY; unlike net, no keep-alive: every stream
// here lives under a duration cap.
type tcpConn struct {
	sock
	remote netip.AddrPort
	rd, wr stream
}

type stream struct {
	attempt
	fn func(fd uintptr) bool
	b  []byte
	n  int
}

func newTCPConn(fd int, remote netip.AddrPort) *tcpConn {
	_ = syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1)
	c := &tcpConn{remote: remote}
	c.open(fd)
	c.rd.fn, c.wr.fn = c.rd.read, c.wr.write
	return c
}

func (c *tcpConn) RemoteAddr() netip.AddrPort { return c.remote }

// Read implements netapi.Conn: the peer's FIN, once the bytes before it are
// read, is ErrClosed.
func (c *tcpConn) Read(b []byte, timeout time.Duration) (int, error) {
	if len(b) == 0 {
		return 0, nil
	}
	st := &c.rd
	st.b, st.n, st.attempt = b, 0, attempt{poll: timeout == 0}
	err := c.call(false, timeout, st.fn)
	st.b = nil
	switch {
	case err != nil:
		return 0, err
	case st.err != nil:
		return 0, st.err
	case st.n == 0:
		return 0, netapi.ErrClosed
	}
	return st.n, nil
}

// Write implements netapi.Conn: all of b, or the error that stopped it.
func (c *tcpConn) Write(b []byte) (int, error) {
	st := &c.wr
	st.b, st.n, st.attempt = b, 0, attempt{}
	err := c.call(true, netapi.NoTimeout, st.fn)
	st.b = nil
	if err == nil {
		err = st.err
	}
	return st.n, err
}

func (st *stream) read(fd uintptr) bool {
	for {
		n, err := syscall.Read(int(fd), st.b)
		if errno, _ := err.(syscall.Errno); errno != syscall.EINTR {
			st.n = max(n, 0)
			return st.settle("read", errno)
		}
	}
}

func (st *stream) write(fd uintptr) bool {
	for st.n < len(st.b) {
		n, err := syscall.Write(int(fd), st.b[st.n:])
		if errno, _ := err.(syscall.Errno); errno != 0 {
			if errno != syscall.EINTR {
				return st.settle("write", errno)
			}
			continue
		}
		st.n += n
	}
	return true
}
