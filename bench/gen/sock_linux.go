//go:build linux && (amd64 || arm64)

package gen

import (
	"net/netip"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Supported reports whether this platform has the generator's sockets.
const Supported = true

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit Linux: a msghdr and
// the byte count the kernel writes back, padded to the 64-byte array stride.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// ctrlSize is the control buffer for one IP_PKTINFO message; a received
// datagram carries a kernel timestamp beside it.
var (
	ctrlSize   = syscall.CmsgSpace(syscall.SizeofInet4Pktinfo)
	rxCtrlSize = ctrlSize + syscall.CmsgSpace(int(unsafe.Sizeof(syscall.Timespec{})))
)

// Sock is a UDP socket bound to the IPv4 wildcard. Every datagram it sends
// names its own source address through an IP_PKTINFO control message
// (ipi_spec_dst); all of 127.0.0.0/8 is local on Linux, so one socket stands
// in for any number of loopback sources. Replies to any of those addresses
// come back to the same socket, each reporting the address it was sent to.
type Sock struct {
	fd   int
	port uint16
}

// OpenSock binds a socket with the given receive buffer (the kernel clamps
// it to its own minimum and to rmem_max) and a receive timeout, so a reader
// blocked on an idle socket notices a stop request.
func OpenSock(rcvbuf int, rcvTimeout time.Duration) (*Sock, error) {
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_DGRAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, os.NewSyscallError("socket", err)
	}
	fail := func(op string, err error) (*Sock, error) {
		_ = syscall.Close(fd)
		return nil, os.NewSyscallError(op, err)
	}
	if err := syscall.SetsockoptInt(fd, syscall.IPPROTO_IP, syscall.IP_PKTINFO, 1); err != nil {
		return fail("setsockopt IP_PKTINFO", err)
	}
	if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1); err != nil {
		return fail("setsockopt SO_TIMESTAMPNS", err)
	}
	if err := syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_RCVBUF, rcvbuf); err != nil {
		return fail("setsockopt SO_RCVBUF", err)
	}
	if rcvTimeout > 0 {
		tv := syscall.NsecToTimeval(int64(rcvTimeout))
		if err := syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv); err != nil {
			return fail("setsockopt SO_RCVTIMEO", err)
		}
	}
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{}); err != nil {
		return fail("bind", err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		return fail("getsockname", err)
	}
	in4, ok := sa.(*syscall.SockaddrInet4)
	if !ok {
		return fail("getsockname", syscall.EAFNOSUPPORT)
	}
	return &Sock{fd: fd, port: uint16(in4.Port)}, nil
}

// Port is the socket's bound port — the source port of every datagram.
func (s *Sock) Port() uint16 { return s.port }

// Close releases the socket.
func (s *Sock) Close() error { return syscall.Close(s.fd) }

// Sender queues datagrams and flushes them with sendmmsg. A Sender belongs
// to one goroutine; several Senders may share a Sock.
type Sender struct {
	sock *Sock
	dst  syscall.RawSockaddrInet4
	hdrs []mmsghdr
	iovs []syscall.Iovec
	bufs []byte
	ctrl []byte
	n    int

	// Errors counts datagrams the kernel refused.
	Errors int
}

// NewSender prepares a sender of datagrams to dst.
func (s *Sock) NewSender(dst netip.AddrPort) *Sender {
	sn := &Sender{
		sock: s,
		hdrs: make([]mmsghdr, batchMax),
		iovs: make([]syscall.Iovec, batchMax),
		bufs: make([]byte, batchMax*slotSize),
		ctrl: make([]byte, batchMax*ctrlSize),
	}
	sn.dst.Family = syscall.AF_INET
	sn.dst.Addr = dst.Addr().As4()
	p := dst.Port()
	sn.dst.Port = p<<8 | p>>8 // network byte order
	for i := range sn.hdrs {
		c := sn.ctrl[i*ctrlSize : (i+1)*ctrlSize]
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&c[0]))
		h.Level = syscall.IPPROTO_IP
		h.Type = syscall.IP_PKTINFO
		h.SetLen(syscall.CmsgLen(syscall.SizeofInet4Pktinfo))
		sn.iovs[i].Base = &sn.bufs[i*slotSize]
		sn.hdrs[i].hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&sn.dst)),
			Namelen: syscall.SizeofSockaddrInet4,
			Iov:     &sn.iovs[i],
			Iovlen:  1,
			Control: &c[0],
		}
		sn.hdrs[i].hdr.SetControllen(ctrlSize)
	}
	return sn
}

// Slot returns the next datagram's payload buffer (length 0, capacity
// slotSize), flushing first when the batch is full. The caller appends the
// wire and passes the result to Commit.
func (sn *Sender) Slot() []byte {
	if sn.n == batchMax {
		sn.Flush()
	}
	return sn.bufs[sn.n*slotSize : sn.n*slotSize : (sn.n+1)*slotSize]
}

// Commit queues the datagram built in the last Slot, to be sent from src.
func (sn *Sender) Commit(payload []byte, src uint32) {
	i := sn.n
	sn.iovs[i].SetLen(len(payload))
	c := sn.ctrl[i*ctrlSize : (i+1)*ctrlSize]
	pi := (*syscall.Inet4Pktinfo)(unsafe.Pointer(&c[syscall.CmsgLen(0)]))
	*pi = syscall.Inet4Pktinfo{Spec_dst: addr4(src)}
	sn.n++
}

// Flush sends everything queued. sendmmsg may stop early; the remainder is
// retried, and a datagram the kernel rejects outright is counted and skipped.
//
// The call is a RawSyscall, as are the non-blocking receive and the pacing
// sleep: the runtime's bookkeeping for a syscall that might block — hand the
// P to another thread, wake it, take a P back afterwards — costs more CPU
// here than the calls themselves (measured: 64 µs against 25 µs per paced
// tick), on the core the generator shares with ansd. None of the three
// blocks for longer than a tick, so holding the P that long is harmless.
func (sn *Sender) Flush() {
	off := 0
	for off < sn.n {
		r, _, errno := syscall.RawSyscall6(sysSENDMMSG, uintptr(sn.sock.fd),
			uintptr(unsafe.Pointer(&sn.hdrs[off])), uintptr(sn.n-off), 0, 0, 0)
		switch {
		case errno == syscall.EINTR:
		case errno != 0:
			sn.Errors++
			off++
		default:
			off += int(r)
		}
	}
	runtime.KeepAlive(sn)
	sn.n = 0
}

// Receiver reads datagrams with recvmmsg. A Receiver belongs to one
// goroutine.
type Receiver struct {
	sock  *Sock
	hdrs  []mmsghdr
	iovs  []syscall.Iovec
	names []syscall.RawSockaddrInet4
	bufs  []byte
	ctrl  []byte
}

// NewReceiver prepares a receiver.
func (s *Sock) NewReceiver() *Receiver {
	r := &Receiver{
		sock:  s,
		hdrs:  make([]mmsghdr, batchMax),
		iovs:  make([]syscall.Iovec, batchMax),
		names: make([]syscall.RawSockaddrInet4, batchMax),
		bufs:  make([]byte, batchMax*slotSize),
		ctrl:  make([]byte, batchMax*rxCtrlSize),
	}
	for i := range r.iovs {
		r.iovs[i].Base = &r.bufs[i*slotSize]
		r.iovs[i].SetLen(slotSize)
	}
	return r
}

// Recv returns the datagrams already queued, up to batchMax. With wait it
// first blocks for one (up to the socket's receive timeout); n is 0 when
// nothing came.
func (r *Receiver) Recv(wait bool) (n int, err error) {
	flags := uintptr(syscall.MSG_DONTWAIT)
	if wait {
		flags = msgWaitForOne
	}
	for i := range r.hdrs {
		r.hdrs[i].hdr = syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&r.names[i])),
			Namelen: syscall.SizeofSockaddrInet4,
			Iov:     &r.iovs[i],
			Iovlen:  1,
			Control: &r.ctrl[i*rxCtrlSize],
		}
		r.hdrs[i].hdr.SetControllen(rxCtrlSize)
	}
	for {
		var got uintptr
		var errno syscall.Errno
		if wait {
			got, _, errno = syscall.Syscall6(syscall.SYS_RECVMMSG, uintptr(r.sock.fd),
				uintptr(unsafe.Pointer(&r.hdrs[0])), batchMax, flags, 0, 0)
		} else {
			got, _, errno = syscall.RawSyscall6(syscall.SYS_RECVMMSG, uintptr(r.sock.fd),
				uintptr(unsafe.Pointer(&r.hdrs[0])), batchMax, flags, 0, 0)
		}
		switch errno {
		case 0:
			return int(got), nil
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return 0, nil
		default:
			return 0, os.NewSyscallError("recvmmsg", errno)
		}
	}
}

// Payload is datagram i of the last Recv.
func (r *Receiver) Payload(i int) []byte {
	return r.bufs[i*slotSize : i*slotSize+int(r.hdrs[i].n)]
}

// From is the sender of datagram i.
func (r *Receiver) From(i int) netip.AddrPort {
	p := r.names[i].Port
	return netip.AddrPortFrom(netip.AddrFrom4(r.names[i].Addr), p<<8|p>>8)
}

// cmsg returns the data of datagram i's control message of the given level
// and type, at least size bytes long, or nil.
func (r *Receiver) cmsg(i int, level, typ int32, size int) []byte {
	c := r.ctrl[i*rxCtrlSize : i*rxCtrlSize+int(r.hdrs[i].hdr.Controllen)]
	for len(c) >= syscall.CmsgLen(0) {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&c[0]))
		l := int(h.Len)
		if l < syscall.CmsgLen(0) || l > len(c) {
			return nil
		}
		if h.Level == level && h.Type == typ && l >= syscall.CmsgLen(size) {
			return c[syscall.CmsgLen(0):l]
		}
		next := syscall.CmsgSpace(l - syscall.CmsgLen(0))
		if next > len(c) {
			return nil
		}
		c = c[next:]
	}
	return nil
}

// To is the address datagram i was sent to — which of this socket's claimed
// sources the reply was for — from the IP_PKTINFO control message.
func (r *Receiver) To(i int) (uint32, bool) {
	d := r.cmsg(i, syscall.IPPROTO_IP, syscall.IP_PKTINFO, syscall.SizeofInet4Pktinfo)
	if d == nil {
		return 0, false
	}
	return addrU32((*syscall.Inet4Pktinfo)(unsafe.Pointer(&d[0])).Addr), true
}

// Stamp is when datagram i reached the socket, as wall-clock nanoseconds
// from the kernel (SO_TIMESTAMPNS), or 0 when the kernel sent none.
func (r *Receiver) Stamp(i int) int64 {
	d := r.cmsg(i, syscall.SOL_SOCKET, syscall.SCM_TIMESTAMPNS, int(unsafe.Sizeof(syscall.Timespec{})))
	if d == nil {
		return 0
	}
	return syscall.TimespecToNsec(*(*syscall.Timespec)(unsafe.Pointer(&d[0])))
}

// msgWaitForOne is MSG_WAITFORONE: block for one datagram, then return what
// is queued without waiting to fill the vector.
const msgWaitForOne = 0x10000

// SleepUntil parks the calling thread until the monotonic offset t (ns from
// start) with nanosleep; the Go timer wheel's coarser wake-ups would show
// up as generator lateness on every tick. Callers sleep a tick at most (see
// Flush on why this is a RawSyscall).
func SleepUntil(start time.Time, t int64) {
	// A signal (the runtime's preemption tick among them) ends nanosleep
	// early; sleep again for what is left rather than run a tick ahead of time.
	for {
		d := t - int64(time.Since(start))
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_, _, _ = syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
	}
}

// PrecisePacing locks the calling goroutine to its thread and shrinks the
// thread's timer slack (default 50 µs) so SleepUntil wakes close to its
// deadline. It returns the undo.
func PrecisePacing() func() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerslack, 1000, 0)
	return runtime.UnlockOSThread
}
