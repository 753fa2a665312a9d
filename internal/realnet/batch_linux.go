//go:build linux && (amd64 || arm64)

// Linux mmsg path: one recvmmsg/sendmmsg kernel crossing moves a whole slab
// of datagrams. Raw syscall.Syscall6 against the stdlib syscall numbers,
// run through the socket's poller callbacks (socket_linux.go). Gated to
// amd64/arm64, where syscall.Msghdr's layout (8-byte pointers, uint64
// iovlen) matches the kernel's struct mmsghdr stride of 64 bytes with one
// trailing uint32.

package realnet

import (
	"errors"
	"net/netip"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"dnsguard/internal/netapi"
)

// mmsghdr mirrors the kernel's struct mmsghdr: a msghdr plus the per-message
// byte count the kernel writes back. The explicit pad fixes the 64-byte
// array stride the kernel walks.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// mmsgState is what one direction of a socket points the kernel at: header
// array, sockaddr array, two iovecs per message (a read's head and spill; a
// write uses the first), plus the poller callback and the fields it
// communicates through. The callback is built once, so a steady-state batch
// call allocates nothing.
type mmsgState struct {
	mu    sync.Mutex
	hdrs  []mmsghdr
	names []syscall.RawSockaddrAny
	iovs  [][2]syscall.Iovec

	attempt
	call func(fd uintptr) bool // recvmmsg or sendmmsg, bound on first use
	n    int                   // messages in this call
	done int                   // messages the kernel moved
}

// acquire locks the socket's cached state for one call, sized for n
// messages. A second caller on the same socket and direction at the same
// time (shards flushing replies through one socket, several procs reading
// one) gets a private state instead of waiting for the first one's
// call, which may be parked in the netpoller, to end.
func (st *mmsgState) acquire(n int) *mmsgState {
	if !st.mu.TryLock() {
		st = new(mmsgState)
		st.mu.Lock()
	}
	if cap(st.hdrs) < n {
		st.hdrs = make([]mmsghdr, n)
		st.names = make([]syscall.RawSockaddrAny, n)
		st.iovs = make([][2]syscall.Iovec, n)
	}
	st.hdrs, st.names, st.iovs = st.hdrs[:n], st.names[:n], st.iovs[:n]
	st.n, st.done, st.attempt = n, 0, attempt{}
	return st
}

func (st *mmsgState) recvmmsg(fd uintptr) bool {
	for {
		r1, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&st.hdrs[0])), uintptr(st.n),
			syscall.MSG_DONTWAIT, 0, 0)
		if errno != syscall.EINTR {
			if errno == 0 {
				st.done = int(r1)
			}
			return st.settle("recvmmsg", errno)
		}
	}
}

func (st *mmsgState) sendmmsg(fd uintptr) bool {
	for st.done < st.n {
		r1, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&st.hdrs[st.done])), uintptr(st.n-st.done),
			syscall.MSG_DONTWAIT, 0, 0)
		switch {
		case errno == syscall.EINTR:
		case errno == 0 && r1 == 0:
			return false // nothing went: wait for room
		case errno != 0:
			return st.settle("sendmmsg", errno)
		default:
			st.done += int(r1)
		}
	}
	return true
}

// ReadBatch implements netapi.UDPConn: the whole slab in one recvmmsg.
// Each message scatters into its slot's head and then the spill past the
// head's length, so a datagram that fits the head writes no spill byte; one
// that does not has its head copied to the front of the spill.
func (c *udpConn) ReadBatch(msgs []netapi.Datagram, timeout time.Duration) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	st := c.recv.acquire(len(msgs))
	defer st.mu.Unlock()
	if st.call == nil {
		st.call = st.recvmmsg
	}
	for i := range msgs {
		d := &msgs[i]
		if cap(d.Buf) == 0 && cap(d.Spill) == 0 {
			d.Buf = make([]byte, maxDatagram)
		}
		head := d.Buf[:cap(d.Buf)]
		iov := &st.iovs[i]
		iov[0] = syscall.Iovec{Base: unsafe.SliceData(head), Len: uint64(len(head))}
		iovlen := uint64(1)
		if cap(d.Spill) > len(head) {
			tail := d.Spill[len(head):cap(d.Spill)]
			iov[1] = syscall.Iovec{Base: &tail[0], Len: uint64(len(tail))}
			iovlen = 2
		}
		st.names[i] = syscall.RawSockaddrAny{}
		st.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&st.names[i])),
			Namelen: syscall.SizeofSockaddrAny,
			Iov:     &iov[0],
			Iovlen:  iovlen,
		}}
	}
	st.poll = timeout == 0
	if err := c.call(false, timeout, st.call); err != nil {
		return 0, err
	}
	if st.err != nil {
		return 0, st.err
	}
	for i := 0; i < st.done; i++ {
		d := &msgs[i]
		n, head := int(st.hdrs[i].n), cap(d.Buf)
		if n > head {
			copy(d.Spill[:head], d.Buf[:head])
		}
		d.Buf = d.Buf[:min(n, head)]
		d.N = n
		d.Addr = anyToAddrPort(&st.names[i])
	}
	return st.done, nil
}

// WriteBatch implements netapi.UDPConn: the whole slab in one sendmmsg,
// more only when the socket buffer fills.
func (c *udpConn) WriteBatch(msgs []netapi.Datagram) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	st := c.send.acquire(len(msgs))
	defer st.mu.Unlock()
	if st.call == nil {
		st.call = st.sendmmsg
	}
	for i := range msgs {
		d := &msgs[i]
		nameLen, err := putSockaddr(&st.names[i], d.Addr, c.is6)
		if err != nil {
			return 0, err
		}
		p := d.Payload()
		st.iovs[i][0] = syscall.Iovec{Base: unsafe.SliceData(p), Len: uint64(len(p))}
		st.hdrs[i] = mmsghdr{hdr: syscall.Msghdr{
			Name:    (*byte)(unsafe.Pointer(&st.names[i])),
			Namelen: nameLen,
			Iov:     &st.iovs[i][0],
			Iovlen:  1,
		}}
	}
	if err := c.call(true, netapi.NoTimeout, st.call); err != nil {
		return st.done, err
	}
	return st.done, st.err
}

// putSockaddr renders dst into sa in the family the socket speaks and
// returns the sockaddr length.
func putSockaddr(sa *syscall.RawSockaddrAny, dst netip.AddrPort, is6 bool) (uint32, error) {
	addr := dst.Addr()
	if !addr.IsValid() {
		return 0, errors.New("realnet: invalid destination " + dst.String())
	}
	if is6 {
		sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		*sa6 = syscall.RawSockaddrInet6{Family: syscall.AF_INET6, Addr: addr.As16()}
		p := (*[2]byte)(unsafe.Pointer(&sa6.Port))
		p[0], p[1] = byte(dst.Port()>>8), byte(dst.Port())
		return syscall.SizeofSockaddrInet6, nil
	}
	if !addr.Unmap().Is4() {
		return 0, errors.New("realnet: IPv6 destination " + dst.String() + " on IPv4 socket")
	}
	sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
	*sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET, Addr: addr.Unmap().As4()}
	p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
	p[0], p[1] = byte(dst.Port()>>8), byte(dst.Port())
	return syscall.SizeofSockaddrInet4, nil
}

// anyToAddrPort decodes the kernel-filled source sockaddr; 4-in-6 sources
// are unmapped like every other realnet address.
func anyToAddrPort(sa *syscall.RawSockaddrAny) netip.AddrPort {
	switch sa.Addr.Family {
	case syscall.AF_INET:
		sa4 := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&sa4.Port))
		return netip.AddrPortFrom(netip.AddrFrom4(sa4.Addr), uint16(p[0])<<8|uint16(p[1]))
	case syscall.AF_INET6:
		sa6 := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
		p := (*[2]byte)(unsafe.Pointer(&sa6.Port))
		return netip.AddrPortFrom(netip.AddrFrom16(sa6.Addr).Unmap(), uint16(p[0])<<8|uint16(p[1]))
	}
	return netip.AddrPort{}
}
