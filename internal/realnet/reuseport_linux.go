//go:build linux && !mips && !mipsle && !mips64 && !mips64le

package realnet

import (
	"context"
	"net"
	"net/netip"
	"syscall"

	"dnsguard/internal/netapi"
)

// soReusePort is SO_REUSEPORT, absent from the frozen syscall package. The
// value is 15 on every Linux ABI except MIPS (excluded by build tag, where
// ListenUDPReuse binds one socket).
const soReusePort = 15

// listenReusePort binds n sockets to the same address with SO_REUSEPORT, so
// the kernel hashes inbound datagrams across them and each engine reader
// gets its own receive queue. When addr asks for an ephemeral port, the
// first bind picks it and the rest reuse it.
func (e *Env) listenReusePort(addr netip.AddrPort, n int) ([]netapi.UDPConn, error) {
	lc := net.ListenConfig{
		Control: func(network, address string, c syscall.RawConn) error {
			var serr error
			if err := c.Control(func(fd uintptr) {
				serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
			}); err != nil {
				return err
			}
			return serr
		},
	}
	target := bindAddr(addr)
	conns := make([]netapi.UDPConn, 0, n)
	for i := 0; i < n; i++ {
		pc, err := lc.ListenPacket(context.Background(), "udp", target)
		var c *udpConn
		if err == nil {
			c, err = newUDPConn(pc.(*net.UDPConn))
		}
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, mapErr(err)
		}
		conns = append(conns, c)
		if i == 0 {
			// Pin the ephemeral port the first bind chose.
			target = pc.LocalAddr().String()
		}
	}
	return conns, nil
}
