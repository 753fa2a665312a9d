//go:build !linux || mips || mipsle || mips64 || mips64le

package realnet

import (
	"net/netip"

	"dnsguard/internal/netapi"
)

// listenReusePort binds one plain socket: without SO_REUSEPORT nothing
// steers a flow to one of several.
func (e *Env) listenReusePort(addr netip.AddrPort, _ int) ([]netapi.UDPConn, error) {
	return e.listenOne(addr)
}
