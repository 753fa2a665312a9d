// netapi capability extension for the real network: multi-socket UDP ingest
// for the engine dataplane.
package realnet

import (
	"fmt"
	"net/netip"

	"dnsguard/internal/netapi"
)

var _ netapi.UDPReuseEnv = (*Env)(nil)

// ListenUDPReuse implements netapi.UDPReuseEnv: n sockets bound to addr with
// SO_REUSEPORT, so the kernel steers each flow to one of them
// (reuseport_linux.go), and one plain socket where the platform has no
// SO_REUSEPORT — one reader for all of the caller's shards. A reuse bind
// that fails where the option exists is an error.
func (e *Env) ListenUDPReuse(addr netip.AddrPort, n int) ([]netapi.UDPConn, error) {
	if n < 1 {
		return nil, fmt.Errorf("realnet: ListenUDPReuse: n must be >= 1, got %d", n)
	}
	if n == 1 {
		return e.listenOne(addr)
	}
	return e.listenReusePort(addr, n)
}

func (e *Env) listenOne(addr netip.AddrPort) ([]netapi.UDPConn, error) {
	c, err := e.ListenUDP(addr)
	if err != nil {
		return nil, err
	}
	return []netapi.UDPConn{c}, nil
}

// bindAddr renders addr for net.ListenConfig, treating the zero AddrPort as
// "any address, ephemeral port" like Env.ListenUDP does.
func bindAddr(addr netip.AddrPort) string {
	if !addr.Addr().IsValid() {
		return fmt.Sprintf(":%d", addr.Port())
	}
	return addr.String()
}
