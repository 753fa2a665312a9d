//go:build !(linux && (amd64 || arm64))

package gen

import (
	"errors"
	"net/netip"
	"time"
)

// Supported reports whether this platform has the generator's sockets:
// per-datagram IP_PKTINFO sources and sendmmsg/recvmmsg exist only on Linux.
const Supported = false

// ErrUnsupported is returned by every socket operation on this platform.
var ErrUnsupported = errors.New("unsupported platform: the generator needs Linux IP_PKTINFO and sendmmsg/recvmmsg")

// Sock, Sender and Receiver are placeholders that keep the package
// building; OpenSock always fails, so none of their methods is ever reached.
type (
	Sock     struct{}
	Sender   struct{ Errors int }
	Receiver struct{}
)

func OpenSock(int, time.Duration) (*Sock, error) { return nil, ErrUnsupported }
func (s *Sock) Port() uint16                     { return 0 }
func (s *Sock) Close() error                     { return nil }
func (s *Sock) NewSender(netip.AddrPort) *Sender { return &Sender{} }
func (s *Sock) NewReceiver() *Receiver           { return &Receiver{} }
func (sn *Sender) Slot() []byte                  { return nil }
func (sn *Sender) Commit([]byte, uint32)         {}
func (sn *Sender) Flush()                        {}
func (r *Receiver) Recv(bool) (int, error)       { return 0, ErrUnsupported }
func (r *Receiver) Stamp(int) int64              { return 0 }
func (r *Receiver) Payload(int) []byte           { return nil }
func (r *Receiver) From(int) netip.AddrPort      { return netip.AddrPort{} }
func (r *Receiver) To(int) (uint32, bool)        { return 0, false }
func SleepUntil(start time.Time, t int64)        { time.Sleep(time.Duration(t) - time.Since(start)) }
func PrecisePacing() func()                      { return func() {} }
