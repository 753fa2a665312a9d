// Package netsim is a deterministic discrete-event network simulator built on
// internal/vclock. It models hosts with IPv4/IPv6 addresses, point-to-point
// latency, probabilistic loss, bounded receive queues (tail drop), serialized
// per-host CPUs, and transparent middleboxes that claim address space —
// exactly the facilities the DNS Guard paper's testbed provides in hardware.
//
// Each Host implements netapi.Env, so servers, resolvers, and guards written
// against that interface run inside the simulation unmodified. Source-address
// spoofing (required to reproduce the paper's attacks) is available through
// Host.SendRaw, which injects a datagram with an arbitrary source address.
package netsim

import (
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"time"

	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
	"dnsguard/internal/vclock"
)

// Protocol numbers used on the simulated wire.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// DefaultQueueCap bounds a socket or tap receive queue unless overridden.
// Overflowing datagrams are tail-dropped, like a kernel socket buffer.
const DefaultQueueCap = 512

// Network is a set of hosts connected by configurable links, all sharing one
// virtual clock.
type Network struct {
	sched      *vclock.Scheduler
	hosts      []*Host
	native     map[netip.Addr]*Host
	claims     []claim
	defLatency time.Duration
	latency    map[hostPair]time.Duration
	loss       map[hostPair]float64
	faults     map[hostPair]Faults
	defFaults  Faults
	parts      map[hostPair]bool
	linkStats  map[hostPair]*LinkStats

	// Stats counts network-wide events.
	Stats NetStats
}

type claim struct {
	prefix netip.Prefix
	host   *Host
}

type hostPair struct{ a, b *Host }

// NetStats aggregates network-level counters.
type NetStats struct {
	Sent           uint64 // datagrams/segments submitted
	Delivered      uint64 // handed to a socket, tap, or protocol handler
	Lost           uint64 // dropped by link loss (SetLoss or Faults.Loss)
	NoRoute        uint64 // no host owns the destination address
	NoSocket       uint64 // host had no matching socket/tap/handler
	Duplicated     uint64 // extra copies injected by Faults.Duplicate
	Reordered      uint64 // datagrams delayed past later traffic
	Corrupted      uint64 // payloads bit-flipped (UDP) or CRC-dropped
	PartitionDrops uint64 // dropped on a partitioned link
}

// NetStatsNames names NetStats' fields in order (netsim_*).
var NetStatsNames = []string{
	"sent", "delivered", "lost", "no_route", "no_socket", "duplicated",
	"reordered", "corrupted", "partition_drops",
}

// MetricsInto registers network-wide counters as netsim_* series. The
// simulator is cooperatively scheduled (one real goroutine at a time), so
// plain reads are safe; snapshot between vclock runs, not during one.
func (n *Network) MetricsInto(r *metrics.Registry) {
	metrics.RegisterUint64Fields(r, "netsim_", NetStatsNames, func() NetStats { return n.Stats })
}

// New creates an empty network on sched with a default one-way link latency.
func New(sched *vclock.Scheduler, defaultOneWayLatency time.Duration) *Network {
	return &Network{
		sched:      sched,
		native:     make(map[netip.Addr]*Host),
		latency:    make(map[hostPair]time.Duration),
		loss:       make(map[hostPair]float64),
		faults:     make(map[hostPair]Faults),
		parts:      make(map[hostPair]bool),
		linkStats:  make(map[hostPair]*LinkStats),
		defLatency: defaultOneWayLatency,
	}
}

// Scheduler returns the virtual-time scheduler driving this network.
func (n *Network) Scheduler() *vclock.Scheduler { return n.sched }

// AddHost creates a host owning the given addresses.
func (n *Network) AddHost(name string, ips ...netip.Addr) *Host {
	h := &Host{
		net:      n,
		name:     name,
		ips:      append([]netip.Addr(nil), ips...),
		udp:      make(map[netip.AddrPort]*UDPConn),
		ports:    make(map[uint16]int),
		protos:   make(map[uint8]ProtoHandler),
		nextPort: 49152,
		queueCap: DefaultQueueCap,
		cpu:      newCPU(n.sched),
	}
	for _, ip := range ips {
		if other, ok := n.native[ip]; ok {
			panic(fmt.Sprintf("netsim: address %v already owned by %s", ip, other.name))
		}
		n.native[ip] = h
	}
	n.hosts = append(n.hosts, h)
	return h
}

// SetLatency sets the symmetric one-way latency between two hosts.
func (n *Network) SetLatency(a, b *Host, oneWay time.Duration) {
	n.latency[hostPair{a, b}] = oneWay
	n.latency[hostPair{b, a}] = oneWay
}

// SetLoss sets the directional loss probability for datagrams from a to b.
func (n *Network) SetLoss(a, b *Host, rate float64) {
	n.loss[hostPair{a, b}] = rate
}

func (n *Network) latencyBetween(a, b *Host) time.Duration {
	if a == b {
		return 0
	}
	if d, ok := n.latency[hostPair{a, b}]; ok {
		return d
	}
	return n.defLatency
}

func (n *Network) lossBetween(a, b *Host) float64 {
	return n.loss[hostPair{a, b}]
}

// ownerOf resolves the host that receives traffic for addr: explicit claims
// (longest prefix first; later claims win ties, the way a replacement box
// takes over an address) take precedence over native ownership, which is
// how a guard middlebox transparently captures its ANS's address space.
func (n *Network) ownerOf(addr netip.Addr) *Host {
	var best *Host
	bestBits := -1
	for _, c := range n.claims {
		if c.prefix.Contains(addr) && c.prefix.Bits() >= bestBits {
			best, bestBits = c.host, c.prefix.Bits()
		}
	}
	if best != nil {
		return best
	}
	return n.native[addr]
}

// Packet is a raw datagram as seen by taps and protocol handlers.
type Packet = netapi.Packet

// ProtoHandler receives non-UDP transport payloads (e.g. simulated TCP
// segments) addressed to a host. Handlers run as event callbacks and must not
// block; hand off to a queue for real work.
type ProtoHandler func(src, dst netip.AddrPort, payload any)

// send routes one transport payload from srcHost. UDP payloads must be
// []byte. directTo, when non-nil, skips routing and delivers to that host.
func (n *Network) send(proto uint8, srcHost *Host, src, dst netip.AddrPort, payload any, directTo *Host) error {
	n.Stats.Sent++
	target := directTo
	if target == nil {
		target = n.ownerOf(dst.Addr())
	}
	if target == nil {
		n.Stats.NoRoute++
		return fmt.Errorf("netsim: send %v->%v: %w", src, dst, netapi.ErrNoRoute)
	}
	payload, extra, dupDelay, deliver := n.applyFaults(proto, srcHost, target, payload)
	if !deliver {
		recyclePayload(payload)
		return nil // silently lost, like the real network
	}
	lat := n.latencyBetween(srcHost, target)
	n.sched.After(lat+extra, func() { target.deliver(proto, src, dst, payload) })
	if dupDelay > 0 {
		dup := dupPayload(payload)
		n.sched.After(lat+dupDelay, func() { target.deliver(proto, src, dst, dup) })
	}
	return nil
}

// Host is a simulated machine. It implements netapi.Env.
type Host struct {
	net      *Network
	name     string
	ips      []netip.Addr
	udp      map[netip.AddrPort]*UDPConn
	ports    map[uint16]int // bound-port refcounts (O(1) ephemeral allocation)
	taps     []*Tap         // what OpenTaps installed, split by TapOf
	protos   map[uint8]ProtoHandler
	tcp      TCPProvider
	nextPort uint16
	queueCap int
	cpu      *CPU

	// Stats counts host-level events.
	Stats HostStats
}

// HostStats aggregates per-host counters.
type HostStats struct {
	UDPSent     uint64
	UDPReceived uint64
	RecvDropped uint64 // receive queue overflow (tail drop)
	NoSocket    uint64
}

var _ netapi.Env = (*Host)(nil)

// Name returns the diagnostic name given to AddHost.
func (h *Host) Name() string { return h.name }

// Addr returns the host's primary address.
func (h *Host) Addr() netip.Addr {
	if len(h.ips) == 0 {
		return netip.Addr{}
	}
	return h.ips[0]
}

// Network returns the network this host belongs to.
func (h *Host) Network() *Network { return h.net }

// CPU returns the host's serialized virtual CPU.
func (h *Host) CPU() *CPU { return h.cpu }

// SetQueueCap overrides the receive-queue bound used by subsequently created
// sockets and taps.
func (h *Host) SetQueueCap(c int) { h.queueCap = c }

// ClaimPrefix directs all traffic addressed within p to this host, taking
// precedence over native owners. This is how the remote DNS guard intercepts
// traffic for its ANS's address and for the cookie subnet.
func (h *Host) ClaimPrefix(p netip.Prefix) {
	h.net.claims = append(h.net.claims, claim{prefix: p, host: h})
}

// ClaimAddr is ClaimPrefix for a single address.
func (h *Host) ClaimAddr(a netip.Addr) {
	h.ClaimPrefix(netip.PrefixFrom(a, a.BitLen()))
}

// Now implements netapi.Env.
func (h *Host) Now() time.Duration { return h.net.sched.Now() }

// Sleep implements netapi.Env.
func (h *Host) Sleep(d time.Duration) { h.net.sched.Sleep(d) }

// Go implements netapi.Env.
func (h *Host) Go(name string, fn func()) {
	h.net.sched.Go(h.name+"/"+name, fn)
}

// CooperativeScheduling implements netapi.CooperativeEnv: simulated procs
// are coroutines on the virtual clock and must not block through OS
// primitives (see netapi.CooperativeEnv).
func (h *Host) CooperativeScheduling() bool { return true }

func (h *Host) ownsAddr(a netip.Addr) bool {
	for _, ip := range h.ips {
		if ip == a {
			return true
		}
	}
	return false
}

func (h *Host) allocPort() uint16 {
	for {
		p := h.nextPort
		h.nextPort++
		if h.nextPort == 0 {
			h.nextPort = 49152
		}
		if h.ports[p] == 0 {
			return p
		}
	}
}

// ListenUDP implements netapi.Env. The address must be one of the host's own
// addresses (use a Tap to receive for claimed prefixes).
func (h *Host) ListenUDP(addr netip.AddrPort) (netapi.UDPConn, error) {
	a := addr.Addr()
	if !a.IsValid() || a.IsUnspecified() {
		a = h.Addr()
	}
	if !h.ownsAddr(a) {
		return nil, fmt.Errorf("netsim: %s does not own %v: %w", h.name, a, netapi.ErrNoRoute)
	}
	port := addr.Port()
	if port == 0 {
		port = h.allocPort()
	}
	ap := netip.AddrPortFrom(a, port)
	if _, ok := h.udp[ap]; ok {
		return nil, fmt.Errorf("netsim: %v: %w", ap, netapi.ErrAddrInUse)
	}
	c := &UDPConn{
		host:  h,
		local: ap,
		q:     vclock.NewBoundedQueue[Packet](h.net.sched, h.queueCap),
	}
	h.udp[ap] = c
	h.ports[port]++
	return c, nil
}

// DialTCP implements netapi.Env, delegating to the installed TCPProvider.
func (h *Host) DialTCP(raddr netip.AddrPort) (netapi.Conn, error) {
	if h.tcp == nil {
		return nil, fmt.Errorf("netsim: %s has no TCP stack: %w", h.name, netapi.ErrNoRoute)
	}
	return h.tcp.Dial(h, raddr)
}

// ListenTCP implements netapi.Env, delegating to the installed TCPProvider.
func (h *Host) ListenTCP(addr netip.AddrPort) (netapi.Listener, error) {
	if h.tcp == nil {
		return nil, fmt.Errorf("netsim: %s has no TCP stack: %w", h.name, netapi.ErrNoRoute)
	}
	return h.tcp.Listen(h, addr)
}

// TCPProvider supplies a stream transport for a host; see internal/tcpsim.
type TCPProvider interface {
	Dial(h *Host, raddr netip.AddrPort) (netapi.Conn, error)
	Listen(h *Host, laddr netip.AddrPort) (netapi.Listener, error)
}

// SetTCP installs the stream transport used by DialTCP/ListenTCP.
func (h *Host) SetTCP(p TCPProvider) { h.tcp = p }

// HandleProto registers a transport handler (tcpsim uses this for segments).
func (h *Host) HandleProto(proto uint8, fn ProtoHandler) { h.protos[proto] = fn }

// SendProto transmits a transport payload from this host. Used by tcpsim.
func (h *Host) SendProto(proto uint8, src, dst netip.AddrPort, payload any) error {
	return h.net.send(proto, h, src, dst, payload, nil)
}

// SendRaw injects a UDP datagram with an arbitrary source address. This is
// the spoofing primitive used by attack generators and by middleboxes
// re-injecting intercepted traffic.
func (h *Host) SendRaw(src, dst netip.AddrPort, payload []byte) error {
	h.Stats.UDPSent++
	return h.net.send(ProtoUDP, h, src, dst, cloneBytes(payload), nil)
}

// InjectTo delivers a datagram directly to target, skipping routing and
// claims. Middleboxes use it to hand intercepted traffic to the machine that
// natively owns the destination address.
func (h *Host) InjectTo(target *Host, src, dst netip.AddrPort, payload []byte) error {
	h.Stats.UDPSent++
	return h.net.send(ProtoUDP, h, src, dst, cloneBytes(payload), target)
}

// deliver hands an arriving payload to the right endpoint on this host.
func (h *Host) deliver(proto uint8, src, dst netip.AddrPort, payload any) {
	if proto != ProtoUDP {
		if fn, ok := h.protos[proto]; ok {
			h.net.Stats.Delivered++
			fn(src, dst, payload)
			return
		}
		h.Stats.NoSocket++
		h.net.Stats.NoSocket++
		return
	}
	b, ok := payload.([]byte)
	if !ok {
		panic("netsim: UDP payload must be []byte")
	}
	h.Stats.UDPReceived++
	pkt := Packet{Src: src, Dst: dst, Payload: b}
	if c, ok := h.udp[dst]; ok && !c.closed {
		h.net.Stats.Delivered++
		if !c.q.Put(pkt) {
			h.Stats.RecvDropped++
			recycleBytes(b)
		}
		return
	}
	if len(h.taps) > 0 {
		if t := h.taps[h.TapOf(src.Addr())]; !t.closed {
			h.net.Stats.Delivered++
			if !t.q.Put(pkt) {
				h.Stats.RecvDropped++
				recycleBytes(b)
			}
			return
		}
	}
	h.Stats.NoSocket++
	h.net.Stats.NoSocket++
	recycleBytes(b)
}

// UDPConn is a simulated datagram socket.
type UDPConn struct {
	host   *Host
	local  netip.AddrPort
	q      *vclock.Queue[Packet]
	closed bool
}

var _ netapi.UDPConn = (*UDPConn)(nil)

// WriteTo implements netapi.UDPConn.
func (c *UDPConn) WriteTo(b []byte, to netip.AddrPort) error {
	if c.closed {
		return netapi.ErrClosed
	}
	c.host.Stats.UDPSent++
	return c.host.net.send(ProtoUDP, c.host, c.local, to, cloneBytes(b), nil)
}

// LocalAddr implements netapi.UDPConn.
func (c *UDPConn) LocalAddr() netip.AddrPort { return c.local }

// Close implements netapi.UDPConn.
func (c *UDPConn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	delete(c.host.udp, c.local)
	if n := c.host.ports[c.local.Port()]; n > 1 {
		c.host.ports[c.local.Port()] = n - 1
	} else {
		delete(c.host.ports, c.local.Port())
	}
	c.q.Close()
	return nil
}

// Tap receives the datagrams delivered to this host that no explicit socket
// claimed — including traffic for claimed prefixes — from the sources TapOf
// assigns it. It is the guard's packet-capture interface: one per shard, as
// one SO_REUSEPORT socket per shard is on a real host.
type Tap struct {
	host   *Host
	q      *vclock.Queue[Packet]
	closed bool
}

// OpenTap installs the host's one tap: OpenTaps(1).
func (h *Host) OpenTap() (*Tap, error) {
	taps, err := h.OpenTaps(1)
	if err != nil {
		return nil, err
	}
	return taps[0], nil
}

// OpenTaps installs n taps that split what the host intercepts by source
// address (TapOf), each with its own bounded queue and drop count, as the
// kernel splits a reuseport group's datagrams among its sockets. A host has
// one set of taps at a time: opening another while one is live fails.
func (h *Host) OpenTaps(n int) ([]*Tap, error) {
	if n < 1 {
		return nil, fmt.Errorf("netsim: %s: %d taps", h.name, n)
	}
	for _, t := range h.taps {
		if !t.closed {
			return nil, fmt.Errorf("netsim: %s already has a tap: %w", h.name, netapi.ErrAddrInUse)
		}
	}
	h.taps = make([]*Tap, n)
	for i := range h.taps {
		h.taps[i] = &Tap{host: h, q: vclock.NewBoundedQueue[Packet](h.net.sched, h.queueCap)}
	}
	return slices.Clone(h.taps), nil
}

// TapOf is the index of the tap that receives datagrams from src: a fixed,
// unseeded FNV-1a hash of the address (no port: every datagram of a
// requester reaches one tap) modulo the number of taps, 0 with one or none.
// A simulation has no adversary to probe the mapping, and a fixed one
// replays bit-identically.
func (h *Host) TapOf(src netip.Addr) int {
	if len(h.taps) < 2 {
		return 0
	}
	hash := uint64(0xcbf29ce484222325)
	for _, b := range src.As16() {
		hash ^= uint64(b)
		hash *= 0x100000001b3
	}
	return int(hash % uint64(len(h.taps)))
}

// WriteFromTo sends a datagram with an explicit source address; the source
// should be an address this tap's host owns or claims (e.g. answering as the
// protected ANS).
func (t *Tap) WriteFromTo(src, dst netip.AddrPort, payload []byte) error {
	if t.closed {
		return netapi.ErrClosed
	}
	return t.host.SendRaw(src, dst, payload)
}

// Dropped reports packets tail-dropped from the tap queue.
func (t *Tap) Dropped() uint64 { return t.q.Dropped() }

// Close shuts the tap; blocked readers receive ErrClosed.
func (t *Tap) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	t.q.Close()
	return nil
}

func mapQueueErr(err error) error {
	switch err {
	case vclock.ErrTimeout:
		return netapi.ErrTimeout
	case vclock.ErrClosed:
		return netapi.ErrClosed
	default:
		return err
	}
}

// payloadPool recycles in-flight datagram buffers: a payload the network
// itself drops — queue overflow, loss, partitions, no socket — and one a
// socket's ReadBatch has copied into its caller's slot. Only a tap hands its
// delivered payloads on. Under the spoofed floods the guard is built for,
// drops are the common case, so this removes the per-drop allocation.
var payloadPool sync.Pool

const payloadPoolCap = 2048 // covers DNS-over-UDP; larger payloads bypass

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	var out []byte
	if v := payloadPool.Get(); v != nil {
		if buf := v.([]byte); cap(buf) >= len(b) {
			out = buf[:len(b)]
		}
	}
	if out == nil {
		out = make([]byte, len(b), max(len(b), payloadPoolCap))
	}
	copy(out, b)
	return out
}

// recycleBytes returns a dropped payload's buffer to the pool. Callers must
// hold the only reference (true for every clone the network made itself).
func recycleBytes(b []byte) {
	if cap(b) >= payloadPoolCap {
		payloadPool.Put(b[:0])
	}
}

// recyclePayload is recycleBytes for the transport-agnostic payload slot.
func recyclePayload(payload any) {
	if b, ok := payload.([]byte); ok {
		recycleBytes(b)
	}
}
