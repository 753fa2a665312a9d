package workload

import (
	"errors"
	"net/netip"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/cpumodel"
	"dnsguard/internal/guard"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netsim"
	"dnsguard/internal/tcpproxy"
)

// The simulator prices work at a host's sockets: no program charges CPU. A
// metered host stands in for a program's netsim host, and it and the UDP
// sockets it opens call the program's meter at each socket call. A meter
// charges the host's CPU there what the program did since its last charge:
// GuardMeter what the guard counted, ServerMeter a fixed price per call.
type meter interface {
	opening()   // before the host opens a UDP socket
	dialing()   // before the host dials a TCP connection
	reading()   // before a read of one of its UDP sockets
	read(n int) // as such a read returns n datagrams
	writing()   // before a write to one of its UDP sockets
}

// GuardMeter prices a simulated guard's work on its host's CPU. The guard
// charges nothing: it counts what each of its loops did (guard.Work). The
// meter sits on the guard's Env and capture tap. It charges a loop one
// PacketOp for each datagram a read returns, as the read returns, and before
// each read or write the loop makes, the rest of what it counted since, at
// the cpumodel.GuardCosts prices, through netsim.CPU.WorkPreempt. So every
// send waits for all of its packet's work, a dropped packet's work is charged
// before its loop reads again, and the guard keeps the interrupt priority its
// datapath had on the paper's testbed (iptables/softirq), where it preempts
// userspace work like the TCP proxy (Figure 7b).
//
// The call names the loop: the worker reads the tap in batches, flushes its
// replies with one WriteBatch and writes the upstream socket; the upstream
// loop reads the upstream socket in batches and writes the tap one reply at
// a time. Those are the calls the meter charges at, and the only ones the
// guard makes. A health probe's write charges the worker what it has not yet
// been charged, which on the cooperative simulator is nothing: a loop is
// charged in full before it can yield. The meter serves a guard of one
// shard, all a host's one tap feeds directly.
type GuardMeter struct {
	cpu   *netsim.CPU
	costs cpumodel.GuardCosts
	// g is the guard once built, whose shard 0 the meter reads the counts of;
	// seen is the counts each loop has been charged for but its reads, which
	// are charged as they return, and charged what in all; each indexed by
	// loop.
	g       *guard.Remote
	seen    [2]guard.Work
	charged [2]time.Duration
}

// The loops of a shard, as GuardMeter indexes them.
const (
	meterWorker = iota
	meterUpstream
)

// MeterGuard builds the guard cfg describes, whose Env must be a netsim host
// and whose one capture interface that host's tap, with both behind a meter
// that charges the guard's counted work to the host's CPU at costs.
func MeterGuard(cfg guard.RemoteConfig, costs cpumodel.GuardCosts) (*guard.Remote, *GuardMeter, error) {
	host, ok := cfg.Env.(*netsim.Host)
	var tap *netsim.Tap
	if ok && len(cfg.IOs) == 1 {
		tap, ok = cfg.IOs[0].(*netsim.Tap)
	}
	if !ok || tap == nil {
		return nil, nil, errors.New("workload: MeterGuard takes a one-shard guard on a netsim host and its tap")
	}
	m := &GuardMeter{cpu: host.CPU(), costs: costs}
	cfg.Env, cfg.IOs = meteredHost{host, m}, []guard.PacketIO{meteredTap{tap, m}}
	g, err := guard.NewRemote(cfg)
	if err != nil {
		return nil, nil, err
	}
	m.g = g
	return g, m, nil
}

// Charged reports what the meter has charged each loop so far.
func (m *GuardMeter) Charged() (worker, upstream time.Duration) {
	return m.charged[meterWorker], m.charged[meterUpstream]
}

// spend charges loop d of CPU time at interrupt priority.
func (m *GuardMeter) spend(loop int, d time.Duration) {
	m.charged[loop] += d
	m.cpu.WorkPreempt(d)
}

// received charges loop for the n datagrams a read of its returned, as it
// returns: the loop counts each as Read when it handles it, and handles it
// at the time its receive took.
func (m *GuardMeter) received(loop, n int) { m.spend(loop, time.Duration(n)*m.costs.PacketOp) }

// charge charges loop for the rest of what it counted since its last charge,
// kind by kind in the order a packet's work is done: a loop that handled one
// packet since then sleeps as long, and behind the same work of the other
// loop, as it would have had it been charged at each step.
func (m *GuardMeter) charge(loop int) {
	var w [2]guard.Work
	w[meterWorker], w[meterUpstream] = m.g.Work(0)
	now, seen, c := &w[loop], &m.seen[loop], m.costs
	for _, k := range [...]struct {
		n, seen *uint64
		price   time.Duration
	}{
		{&now.Checks, &seen.Checks, c.CookieCheck},
		{&now.Grants, &seen.Grants, c.CookieGrant},
		{&now.TCReplies, &seen.TCReplies, c.TCReply},
		{&now.Rewrites, &seen.Rewrites, c.Rewrite},
		{&now.Written, &seen.Written, c.PacketOp},
	} {
		m.spend(loop, time.Duration(*k.n-*k.seen)*k.price)
		*k.seen = *k.n
	}
}

// The guard's upstream sockets are the only ones it opens: the upstream loop
// reads them, the worker writes them.
func (m *GuardMeter) opening()   {}
func (m *GuardMeter) dialing()   {}
func (m *GuardMeter) reading()   { m.charge(meterUpstream) }
func (m *GuardMeter) read(n int) { m.received(meterUpstream, n) }
func (m *GuardMeter) writing()   { m.charge(meterWorker) }

// ServerMeter prices a simulated server's work on its host's CPU at the
// cpumodel prices of the server's measured capacity, through
// netsim.CPU.Work: ordinary work, which the guard's WorkPreempt preempts
// (Figure 7b). It charges a fixed price per socket call, as the call is
// made: for each datagram a UDP read returns, as the read returns; before
// each UDP socket the server opens; before each TCP connection it dials.
type ServerMeter struct {
	cpu              *netsim.CPU
	perRead, perDial time.Duration
	perSocket        func() time.Duration // nil: opening a socket is free
	charged          time.Duration
}

// Charged reports what the meter has charged so far.
func (m *ServerMeter) Charged() time.Duration { return m.charged }

func (m *ServerMeter) spend(d time.Duration) {
	m.charged += d
	m.cpu.Work(d)
}

func (m *ServerMeter) opening() {
	if m.perSocket != nil {
		m.spend(m.perSocket())
	}
}
func (m *ServerMeter) dialing()   { m.spend(m.perDial) }
func (m *ServerMeter) reading()   {}
func (m *ServerMeter) read(n int) { m.spend(time.Duration(n) * m.perRead) }
func (m *ServerMeter) writing()   {}

// meterServer puts a ServerMeter that charges perRead and perDial between
// *env, which must be a netsim host, and the program built on it.
func meterServer(env *netapi.Env, perRead, perDial time.Duration) (*ServerMeter, error) {
	host, ok := (*env).(*netsim.Host)
	if !ok {
		return nil, errors.New("workload: a server meter takes a program on a netsim host")
	}
	m := &ServerMeter{cpu: host.CPU(), perRead: perRead, perDial: perDial}
	*env = meteredHost{host, m}
	return m, nil
}

// MeterBIND builds the authoritative server cfg describes, whose Env must be
// a netsim host, behind a meter that charges the host costs.BINDUDP for each
// query its UDP socket reads.
func MeterBIND(cfg ans.Config, costs cpumodel.ServerCosts) (*ans.Server, *ServerMeter, error) {
	m, err := meterServer(&cfg.Env, costs.BINDUDP, 0)
	if err != nil {
		return nil, nil, err
	}
	s, err := ans.New(cfg)
	return s, m, err
}

// MeterANSSim builds the ANS simulator cfg describes, whose Env must be a
// netsim host, behind a meter that charges the host costs.ANSSim for each
// query its socket reads.
func MeterANSSim(cfg ANSSimConfig, costs cpumodel.ServerCosts) (*ANSSim, *ServerMeter, error) {
	m, err := meterServer(&cfg.Env, costs.ANSSim, 0)
	if err != nil {
		return nil, nil, err
	}
	s, err := NewANSSim(cfg)
	return s, m, err
}

// MeterProxy builds the TCP proxy cfg describes, whose Env must be a netsim
// host, behind a meter that charges the host for each request the proxy
// relays, as it opens the request's upstream socket, segments kernel TCP
// segments, each dearer by costs.ConnTableSlope for every connection the
// proxy holds open (the connection-table cost of Figure 7a).
func MeterProxy(cfg tcpproxy.Config, segments int, costs cpumodel.GuardCosts) (*tcpproxy.Proxy, *ServerMeter, error) {
	m, err := meterServer(&cfg.Env, 0, 0)
	if err != nil {
		return nil, nil, err
	}
	p, err := tcpproxy.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	base := time.Duration(segments) * costs.TCPSegment
	m.perSocket = func() time.Duration {
		f := 1 + costs.ConnTableSlope*float64(p.Live())
		return time.Duration(float64(base) * f)
	}
	return p, m, nil
}

// MeterClient builds the LRS client cfg describes, whose Env must be a
// netsim host, behind a meter that charges the host costs.LRSTCPClient for
// each request it sends over TCP, as it dials: the LRS's TCP path, which
// caps one LRS at 0.5K req/s in Figure 5.
func MeterClient(cfg ClientConfig, costs cpumodel.ServerCosts) (*Client, *ServerMeter, error) {
	m, err := meterServer(&cfg.Env, 0, costs.LRSTCPClient)
	if err != nil {
		return nil, nil, err
	}
	c, err := NewClient(cfg)
	return c, m, err
}

// meteredHost is a metered program's Env: the host, every capability a
// program probes it for, and its UDP sockets and TCP dials behind the meter.
type meteredHost struct {
	*netsim.Host
	m meter
}

func (h meteredHost) ListenUDP(addr netip.AddrPort) (netapi.UDPConn, error) {
	h.m.opening()
	c, err := h.Host.ListenUDP(addr)
	if err != nil {
		return nil, err
	}
	return meteredConn{c.(*netsim.UDPConn), h.m}, nil
}

func (h meteredHost) DialTCP(raddr netip.AddrPort) (netapi.Conn, error) {
	h.m.dialing()
	return h.Host.DialTCP(raddr)
}

// meteredConn is a UDP socket a metered host opened.
type meteredConn struct {
	*netsim.UDPConn
	m meter
}

func (c meteredConn) ReadBatch(msgs []netapi.Datagram, timeout time.Duration) (int, error) {
	c.m.reading()
	n, err := c.UDPConn.ReadBatch(msgs, timeout)
	c.m.read(n)
	return n, err
}

func (c meteredConn) WriteTo(b []byte, to netip.AddrPort) error {
	c.m.writing()
	return c.UDPConn.WriteTo(b, to)
}

// meteredTap is the capture interface: the worker reads it and flushes its
// replies in one WriteBatch, the upstream loop writes one reply at a time.
type meteredTap struct {
	*netsim.Tap
	m *GuardMeter
}

func (t meteredTap) ReadBatch(pkts []netapi.Packet, timeout time.Duration) (int, error) {
	t.m.charge(meterWorker)
	n, err := t.Tap.ReadBatch(pkts, timeout)
	t.m.received(meterWorker, n)
	return n, err
}

// WriteBatch sends every one of pkts in order as the tap's WriteFromTo would,
// the event sequence of the worker's per-reply flush, and reports the first
// error.
func (t meteredTap) WriteBatch(pkts []netapi.Packet) (err error) {
	t.m.charge(meterWorker)
	for _, p := range pkts {
		if e := t.Tap.WriteFromTo(p.Src, p.Dst, p.Payload); err == nil {
			err = e
		}
	}
	return err
}

func (t meteredTap) WriteFromTo(src, dst netip.AddrPort, payload []byte) error {
	t.m.charge(meterUpstream)
	return t.Tap.WriteFromTo(src, dst, payload)
}
