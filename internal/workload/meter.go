package workload

import (
	"errors"
	"net/netip"
	"sync/atomic"
	"time"

	"dnsguard/internal/cpumodel"
	"dnsguard/internal/guard"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netsim"
)

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
	// work is shard 0's loops' live counts once the guard is built, seen the
	// counts each loop has been charged for but its reads, which are charged
	// as they return, and charged what in all; each indexed by loop.
	work    [2]*guard.Work
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
	if !ok || tap == nil || cfg.Shards > 1 {
		return nil, nil, errors.New("workload: MeterGuard takes a one-shard guard on a netsim host and its tap")
	}
	m := &GuardMeter{cpu: host.CPU(), costs: costs}
	cfg.Env, cfg.IOs = meteredHost{host, m}, []guard.PacketIO{meteredTap{tap, m}}
	g, err := guard.NewRemote(cfg)
	if err != nil {
		return nil, nil, err
	}
	m.work[meterWorker], m.work[meterUpstream] = g.Work(0)
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

// read charges loop for the n datagrams a read of its returned, as it
// returns: the loop counts each as Read when it handles it, and handles it
// at the time its receive took.
func (m *GuardMeter) read(loop, n int) { m.spend(loop, time.Duration(n)*m.costs.PacketOp) }

// charge charges loop for the rest of what it counted since its last charge,
// kind by kind in the order a packet's work is done: a loop that handled one
// packet since then sleeps as long, and behind the same work of the other
// loop, as it would have had it been charged at each step.
func (m *GuardMeter) charge(loop int) {
	w, seen, c := m.work[loop], &m.seen[loop], m.costs
	for _, k := range [...]struct {
		n, seen *uint64
		price   time.Duration
	}{
		{&w.Checks, &seen.Checks, c.CookieCheck},
		{&w.Grants, &seen.Grants, c.CookieGrant},
		{&w.TCReplies, &seen.TCReplies, c.TCReply},
		{&w.Rewrites, &seen.Rewrites, c.Rewrite},
		{&w.Written, &seen.Written, c.PacketOp},
	} {
		n := atomic.LoadUint64(k.n)
		m.spend(loop, time.Duration(n-*k.seen)*k.price)
		*k.seen = n
	}
}

// meteredHost is the guard's Env: the host, every capability the engine
// probes with it, and upstream sockets behind the meter.
type meteredHost struct {
	*netsim.Host
	m *GuardMeter
}

func (h meteredHost) ListenUDP(addr netip.AddrPort) (netapi.UDPConn, error) {
	c, err := h.Host.ListenUDP(addr)
	if err != nil {
		return nil, err
	}
	return meteredConn{c.(*netsim.UDPConn), h.m}, nil
}

// meteredConn is a shard's upstream socket: the upstream loop reads it, the
// worker writes it.
type meteredConn struct {
	*netsim.UDPConn
	m *GuardMeter
}

func (c meteredConn) ReadBatch(msgs []netapi.Datagram, timeout time.Duration) (int, error) {
	c.m.charge(meterUpstream)
	n, err := c.UDPConn.ReadBatch(msgs, timeout)
	c.m.read(meterUpstream, n)
	return n, err
}

func (c meteredConn) WriteTo(b []byte, to netip.AddrPort) error {
	c.m.charge(meterWorker)
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
	t.m.read(meterWorker, n)
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
