// Package tcpsim is a miniature TCP implementation over netsim's segment
// transport: three-way handshake (optionally stateless via SYN cookies —
// the mechanism the DNS guard's TCP proxy relies on, §III-C), byte streams
// with cumulative acknowledgment, retransmission with bounded retries, and
// FIN/RST teardown. It provides netapi.Conn / netapi.Listener so the DNS
// servers, the resolver's TCP fallback, and the guard's TCP proxy all run
// over it unmodified inside the simulator.
//
// The model is deliberately simplified where the paper's experiments do not
// depend on fidelity: no congestion control or flow-control windows (DNS
// messages are a few hundred bytes), segments are delivered in order per
// link (netsim links are FIFO), and loss is recovered by a fixed RTO.
package tcpsim

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net/netip"
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/netsim"
	"dnsguard/internal/vclock"
)

// Segment is one simulated TCP segment.
type Segment struct {
	SYN, ACK, FIN, RST bool
	Seq, Ack           uint32
	Data               []byte
}

func (s Segment) String() string {
	return fmt.Sprintf("tcp[syn=%v ack=%v fin=%v rst=%v seq=%d ackn=%d len=%d]",
		s.SYN, s.ACK, s.FIN, s.RST, s.Seq, s.Ack, len(s.Data))
}

// Config tunes a Stack.
type Config struct {
	// SYNCookies enables stateless SYN handling on listeners: no
	// connection state exists until the handshake-completing ACK arrives
	// with a valid cookie, defeating SYN floods (§III-C).
	SYNCookies bool
	// OnSegment, when non-nil, observes every segment the stack sends or
	// receives; experiments hook CPU cost accounting here.
	OnSegment func(dataLen int)
}

const (
	// rto is the retransmission timeout.
	rto = 200 * time.Millisecond
	// maxRetries bounds retransmissions before the connection aborts.
	maxRetries = 5
	// connectTimeout bounds Dial.
	connectTimeout = time.Second
	// acceptBacklog bounds the pending-accept queue.
	acceptBacklog = 1024
)

// Stats counts stack activity.
type Stats struct {
	SegmentsIn     uint64
	SegmentsOut    uint64
	Retransmits    uint64
	Resets         uint64
	SYNCookiesSent uint64
	CookieFailures uint64
	Established    uint64
	CurrentConns   int
}

type connKey struct {
	local  netip.AddrPort
	remote netip.AddrPort
}

// Stack is a per-host TCP instance. Install creates one and wires it into
// the host so Host.DialTCP / Host.ListenTCP work.
type Stack struct {
	host      *netsim.Host
	sched     *vclock.Scheduler
	cfg       Config
	listeners map[netip.AddrPort]*Listener
	conns     map[connKey]*Conn
	ports     map[uint16]int // local-port refcounts (O(1) ephemeral allocation)
	nextPort  uint16
	secret    uint64

	// Stats is updated as the stack runs.
	Stats Stats
}

// Install attaches a TCP stack to h.
func Install(h *netsim.Host, cfg Config) *Stack {
	st := &Stack{
		host:      h,
		sched:     h.Network().Scheduler(),
		cfg:       cfg,
		listeners: make(map[netip.AddrPort]*Listener),
		conns:     make(map[connKey]*Conn),
		ports:     make(map[uint16]int),
		nextPort:  50000,
		secret:    uint64(h.Network().Scheduler().Rand().Int63()),
	}
	h.HandleProto(netsim.ProtoTCP, st.receive)
	h.SetTCP(st)
	return st
}

var _ netsim.TCPProvider = (*Stack)(nil)

func (st *Stack) allocPort() uint16 {
	for {
		p := st.nextPort
		st.nextPort++
		if st.nextPort == 0 {
			st.nextPort = 50000
		}
		if st.ports[p] == 0 {
			return p
		}
	}
}

func (st *Stack) trackConn(c *Conn) {
	st.conns[connKey{c.local, c.remote}] = c
	st.ports[c.local.Port()]++
	st.Stats.CurrentConns++
}

func (st *Stack) untrackConn(c *Conn) {
	delete(st.conns, connKey{c.local, c.remote})
	if n := st.ports[c.local.Port()]; n > 1 {
		st.ports[c.local.Port()] = n - 1
	} else {
		delete(st.ports, c.local.Port())
	}
	st.Stats.CurrentConns--
}

func (st *Stack) send(from, to netip.AddrPort, seg *Segment) {
	st.Stats.SegmentsOut++
	if st.cfg.OnSegment != nil {
		st.cfg.OnSegment(len(seg.Data))
	}
	_ = st.host.SendProto(netsim.ProtoTCP, from, to, seg)
}

// receive is the protocol handler: it runs as an event callback and must not
// block.
func (st *Stack) receive(src, dst netip.AddrPort, payload any) {
	seg, ok := payload.(*Segment)
	if !ok {
		return
	}
	st.Stats.SegmentsIn++
	if st.cfg.OnSegment != nil {
		st.cfg.OnSegment(len(seg.Data))
	}
	if c, ok := st.conns[connKey{dst, src}]; ok {
		c.onSegment(seg)
		return
	}
	if l, ok := st.listeners[dst]; ok && !l.closed {
		l.onSegment(src, dst, seg)
		return
	}
	// Try a wildcard listener on the port across any owned address
	// (the guard listens on the ANS address it claims).
	for ap, l := range st.listeners {
		if ap.Port() == dst.Port() && !ap.Addr().IsValid() && !l.closed {
			l.onSegment(src, dst, seg)
			return
		}
	}
	if !seg.RST {
		st.Stats.Resets++
		st.send(dst, src, &Segment{RST: true, Ack: seg.Seq + uint32(len(seg.Data))})
	}
}

// synCookie derives the stateless ISN for a half-open handshake.
func (st *Stack) synCookie(src, dst netip.AddrPort, epoch uint64) uint32 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(st.secret >> (8 * i))
	}
	h.Write(b[:])
	sa := src.Addr().As16()
	da := dst.Addr().As16()
	h.Write(sa[:])
	h.Write(da[:])
	h.Write([]byte{byte(src.Port() >> 8), byte(src.Port()), byte(dst.Port() >> 8), byte(dst.Port())})
	for i := 0; i < 8; i++ {
		b[i] = byte(epoch >> (8 * i))
	}
	h.Write(b[:])
	return uint32(h.Sum64())
}

func (st *Stack) cookieEpoch() uint64 {
	return uint64(st.sched.Now() / (64 * time.Second))
}

// Dial implements netsim.TCPProvider.
func (st *Stack) Dial(h *netsim.Host, raddr netip.AddrPort) (netapi.Conn, error) {
	laddr := netip.AddrPortFrom(h.Addr(), st.allocPort())
	c := newConn(st, laddr, raddr)
	c.state = stateSynSent
	c.sndNxt = uint32(st.sched.Rand().Uint32())
	c.iss = c.sndNxt
	st.trackConn(c)

	syn := &Segment{SYN: true, Seq: c.sndNxt}
	c.sndNxt++
	st.send(laddr, raddr, syn)
	// Retransmit SYN on timeout.
	c.armRetransmit(func() *Segment { return syn })

	if _, err := c.established.Get(connectTimeout); err != nil {
		c.abort(netapi.ErrTimeout)
		if c.err != nil && !errors.Is(c.err, netapi.ErrTimeout) {
			return nil, c.err
		}
		return nil, fmt.Errorf("tcpsim: connect %v: %w", raddr, netapi.ErrTimeout)
	}
	if c.err != nil {
		return nil, c.err
	}
	return c, nil
}

// Listen implements netsim.TCPProvider.
func (st *Stack) Listen(h *netsim.Host, laddr netip.AddrPort) (netapi.Listener, error) {
	if _, ok := st.listeners[laddr]; ok {
		return nil, fmt.Errorf("tcpsim: %v: %w", laddr, netapi.ErrAddrInUse)
	}
	l := &Listener{
		stack:    st,
		addr:     laddr,
		backlog:  vclock.NewBoundedQueue[*Conn](st.sched, acceptBacklog),
		halfOpen: make(map[connKey]*Segment),
	}
	st.listeners[laddr] = l
	return l, nil
}

// Listener accepts simulated TCP connections.
type Listener struct {
	stack    *Stack
	addr     netip.AddrPort
	backlog  *vclock.Queue[*Conn]
	halfOpen map[connKey]*Segment // non-SYN-cookie mode half-open state
	closed   bool
}

var _ netapi.Listener = (*Listener)(nil)

// Accept implements netapi.Listener.
func (l *Listener) Accept(timeout time.Duration) (netapi.Conn, error) {
	c, err := l.backlog.Get(timeout)
	if err != nil {
		if errors.Is(err, vclock.ErrTimeout) {
			return nil, netapi.ErrTimeout
		}
		return nil, netapi.ErrClosed
	}
	return c, nil
}

// Addr implements netapi.Listener.
func (l *Listener) Addr() netip.AddrPort { return l.addr }

// Close implements netapi.Listener.
func (l *Listener) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	delete(l.stack.listeners, l.addr)
	l.backlog.Close()
	return nil
}

// onSegment handles handshake traffic for this listener. dst is the address
// the peer targeted (meaningful when listening wildcard).
func (l *Listener) onSegment(src, dst netip.AddrPort, seg *Segment) {
	st := l.stack
	switch {
	case seg.SYN && !seg.ACK:
		if st.cfg.SYNCookies {
			isn := st.synCookie(src, dst, st.cookieEpoch())
			st.Stats.SYNCookiesSent++
			st.send(dst, src, &Segment{SYN: true, ACK: true, Seq: isn, Ack: seg.Seq + 1})
			return
		}
		// Stateful mode: remember the half-open handshake.
		isn := uint32(st.sched.Rand().Uint32())
		l.halfOpen[connKey{dst, src}] = &Segment{Seq: isn, Ack: seg.Seq + 1}
		st.send(dst, src, &Segment{SYN: true, ACK: true, Seq: isn, Ack: seg.Seq + 1})
	case seg.ACK && !seg.SYN:
		var isn, rcvNxt uint32
		if st.cfg.SYNCookies {
			epoch := st.cookieEpoch()
			if seg.Ack-1 != st.synCookie(src, dst, epoch) && seg.Ack-1 != st.synCookie(src, dst, epoch-1) {
				st.Stats.CookieFailures++
				st.Stats.Resets++
				st.send(dst, src, &Segment{RST: true, Ack: seg.Seq})
				return
			}
			// Stateless mode knows nothing of the client's ISN: only a
			// pure ACK (whose Seq is ISN+1 by construction) may complete
			// the handshake. A data segment arriving first — possible
			// when the pure ACK was lost — would otherwise seed rcvNxt
			// past the earlier bytes and silently truncate the stream.
			if len(seg.Data) > 0 || seg.FIN {
				st.Stats.Resets++
				st.send(dst, src, &Segment{RST: true, Ack: seg.Seq})
				return
			}
			isn = seg.Ack - 1
			rcvNxt = seg.Seq
		} else {
			half, ok := l.halfOpen[connKey{dst, src}]
			if !ok || seg.Ack-1 != half.Seq {
				st.Stats.Resets++
				st.send(dst, src, &Segment{RST: true, Ack: seg.Seq})
				return
			}
			delete(l.halfOpen, connKey{dst, src})
			isn = half.Seq
			// The SYN recorded the client's ISN: the stream starts at
			// ISN+1 regardless of which segment completes the handshake.
			rcvNxt = half.Ack
		}
		c := newConn(st, dst, src)
		c.state = stateEstablished
		c.iss = isn
		c.sndNxt = isn + 1
		c.sndUna = isn + 1
		c.rcvNxt = rcvNxt
		st.trackConn(c)
		st.Stats.Established++
		if !l.backlog.Put(c) {
			c.abort(netapi.ErrClosed) // backlog overflow
			return
		}
		// The completing segment may carry data already (client sends
		// the request with the handshake ACK).
		if len(seg.Data) > 0 || seg.FIN {
			c.onSegment(seg)
		}
	case seg.RST:
		delete(l.halfOpen, connKey{dst, src})
	}
}
