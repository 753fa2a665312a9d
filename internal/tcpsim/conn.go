package tcpsim

import (
	"errors"
	"net/netip"
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/vclock"
)

type connState int

const (
	stateSynSent connState = iota + 1
	stateEstablished
	stateFinWait   // we sent FIN
	stateCloseWait // peer sent FIN
	stateClosed
)

// Conn is one simulated TCP connection endpoint.
type Conn struct {
	stack  *Stack
	local  netip.AddrPort
	remote netip.AddrPort
	state  connState

	iss    uint32 // initial send sequence
	sndNxt uint32 // next byte to send
	sndUna uint32 // oldest unacknowledged byte
	rcvNxt uint32 // next byte expected

	unacked []sentSeg // retransmission buffer, in order
	rtTimer *vclock.Timer
	retries int

	pending map[uint32][]byte // out-of-order segments by seq
	finSeq  uint32            // seq of peer FIN, once seen
	finSeen bool

	readBuf     []byte
	readSignal  *vclock.Queue[struct{}]
	established *vclock.Queue[error]

	err      error
	openedAt time.Duration
	// OnClose, when non-nil, runs once when the connection fully closes.
	OnClose func()
}

type sentSeg struct {
	seq uint32
	seg *Segment
}

var _ netapi.Conn = (*Conn)(nil)

func newConn(st *Stack, local, remote netip.AddrPort) *Conn {
	return &Conn{
		stack:       st,
		local:       local,
		remote:      remote,
		pending:     make(map[uint32][]byte),
		readSignal:  vclock.NewQueue[struct{}](st.sched),
		established: vclock.NewQueue[error](st.sched),
		openedAt:    st.sched.Now(),
	}
}

// LocalAddr implements netapi.Conn.
func (c *Conn) LocalAddr() netip.AddrPort { return c.local }

// RemoteAddr implements netapi.Conn.
func (c *Conn) RemoteAddr() netip.AddrPort { return c.remote }

// Age reports how long the connection has existed — the TCP proxy enforces
// the paper's 5×RTT duration cap with this.
func (c *Conn) Age() time.Duration { return c.stack.sched.Now() - c.openedAt }

// Write implements netapi.Conn: it queues data for delivery and returns
// immediately (the model has no send-window backpressure).
func (c *Conn) Write(b []byte) (int, error) {
	if c.state != stateEstablished && c.state != stateCloseWait {
		if c.err != nil {
			return 0, c.err
		}
		return 0, netapi.ErrClosed
	}
	data := make([]byte, len(b))
	copy(data, b)
	seg := &Segment{ACK: true, Seq: c.sndNxt, Ack: c.rcvNxt, Data: data}
	c.unacked = append(c.unacked, sentSeg{seq: c.sndNxt, seg: seg})
	c.sndNxt += uint32(len(data))
	c.stack.send(c.local, c.remote, seg)
	c.ensureRetransmit()
	return len(b), nil
}

// Read implements netapi.Conn.
func (c *Conn) Read(b []byte, timeout time.Duration) (int, error) {
	deadline := time.Duration(-1)
	if timeout >= 0 {
		deadline = c.stack.sched.Now() + timeout
	}
	for len(c.readBuf) == 0 {
		if c.err != nil {
			return 0, c.err
		}
		if c.finSeen && c.rcvNxt >= c.finSeq || c.state == stateClosed {
			return 0, netapi.ErrClosed // clean EOF
		}
		remain := netapi.NoTimeout
		if deadline >= 0 {
			remain = deadline - c.stack.sched.Now()
			if remain <= 0 {
				return 0, netapi.ErrTimeout
			}
		}
		if _, err := c.readSignal.Get(remain); err != nil {
			if errors.Is(err, vclock.ErrTimeout) {
				return 0, netapi.ErrTimeout
			}
			// Queue closed: re-check error/EOF state.
			if c.err != nil {
				return 0, c.err
			}
			return 0, netapi.ErrClosed
		}
	}
	n := copy(b, c.readBuf)
	c.readBuf = c.readBuf[n:]
	return n, nil
}

// Close implements netapi.Conn: it sends FIN and releases the endpoint. The
// model uses an abbreviated teardown — no TIME_WAIT.
func (c *Conn) Close() error {
	switch c.state {
	case stateClosed:
		return nil
	case stateSynSent:
		c.abort(netapi.ErrClosed)
		return nil
	}
	fin := &Segment{FIN: true, ACK: true, Seq: c.sndNxt, Ack: c.rcvNxt}
	c.sndNxt++
	c.stack.send(c.local, c.remote, fin)
	if c.state == stateCloseWait {
		// Peer already finished; we are done.
		c.teardown(nil)
	} else {
		c.state = stateFinWait
		// Keep state briefly to retransmit data; reap on timer.
		c.stack.sched.After(2*rto, func() { c.teardown(nil) })
	}
	return nil
}

// abort resets the connection immediately.
func (c *Conn) abort(err error) {
	if c.state == stateClosed {
		return
	}
	c.stack.Stats.Resets++
	c.stack.send(c.local, c.remote, &Segment{RST: true, Seq: c.sndNxt, Ack: c.rcvNxt})
	c.teardown(err)
}

func (c *Conn) teardown(err error) {
	if c.state == stateClosed {
		return
	}
	c.state = stateClosed
	if c.err == nil {
		c.err = err
	}
	if c.rtTimer != nil {
		c.rtTimer.Stop()
		c.rtTimer = nil
	}
	c.stack.untrackConn(c)
	c.readSignal.Close()
	c.established.Close()
	if c.OnClose != nil {
		c.OnClose()
		c.OnClose = nil
	}
}

// onSegment is the receive path; runs as an event callback (non-blocking).
func (c *Conn) onSegment(seg *Segment) {
	if c.state == stateClosed {
		return
	}
	if seg.RST {
		if c.rtTimer != nil {
			c.rtTimer.Stop()
			c.rtTimer = nil
		}
		c.teardown(netapi.ErrRefused)
		return
	}
	switch c.state {
	case stateSynSent:
		if seg.SYN && seg.ACK && seg.Ack == c.sndNxt {
			c.rcvNxt = seg.Seq + 1
			c.sndUna = seg.Ack
			c.state = stateEstablished
			c.stack.Stats.Established++
			if c.rtTimer != nil {
				c.rtTimer.Stop()
				c.rtTimer = nil
			}
			c.retries = 0
			// Complete the handshake. Data writes may piggyback later.
			c.stack.send(c.local, c.remote, &Segment{ACK: true, Seq: c.sndNxt, Ack: c.rcvNxt})
			c.established.Put(nil)
		}
		return
	}

	// Acknowledgment processing.
	if seg.ACK && seqGE(seg.Ack, c.sndUna) {
		c.sndUna = seg.Ack
		keep := c.unacked[:0]
		for _, ss := range c.unacked {
			if seqGE(c.sndUna, ss.seq+uint32(len(ss.seg.Data))) {
				continue // fully acked
			}
			keep = append(keep, ss)
		}
		c.unacked = keep
		if len(c.unacked) == 0 && c.rtTimer != nil {
			c.rtTimer.Stop()
			c.rtTimer = nil
			c.retries = 0
		}
	}

	// Data processing.
	progressed := false
	if len(seg.Data) > 0 {
		if seqGE(c.rcvNxt, seg.Seq+uint32(len(seg.Data))) {
			// Entirely old: re-ack.
			c.stack.send(c.local, c.remote, &Segment{ACK: true, Seq: c.sndNxt, Ack: c.rcvNxt})
		} else {
			if _, dup := c.pending[seg.Seq]; !dup {
				data := make([]byte, len(seg.Data))
				copy(data, seg.Data)
				c.pending[seg.Seq] = data
			}
			for {
				data, ok := c.pending[c.rcvNxt]
				if !ok {
					break
				}
				delete(c.pending, c.rcvNxt)
				c.readBuf = append(c.readBuf, data...)
				c.rcvNxt += uint32(len(data))
				progressed = true
			}
			// Ack what we have (cumulative).
			c.stack.send(c.local, c.remote, &Segment{ACK: true, Seq: c.sndNxt, Ack: c.rcvNxt})
		}
	}
	if seg.FIN {
		finSeq := seg.Seq + uint32(len(seg.Data))
		c.finSeen = true
		c.finSeq = finSeq
		if c.rcvNxt == finSeq {
			c.rcvNxt = finSeq + 1
			if c.state == stateEstablished {
				c.state = stateCloseWait
			} else if c.state == stateFinWait {
				c.teardown(nil)
			}
			c.stack.send(c.local, c.remote, &Segment{ACK: true, Seq: c.sndNxt, Ack: c.rcvNxt})
			progressed = true
		}
	}
	if progressed {
		// Wake one blocked reader (signal is sticky enough: readers
		// re-check buffers in a loop).
		c.readSignal.Put(struct{}{})
	}
}

// ensureRetransmit arms the retransmission timer for the oldest unacked
// segment.
func (c *Conn) ensureRetransmit() {
	if c.rtTimer != nil || len(c.unacked) == 0 {
		return
	}
	c.armRetransmit(func() *Segment {
		if len(c.unacked) == 0 {
			return nil
		}
		return c.unacked[0].seg
	})
}

func (c *Conn) armRetransmit(pick func() *Segment) {
	c.rtTimer = c.stack.sched.After(rto, func() {
		c.rtTimer = nil
		if c.state == stateClosed {
			return
		}
		seg := pick()
		if seg == nil {
			return
		}
		c.retries++
		if c.retries > maxRetries {
			c.teardown(netapi.ErrTimeout)
			return
		}
		c.stack.Stats.Retransmits++
		c.stack.send(c.local, c.remote, seg)
		c.armRetransmit(pick)
	})
}

// seqGE reports a >= b in sequence-number arithmetic.
func seqGE(a, b uint32) bool { return int32(a-b) >= 0 }
