// Datagram reads for the simulator: a socket's ReadBatch and a tap's, the
// one read each has. A read takes the first datagram under normal blocking
// rules and then drains what is already buffered with zero-timeout polls.
// vclock.Queue.Get(0) on a non-empty queue hands back the head without
// parking the proc or scheduling anything, and on an empty queue returns
// ErrTimeout equally event-free — so a read of n slots consumes exactly the
// queue states n reads of one slot would have seen and leaves the event
// schedule bit-for-bit unchanged (DESIGN.md §12).
package netsim

import (
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/vclock"
)

// ReadBatch implements netapi.UDPConn. Each delivered clone is copied into
// its caller's slot and recycled, so a reader returns in-flight buffers to
// the payload pool instead of retiring them to the GC.
func (c *UDPConn) ReadBatch(msgs []netapi.Datagram, timeout time.Duration) (int, error) {
	return take(c.q, len(msgs), timeout, func(i int, pkt Packet) {
		msgs[i].Store(pkt.Payload, pkt.Src)
		recycleBytes(pkt.Payload)
	})
}

// WriteBatch implements netapi.UDPConn. Each datagram is routed as its
// own delivery event, in slab order — the exact event sequence n WriteTo
// calls would schedule.
func (c *UDPConn) WriteBatch(msgs []netapi.Datagram) (int, error) {
	for i := range msgs {
		if err := c.WriteTo(msgs[i].Payload(), msgs[i].Addr); err != nil {
			return i, err
		}
	}
	return len(msgs), nil
}

// ReadBatch fills pkts with up to len(pkts) captured datagrams: the first
// under normal blocking rules (ErrTimeout, or ErrClosed once the tap is
// closed), the rest from the tap's existing backlog without parking. Each
// payload is the buffer the network delivered, handed on as it is.
func (t *Tap) ReadBatch(pkts []Packet, timeout time.Duration) (int, error) {
	return take(t.q, len(pkts), timeout, func(i int, pkt Packet) { pkts[i] = pkt })
}

// take is the one read of both: up to n packets from q, the first under
// timeout and the rest only while q already holds them, each handed to put
// with its slot index.
func take(q *vclock.Queue[Packet], n int, timeout time.Duration, put func(int, Packet)) (int, error) {
	for i := 0; i < n; i, timeout = i+1, 0 {
		pkt, err := q.Get(timeout)
		if err != nil && i == 0 {
			return 0, mapQueueErr(err)
		} else if err != nil {
			return i, nil
		}
		put(i, pkt)
	}
	return n, nil
}
