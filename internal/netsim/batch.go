// Batch datagram I/O for the simulator: netapi.BatchConn on simulated
// sockets and a batch read on taps. A batch read takes the first datagram
// under normal blocking rules and then drains what is already buffered with
// zero-timeout polls. vclock.Queue.Get(0) on a non-empty queue hands back
// the head without parking the proc or scheduling anything, and on an empty
// queue returns ErrTimeout equally event-free — so a batch read consumes
// exactly the queue states a loop of single reads would have seen and leaves
// the event schedule bit-for-bit unchanged (DESIGN.md §12).
package netsim

import (
	"time"

	"dnsguard/internal/netapi"
)

var _ netapi.BatchConn = (*UDPConn)(nil)

// ReadBatch implements netapi.BatchConn. Delivered clones are copied into
// the slab and recycled, so a batch-reading consumer returns in-flight
// buffers to the payload pool instead of retiring them to the GC.
func (c *UDPConn) ReadBatch(msgs []netapi.Datagram, timeout time.Duration) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	pkt, err := c.q.Get(timeout)
	if err != nil {
		return 0, mapQueueErr(err)
	}
	msgs[0].Store(pkt.Payload, pkt.Src)
	recycleBytes(pkt.Payload)
	n := 1
	for n < len(msgs) {
		pkt, err := c.q.Get(0)
		if err != nil {
			break
		}
		msgs[n].Store(pkt.Payload, pkt.Src)
		recycleBytes(pkt.Payload)
		n++
	}
	return n, nil
}

// WriteBatch implements netapi.BatchConn. Each datagram is routed as its
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
// under normal blocking rules, the rest from the tap's existing backlog
// without parking. Payloads are caller-owned, as with Read.
func (t *Tap) ReadBatch(pkts []Packet, timeout time.Duration) (int, error) {
	if len(pkts) == 0 {
		return 0, nil
	}
	pkt, err := t.q.Get(timeout)
	if err != nil {
		return 0, mapQueueErr(err)
	}
	pkts[0] = pkt
	n := 1
	for n < len(pkts) {
		pkt, err := t.q.Get(0)
		if err != nil {
			break
		}
		pkts[n] = pkt
		n++
	}
	return n, nil
}
