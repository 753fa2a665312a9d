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
	storeSimDatagram(&msgs[0], pkt)
	n := 1
	for n < len(msgs) {
		pkt, err := c.q.Get(0)
		if err != nil {
			break
		}
		storeSimDatagram(&msgs[n], pkt)
		n++
	}
	return n, nil
}

// WriteBatch implements netapi.BatchConn. Each datagram is routed as its
// own delivery event, in slab order — the exact event sequence n WriteTo
// calls would schedule.
func (c *UDPConn) WriteBatch(msgs []netapi.Datagram) (int, error) {
	for i := range msgs {
		if err := c.WriteTo(msgs[i].Buf[:msgs[i].N], msgs[i].Addr); err != nil {
			return i, err
		}
	}
	return len(msgs), nil
}

// storeSimDatagram copies a delivered packet into the slot under the slab
// contract (reuse capacity, truncate to cap, allocate only when empty) and
// recycles the network's clone.
func storeSimDatagram(d *netapi.Datagram, pkt Packet) {
	p := pkt.Payload
	if c := cap(d.Buf); c == 0 {
		d.Buf = append([]byte(nil), p...)
	} else {
		if len(p) > c {
			p = p[:c]
		}
		d.Buf = append(d.Buf[:0], p...)
	}
	d.N = len(p)
	d.Addr = pkt.Src
	recycleBytes(pkt.Payload)
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
