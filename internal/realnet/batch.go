// Batch datagram I/O for the real network: every UDP endpoint implements
// netapi.BatchConn. The portable path loops the single-datagram syscalls,
// reading straight into the caller's slab; on Linux (batch_linux.go) the
// whole slab moves in one recvmmsg/sendmmsg kernel crossing.

package realnet

import (
	"time"

	"dnsguard/internal/netapi"
)

// maxDatagram is the buffer size allocated for slab slots the caller left
// empty: the largest possible UDP payload.
const maxDatagram = 65536

var _ netapi.BatchConn = (*udpConn)(nil)

// ReadBatch implements netapi.BatchConn.
func (c *udpConn) ReadBatch(msgs []netapi.Datagram, timeout time.Duration) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	if haveMmsg {
		return c.readBatchOS(msgs, timeout)
	}
	return c.readBatchLoop(msgs, timeout)
}

// WriteBatch implements netapi.BatchConn.
func (c *udpConn) WriteBatch(msgs []netapi.Datagram) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	if haveMmsg {
		return c.writeBatchOS(msgs)
	}
	return c.writeBatchLoop(msgs)
}

// readBatchLoop is the portable path: one deadline-driven read for the first
// datagram, then zero-timeout polls for whatever else is already buffered.
func (c *udpConn) readBatchLoop(msgs []netapi.Datagram, timeout time.Duration) (int, error) {
	if err := c.readInto(&msgs[0], timeout); err != nil {
		return 0, err
	}
	n := 1
	for n < len(msgs) {
		if err := c.readInto(&msgs[n], 0); err != nil {
			break // drained (ErrTimeout) or closed; the n filled slots stand
		}
		n++
	}
	return n, nil
}

// readInto reads one datagram directly into the slot's buffer; a datagram
// longer than cap(Buf) is truncated by the kernel, per the slab contract.
func (c *udpConn) readInto(d *netapi.Datagram, timeout time.Duration) error {
	if err := c.setReadDeadline(timeout); err != nil {
		return err
	}
	if cap(d.Buf) == 0 {
		d.Buf = make([]byte, maxDatagram)
	}
	buf := d.Buf[:cap(d.Buf)]
	n, src, err := c.conn.ReadFromUDPAddrPort(buf)
	if err != nil {
		return mapErr(err)
	}
	d.Buf, d.N, d.Addr = buf[:n], n, unmap(src)
	return nil
}

func (c *udpConn) writeBatchLoop(msgs []netapi.Datagram) (int, error) {
	for i := range msgs {
		if _, err := c.conn.WriteToUDPAddrPort(msgs[i].Buf[:msgs[i].N], msgs[i].Addr); err != nil {
			return i, mapErr(err)
		}
	}
	return len(msgs), nil
}
