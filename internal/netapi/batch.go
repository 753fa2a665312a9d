package netapi

import (
	"net/netip"
	"time"
)

// Datagram is one slot of a reusable batch slab: a payload buffer, the number
// of payload bytes it holds, and the peer address. A caller allocates a slab
// once (see NewSlab), hands it to ReadBatch over and over, and reads each
// filled slot's Buf[:N] in place. The slab's owner lends those bytes to
// whatever it calls: they are valid until the owner's next ReadBatch on the
// slab, and code that keeps a payload past that point copies it.
type Datagram struct {
	// Buf holds the payload. ReadBatch fills Buf[:N] in place, reusing the
	// slot's existing capacity; when cap(Buf) is zero the implementation
	// allocates. Real-socket backends scatter datagrams straight into Buf
	// and therefore cannot grow it mid-syscall: a datagram longer than
	// cap(Buf) is silently truncated to cap(Buf), exactly as a plain
	// recvfrom with a short buffer would, and the simulator applies the
	// same rule. Truncation is not reported separately, so N == cap(Buf)
	// means "at least cap(Buf) bytes arrived": size slots one byte above
	// the largest datagram you accept and treat a full slot as oversize.
	Buf []byte
	// N is the payload length: bytes received for a read, bytes to send
	// for a write.
	N int
	// Addr is the peer: source address for a read, destination for a write.
	Addr netip.AddrPort
}

// Payload returns the filled portion of the slot, Buf[:N].
func (d *Datagram) Payload() []byte { return d.Buf[:d.N] }

// Set fills the slot for writing: the payload is copied into the slot's
// buffer (growing it if needed) so the caller's slice is not retained.
func (d *Datagram) Set(payload []byte, to netip.AddrPort) {
	d.Buf = append(d.Buf[:0], payload...)
	d.N = len(payload)
	d.Addr = to
}

// NewSlab allocates a batch slab of n datagram slots, each backed by a
// size-byte buffer carved from one contiguous allocation.
func NewSlab(n, size int) []Datagram {
	backing := make([]byte, n*size)
	msgs := make([]Datagram, n)
	for i := range msgs {
		msgs[i].Buf = backing[i*size : (i+1)*size : (i+1)*size]
	}
	return msgs
}

// BatchConn is an optional UDPConn capability: moving several datagrams per
// call. Backends that can amortize per-datagram cost implement it natively —
// realnet batches kernel crossings with recvmmsg/sendmmsg on Linux, netsim
// drains its delivery queue without touching the event schedule. Obtain one
// with AsBatch, which falls back to a portable per-datagram loop over any
// UDPConn, so callers can be written against BatchConn unconditionally.
type BatchConn interface {
	// ReadBatch fills up to len(msgs) slots and returns the number filled.
	// It blocks per netapi timeout rules for the first datagram (NoTimeout
	// blocks; zero polls; ErrTimeout/ErrClosed on failure) and then takes
	// only what is already buffered — it never waits to fill the slab, so
	// n >= 1 whenever err is nil. Filled slots are valid until the next
	// ReadBatch on the same slab.
	ReadBatch(msgs []Datagram, timeout time.Duration) (n int, err error)
	// WriteBatch sends msgs[i].Buf[:msgs[i].N] to msgs[i].Addr for each
	// slot, in order, and returns the number sent. Delivery is
	// best-effort; a non-nil error reports the first send failure.
	WriteBatch(msgs []Datagram) (n int, err error)
}

// AsBatch returns c's native BatchConn implementation when it has one, and
// otherwise wraps c in a portable adapter that loops ReadFrom/WriteTo (one
// blocking read, then zero-timeout polls to drain what is buffered).
func AsBatch(c UDPConn) BatchConn {
	if bc, ok := c.(BatchConn); ok {
		return bc
	}
	return LoopBatch(c)
}

// LoopBatch wraps any UDPConn in the portable per-datagram BatchConn
// adapter, regardless of native support. AsBatch should be preferred;
// LoopBatch exists so the conformance suite can pin the fallback's semantics
// even on platforms where the native path is compiled in.
func LoopBatch(c UDPConn) BatchConn { return loopBatch{c} }

type loopBatch struct{ c UDPConn }

func (l loopBatch) ReadBatch(msgs []Datagram, timeout time.Duration) (int, error) {
	if len(msgs) == 0 {
		return 0, nil
	}
	b, src, err := l.c.ReadFrom(timeout)
	if err != nil {
		return 0, err
	}
	storeDatagram(&msgs[0], b, src)
	n := 1
	for n < len(msgs) {
		b, src, err := l.c.ReadFrom(0)
		if err != nil {
			break // drained (ErrTimeout) or closed; the n we have stand
		}
		storeDatagram(&msgs[n], b, src)
		n++
	}
	return n, nil
}

func (l loopBatch) WriteBatch(msgs []Datagram) (int, error) {
	for i := range msgs {
		if err := l.c.WriteTo(msgs[i].Buf[:msgs[i].N], msgs[i].Addr); err != nil {
			return i, err
		}
	}
	return len(msgs), nil
}

// storeDatagram copies payload into the slot under the slab contract:
// reuse the slot's capacity, truncate to cap(Buf) when the payload is
// longer, allocate only when the slot has no buffer at all.
func storeDatagram(d *Datagram, payload []byte, src netip.AddrPort) {
	if c := cap(d.Buf); c == 0 {
		d.Buf = append([]byte(nil), payload...)
	} else {
		if len(payload) > c {
			payload = payload[:c]
		}
		d.Buf = append(d.Buf[:0], payload...)
	}
	d.N = len(payload)
	d.Addr = src
}
