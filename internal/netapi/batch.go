package netapi

import "net/netip"

// SlabHead is the most a slot's head holds: RFC 1035's 512-byte UDP message
// limit, the size of nearly every DNS datagram. NewSlab lays a slab's heads
// out one after another, so a burst of short datagrams touches the pages of
// the heads it fills and nothing else.
const SlabHead = 512

// Datagram is one slot of a reusable batch slab: a head buffer, an optional
// full-size spill for datagrams the head cannot hold, the number of payload
// bytes the slot holds, and the peer address. A caller allocates a slab once
// (see NewSlab), hands it to ReadBatch over and over, and reads each filled
// slot's Payload in place. The slab's owner lends those bytes to whatever it
// calls: they are valid until the owner's next ReadBatch on the slab, which
// overwrites them, and code that keeps a payload past that point copies it.
type Datagram struct {
	// Buf is the slot's head. ReadBatch reuses the slot's existing
	// capacity; when Buf and Spill both have none the implementation
	// allocates. A payload that fits cap(Buf) lies in Buf[:N].
	Buf []byte
	// Spill, when set, is a slot longer than Buf and the slot's capacity: a
	// payload longer than cap(Buf) lies in Spill[:N], head bytes included.
	// Real-socket backends scatter a datagram straight into the head and
	// then the spill past cap(Buf), and copy the head over only when the
	// datagram is longer, so a short datagram writes no spill byte.
	//
	// A backend cannot grow the slot mid-syscall: a datagram longer than the
	// slot's capacity is silently truncated to it, exactly as a plain
	// recvfrom with a short buffer would, and the simulator applies the same
	// rule. Truncation is not reported separately, so N == capacity means
	// "at least that many bytes arrived": size slots one byte above the
	// largest datagram you accept and treat a full slot as oversize.
	Spill []byte
	// N is the payload length: bytes received for a read, bytes to send
	// for a write.
	N int
	// Addr is the peer: source address for a read, destination for a write.
	Addr netip.AddrPort
}

// Payload returns the filled portion of the slot: Spill[:N] when N is over
// the head's capacity, Buf[:N] otherwise.
func (d *Datagram) Payload() []byte {
	if d.N > cap(d.Buf) {
		return d.Spill[:d.N]
	}
	return d.Buf[:d.N]
}

// Set fills the slot for writing: the payload is copied into the slot's
// buffer (growing it if needed) so the caller's slice is not retained.
func (d *Datagram) Set(payload []byte, to netip.AddrPort) {
	d.Buf = append(d.Buf[:0], payload...)
	d.N = len(payload)
	d.Addr = to
}

// Store fills the slot as a read would, from p received from src: into the
// head when p fits it, into Spill otherwise, truncated at the slot's
// capacity — cap(Spill) when Spill is set, cap(Buf) when not. A slot with
// neither is allocated to fit. It is the slab contract for every backend
// that copies a datagram in rather than scattering it there.
func (d *Datagram) Store(p []byte, src netip.AddrPort) {
	switch {
	case len(p) <= cap(d.Buf):
		d.Buf = append(d.Buf[:0], p...)
	case cap(d.Spill) > 0:
		p = p[:min(len(p), cap(d.Spill))]
		copy(d.Spill[:cap(d.Spill)], p)
	default:
		if cap(d.Buf) > 0 {
			p = p[:cap(d.Buf)]
		}
		d.Buf = append(d.Buf[:0], p...)
	}
	d.N, d.Addr = len(p), src
}

// NewSlab allocates a batch slab of n slots of size bytes each, in at most
// two allocations: n heads of min(size, SlabHead) bytes, one after another,
// and, when size is over SlabHead, n spills of size bytes. A slab that reads
// only short datagrams keeps n × SlabHead bytes resident, however large
// size is.
func NewSlab(n, size int) []Datagram {
	head := min(size, SlabHead)
	heads := make([]byte, n*head)
	msgs := make([]Datagram, n)
	for i := range msgs {
		msgs[i].Buf = heads[i*head : (i+1)*head : (i+1)*head]
	}
	if size > head {
		spill := make([]byte, n*size)
		for i := range msgs {
			msgs[i].Spill = spill[i*size : (i+1)*size : (i+1)*size]
		}
	}
	return msgs
}

// AsBatch returns c.
//
// Deprecated: every UDPConn reads and writes slabs; call ReadBatch and
// WriteBatch on the conn itself. AsBatch goes with ROADMAP item 1(a).
func AsBatch(c UDPConn) UDPConn { return c }
