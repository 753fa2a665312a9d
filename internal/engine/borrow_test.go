package engine

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"dnsguard/internal/realnet"
)

const poisonByte = 0xA5

// poisonIO wraps a scripted interface and makes the borrow rule bite: before
// every read it scribbles over every payload the previous read lent out.
type poisonIO struct {
	*scriptIO
	lent [][]byte
}

func (p *poisonIO) ReadBatch(pkts []Packet, timeout time.Duration) (int, error) {
	for _, b := range p.lent {
		for i := range b {
			b[i] = poisonByte
		}
	}
	p.lent = p.lent[:0]
	n, err := p.scriptIO.ReadBatch(pkts, timeout)
	for i := 0; i < n; i++ {
		p.lent = append(p.lent, pkts[i].Payload)
	}
	return n, err
}

// borrowPayload is the payload packet seq carries; the sequence number rides
// in the source address (srcAP), so a handler can tell what the bytes should
// have been even when they were overwritten.
func borrowPayload(seq int) []byte {
	b := make([]byte, 40)
	for i := range b {
		b[i] = byte(seq*7 + i)
	}
	return b
}

// intactHandler checks each packet's bytes at the moment it is handled.
type intactHandler struct {
	t       *testing.T
	handled *atomic.Uint64
}

func (h intactHandler) HandlePacket(pkt Packet) {
	a := pkt.Src.Addr().As4()
	seq := int(a[2])<<8 | int(a[3])
	if !bytes.Equal(pkt.Payload, borrowPayload(seq)) {
		h.t.Errorf("packet %d reached its handler as %x", seq, pkt.Payload)
	}
	h.handled.Add(1)
}

// TestBorrowedPayloadIngest: with every lent payload overwritten before the
// next read, each topology still hands its handlers the bytes that arrived:
// a shard loop is done with a slab before it reads again, so it may lend
// the interface's bytes to its handler uncopied.
func TestBorrowedPayloadIngest(t *testing.T) {
	const total, batch = 192, 8
	for mi, m := range topologies {
		t.Run(m.name, func(t *testing.T) {
			pkts := make([]Packet, total)
			for i := range pkts {
				pkts[i] = Packet{Src: srcAP(i), Payload: borrowPayload(i)}
			}
			var ios []PacketIO
			for _, script := range deal(mi, pkts) {
				ios = append(ios, &poisonIO{scriptIO: newScriptIO(script)})
			}
			var handled atomic.Uint64
			e, err := New(Config{
				Env:        realnet.New(),
				IOs:        ios,
				Batch:      batch,
				NewHandler: func(int) Handler { return intactHandler{t, &handled} },
			})
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Close()
			waitCount(t, &handled, total)
		})
	}
}
