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
	lent  [][]byte
	reads atomic.Uint64 // reads begun, each after poisoning the one before
}

func (p *poisonIO) ReadBatch(pkts []Packet, timeout time.Duration) (int, error) {
	for _, b := range p.lent {
		for i := range b {
			b[i] = poisonByte
		}
	}
	p.lent = p.lent[:0]
	p.reads.Add(1)
	n, err := p.scriptIO.ReadBatch(pkts, timeout)
	for i := 0; i < n; i++ {
		p.lent = append(p.lent, pkts[i].Payload)
	}
	return n, err
}

func (p *poisonIO) Read(timeout time.Duration) (Packet, error) {
	var one [1]Packet
	_, err := p.ReadBatch(one[:], timeout)
	return one[0], err
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

// intactHandler checks each packet's bytes at the moment it is handled. gate
// holds the workers back until the reader is done, where there is one.
type intactHandler struct {
	t       *testing.T
	gate    <-chan struct{}
	handled *atomic.Uint64
}

func (h intactHandler) HandlePacket(pkt Packet) {
	<-h.gate
	a := pkt.Src.Addr().As4()
	seq := int(a[2])<<8 | int(a[3])
	if !bytes.Equal(pkt.Payload, borrowPayload(seq)) {
		h.t.Errorf("packet %d reached its handler as %x", seq, pkt.Payload)
	}
	h.handled.Add(1)
}

// TestBorrowedPayloadIngest: with every lent payload overwritten before the
// next read, each topology still hands its handlers the bytes that arrived.
// The shard loop is done with a slab before it reads again; the fan-out
// reader is not — its groups wait in queues while it reads on, and here the
// workers are held until it has read (and so poisoned) everything — so the
// groups must own copies.
func TestBorrowedPayloadIngest(t *testing.T) {
	const perIO, batch = 64, 8
	for _, m := range topologies {
		t.Run(m.name, func(t *testing.T) {
			ios := make([]PacketIO, m.ios)
			pios := make([]*poisonIO, m.ios)
			total := 0
			for i := range ios {
				var script []Packet
				for k := 0; k < perIO; k++ {
					script = append(script, Packet{Src: srcAP(total), Payload: borrowPayload(total)})
					total++
				}
				pios[i] = &poisonIO{scriptIO: newScriptIO(script)}
				ios[i] = pios[i]
			}
			gate := make(chan struct{})
			var handled atomic.Uint64
			e, err := New(Config{
				Env:        realnet.New(),
				IOs:        ios,
				Shards:     m.shards,
				Batch:      batch,
				HashSeed:   7,
				NewHandler: func(int) Handler { return intactHandler{t, gate, &handled} },
			})
			if err != nil {
				t.Fatal(err)
			}
			e.Start()
			defer e.Close()
			if m.name == "hash" {
				// The read after the last full slab poisons that slab.
				deadline := time.Now().Add(5 * time.Second)
				for pios[0].reads.Load() <= perIO/batch {
					if time.Now().After(deadline) {
						t.Fatalf("reader stalled after %d reads", pios[0].reads.Load())
					}
					time.Sleep(time.Millisecond)
				}
			}
			close(gate)
			waitCount(t, &handled, uint64(total))
		})
	}
}
