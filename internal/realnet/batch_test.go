package realnet

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/netapi"
)

func loopbackPair(t *testing.T) (a, b netapi.UDPConn) {
	t.Helper()
	env := New()
	lo := netip.MustParseAddrPort("127.0.0.1:0")
	a, err := env.ListenUDP(lo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	b, err = env.ListenUDP(lo)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return a, b
}

// TestBatchRoundAllocs pins the batch calls at no allocation per call: the
// RawConn, the address family and one syscall state per direction are cached
// on the socket, so a WriteBatch and the ReadBatch that drains it cost what
// the kernel charges and nothing on the heap.
func TestBatchRoundAllocs(t *testing.T) {
	a, b := loopbackPair(t)
	ab, bb := netapi.AsBatch(a), netapi.AsBatch(b)
	const batch = 8
	out := make([]netapi.Datagram, batch)
	for i := range out {
		out[i].Set([]byte("0123456789abcdef0123456789abcdef"), b.LocalAddr())
	}
	in := netapi.NewSlab(batch, 512)
	round := func() {
		if n, err := ab.WriteBatch(out); n != batch || err != nil {
			t.Fatalf("WriteBatch = (%d, %v)", n, err)
		}
		for got := 0; got < batch; {
			n, err := bb.ReadBatch(in, time.Second)
			if err != nil {
				t.Fatalf("ReadBatch after %d of %d: %v", got, batch, err)
			}
			got += n
		}
	}
	round() // sizes the cached syscall state
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("one WriteBatch + ReadBatch round allocates %.1f/op, want 0", n)
	}
}

// TestBatchConcurrentReaders: procs reading one socket at once, which the
// conn contract allows, must not share syscall state. The cached
// state goes to whichever caller finds it free; the others read through a
// private one instead of waiting for a blocking read to end. Run under
// -race.
func TestBatchConcurrentReaders(t *testing.T) {
	a, b := loopbackPair(t)
	bb := netapi.AsBatch(b)
	const readers, each = 4, 64
	got := make(chan string, readers*each)
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			slab := netapi.NewSlab(4, 64)
			for {
				n, err := bb.ReadBatch(slab, netapi.NoTimeout)
				if err != nil {
					errs <- err
					return
				}
				for i := 0; i < n; i++ {
					got <- string(slab[i].Payload())
				}
			}
		}()
	}
	want := make(map[string]bool)
	for i := 0; i < readers*each; i++ {
		p := fmt.Sprintf("dgram-%03d", i)
		want[p] = true
		if err := a.WriteTo([]byte(p), b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
		if i%16 == 15 {
			time.Sleep(time.Millisecond) // stay inside the receive buffer
		}
	}
	for len(want) > 0 {
		select {
		case p := <-got:
			if !want[p] {
				t.Fatalf("read %q: corrupt or duplicated", p)
			}
			delete(want, p)
		case <-time.After(5 * time.Second):
			t.Fatalf("%d datagrams never read", len(want))
		}
	}
	b.Close()
	for r := 0; r < readers; r++ {
		if err := <-errs; !errors.Is(err, netapi.ErrClosed) {
			t.Errorf("reader ended with %v, want ErrClosed", err)
		}
	}
}
