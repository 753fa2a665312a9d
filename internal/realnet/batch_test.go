package realnet

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"runtime"
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

// TestBatchRoundAllocs pins the socket calls at what the netapi contract
// makes them allocate: the RawConn callbacks, the address family and one
// syscall state per direction are cached on the socket, so a WriteBatch and
// the ReadBatch that drains it, a WriteTo and the one-slot read that takes
// it, and a TCP Write and the Read that drains it cost what the kernel
// charges and nothing on the heap: a read fills the caller's slot and copies
// nothing out of it. Per-packet garbage here would be paid on every query
// the guard forwards.
func TestBatchRoundAllocs(t *testing.T) {
	a, b := loopbackPair(t)
	const batch = 8
	payload := []byte("0123456789abcdef0123456789abcdef")
	out := make([]netapi.Datagram, batch)
	for i := range out {
		out[i].Set(payload, b.LocalAddr())
	}
	in := netapi.NewSlab(batch, 512)
	drain := func(want int) {
		for got := 0; got < want; {
			n, err := b.ReadBatch(in, time.Second)
			if err != nil {
				t.Fatalf("ReadBatch after %d of %d: %v", got, want, err)
			}
			got += n
		}
	}
	round := func() {
		if n, err := a.WriteBatch(out); n != batch || err != nil {
			t.Fatalf("WriteBatch = (%d, %v)", n, err)
		}
		drain(batch)
	}
	writeTo := func() {
		if err := a.WriteTo(payload, b.LocalAddr()); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
	}
	takeOne := func() {
		writeTo()
		if n, err := b.ReadBatch(in[:1], time.Second); n != 1 || err != nil || in[0].N != len(payload) {
			t.Fatalf("one-slot ReadBatch = (%d, %v), %d bytes", n, err, in[0].N)
		}
	}
	client, server := streamPair(t)
	buf := make([]byte, len(payload))
	stream := func() {
		if n, err := client.Write(payload); n != len(payload) || err != nil {
			t.Fatalf("TCP Write = (%d, %v)", n, err)
		}
		for got := 0; got < len(payload); {
			n, err := server.Read(buf[got:], time.Second)
			if err != nil {
				t.Fatalf("TCP Read after %d of %d bytes: %v", got, len(payload), err)
			}
			got += n
		}
	}
	round()  // sizes the cached syscall state
	stream() // clears the connect deadline
	// The portable build pins the batch round only: net's WriteTo allocates.
	native := runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64")
	for _, pin := range []struct {
		name   string
		run    func()
		want   float64
		native bool
	}{
		{"WriteBatch + ReadBatch round", round, 0, false},
		{"WriteTo + one-slot ReadBatch", takeOne, 0, true},
		{"TCP Write + Read round", stream, 0, true},
	} {
		if pin.native && !native {
			continue
		}
		if n := testing.AllocsPerRun(100, pin.run); n != pin.want {
			t.Errorf("%s allocates %.1f/op, want %v", pin.name, n, pin.want)
		}
	}
}

func streamPair(t *testing.T) (client, server netapi.Conn) {
	t.Helper()
	env := New()
	l, err := env.ListenTCP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if client, err = env.DialTCP(l.Addr()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if server, err = l.Accept(time.Second); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { server.Close() })
	return client, server
}

// TestBatchConcurrentReaders: procs reading one socket at once, which the
// conn contract allows, must not share syscall state. The cached
// state goes to whichever caller finds it free; the others read through a
// private one instead of waiting for a blocking read to end. make race runs
// it under -race at -cpu 1, 2 and 4.
func TestBatchConcurrentReaders(t *testing.T) {
	a, b := loopbackPair(t)
	const readers, each = 4, 64
	got := make(chan string, readers*each)
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		go func() {
			slab := netapi.NewSlab(4, 64)
			for {
				n, err := b.ReadBatch(slab, netapi.NoTimeout)
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

// TestShortDatagramsLeaveSpill: a datagram that fits its slot's head writes
// no byte of the slot's spill, so a slab that reads only short datagrams
// keeps only its heads resident; a longer one lands whole in its own spill
// and leaves the other slots' spills alone.
func TestShortDatagramsLeaveSpill(t *testing.T) {
	a, b := loopbackPair(t)
	const sentinel = 0x5A
	slab := netapi.NewSlab(4, 4097)
	for i := range slab {
		for k := range slab[i].Spill {
			slab[i].Spill[k] = sentinel
		}
	}
	send := func(sizes ...int) [][]byte {
		t.Helper()
		sent := make([][]byte, len(sizes))
		for j, size := range sizes {
			sent[j] = make([]byte, size)
			for k := range sent[j] {
				sent[j][k] = byte(k + j)
			}
			if err := a.WriteTo(sent[j], b.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
		for got := 0; got < len(sizes); {
			n, err := b.ReadBatch(slab[got:len(sizes)], time.Second)
			if err != nil {
				t.Fatalf("ReadBatch after %d of %d: %v", got, len(sizes), err)
			}
			got += n
		}
		for j := range sent {
			if !bytes.Equal(slab[j].Payload(), sent[j]) {
				t.Errorf("slot %d: %d bytes read, want the %d sent", j, slab[j].N, len(sent[j]))
			}
		}
		return sent
	}
	untouched := func(i int, from int) bool {
		for _, c := range slab[i].Spill[from:] {
			if c != sentinel {
				return false
			}
		}
		return true
	}
	send(40, 200, netapi.SlabHead-1, netapi.SlabHead)
	for i := range slab {
		if !untouched(i, 0) {
			t.Errorf("slot %d: a %d-byte datagram wrote into the spill", i, slab[i].N)
		}
	}
	sent := send(40, netapi.SlabHead+1)
	if !untouched(0, 0) || !untouched(1, len(sent[1])) || !untouched(2, 0) || !untouched(3, 0) {
		t.Error("a long datagram wrote past its own payload in the spills")
	}
}
