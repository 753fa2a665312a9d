// Package netapitest is the cross-backend conformance suite for netapi
// environments. Every behavioral contract the rest of the repository leans
// on — timeout semantics (NoTimeout blocks, zero polls, ErrTimeout/ErrClosed
// matched with errors.Is), ephemeral-port binding, the slab rules of the one
// datagram read (no wait-to-fill, truncate-to-cap, allocate-when-empty, and a
// payload lent until the next read into its slot) and the same
// timeout and close rules for streams
// (a refused dial is ErrRefused, the peer's clean close ErrClosed) — is
// pinned here and run against both internal/netsim and internal/realnet, so
// a divergence between the simulator and the real stack fails a test
// instead of surfacing as a production-only bug.
//
// Backends with cooperative schedulers (netsim) run each check inside a
// scheduler proc, where t.Fatalf's runtime.Goexit would wedge the virtual
// clock — checks therefore report with t.Errorf and return.
package netapitest

import (
	"bytes"
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/netapi"
)

// Backend adapts one netapi.Env implementation to the suite.
type Backend struct {
	// Name labels the subtests.
	Name string
	// Addr is an address the environment can bind UDP sockets and TCP
	// listeners on (the host's own address under netsim, with a TCP stack
	// attached; a loopback address under realnet).
	Addr netip.Addr
	// Run executes fn with a fresh Env in a context where netapi blocking
	// calls are legal — the test goroutine for preemptive backends, a
	// scheduler proc (with the scheduler then run to completion) for
	// cooperative ones. Run must not return until fn has.
	Run func(t *testing.T, fn func(env netapi.Env))
}

// Run executes the full conformance suite against b.
func Run(t *testing.T, b Backend) {
	t.Run("ZeroPortBind", func(t *testing.T) { b.Run(t, func(env netapi.Env) { testZeroPortBind(t, b, env) }) })
	t.Run("TimeoutPoll", func(t *testing.T) { b.Run(t, func(env netapi.Env) { testTimeoutPoll(t, b, env) }) })
	t.Run("TimeoutElapses", func(t *testing.T) { b.Run(t, func(env netapi.Env) { testTimeoutElapses(t, b, env) }) })
	t.Run("RoundTrip", func(t *testing.T) { b.Run(t, func(env netapi.Env) { testRoundTrip(t, b, env) }) })
	t.Run("Close", func(t *testing.T) { b.Run(t, func(env netapi.Env) { testClose(t, b, env) }) })
	t.Run("StreamRoundTrip", func(t *testing.T) { b.Run(t, func(env netapi.Env) { testStreamRoundTrip(t, b, env) }) })
	t.Run("StreamAcceptPoll", func(t *testing.T) { b.Run(t, func(env netapi.Env) { testStreamAcceptPoll(t, b, env) }) })
	t.Run("StreamReadPoll", func(t *testing.T) { b.Run(t, func(env netapi.Env) { testStreamReadPoll(t, b, env) }) })
	t.Run("StreamTimeout", func(t *testing.T) { b.Run(t, func(env netapi.Env) { testStreamTimeout(t, b, env) }) })
	t.Run("StreamRefused", func(t *testing.T) { b.Run(t, func(env netapi.Env) { testStreamRefused(t, b, env) }) })
	t.Run("StreamPeerClose", func(t *testing.T) { b.Run(t, func(env netapi.Env) { testStreamPeerClose(t, b, env) }) })
	t.Run("StreamClose", func(t *testing.T) { b.Run(t, func(env netapi.Env) { testStreamClose(t, b, env) }) })
	t.Run("BatchBorrow", func(t *testing.T) { b.Run(t, func(env netapi.Env) { testBatchBorrow(t, b, env) }) })
	for _, mode := range []batchMode{{"Native", native}, {"Loop", slotLoop}} {
		mode := mode
		t.Run("BatchRead/"+mode.name, func(t *testing.T) {
			b.Run(t, func(env netapi.Env) { testBatchRead(t, b, env, mode) })
		})
		t.Run("BatchSlab/"+mode.name, func(t *testing.T) {
			b.Run(t, func(env netapi.Env) { testBatchSlab(t, b, env, mode) })
		})
		t.Run("BatchWrite/"+mode.name, func(t *testing.T) {
			b.Run(t, func(env netapi.Env) { testBatchWrite(t, b, env, mode) })
		})
	}
}

// Recv reads one datagram from c into a slot of its own, which the backend
// allocates to fit: a test's way to take a datagram it keeps.
func Recv(c netapi.UDPConn, timeout time.Duration) ([]byte, netip.AddrPort, error) {
	var slot [1]netapi.Datagram
	_, err := c.ReadBatch(slot[:], timeout)
	return slot[0].Payload(), slot[0].Addr, err
}

// batchMode selects how the suite moves a slab: Native hands it to one
// ReadBatch or WriteBatch, Loop one slot at a time — each slot a slab of one,
// the first read under the caller's timeout and the rest polled, each write
// a WriteTo. The rules hold the same both ways: a single datagram is a slab
// of one.
type batchMode struct {
	name string
	wrap func(netapi.UDPConn) netapi.UDPConn
}

func native(c netapi.UDPConn) netapi.UDPConn   { return c }
func slotLoop(c netapi.UDPConn) netapi.UDPConn { return loop{c} }

type loop struct{ netapi.UDPConn }

func (l loop) ReadBatch(msgs []netapi.Datagram, timeout time.Duration) (int, error) {
	for n := range msgs {
		if _, err := l.UDPConn.ReadBatch(msgs[n:n+1], timeout); err != nil && n == 0 {
			return 0, err
		} else if err != nil {
			return n, nil // drained (ErrTimeout) or closed: the n we have stand
		}
		timeout = 0
	}
	return len(msgs), nil
}

func (l loop) WriteBatch(msgs []netapi.Datagram) (int, error) {
	for i := range msgs {
		if err := l.WriteTo(msgs[i].Payload(), msgs[i].Addr); err != nil {
			return i, err
		}
	}
	return len(msgs), nil
}

// settle is how long the suite waits for sent datagrams to be buffered at
// the receiver before draining them (simulated link latency, loopback
// scheduling).
const settle = 250 * time.Millisecond

func bind(t *testing.T, b Backend, env netapi.Env) netapi.UDPConn {
	t.Helper()
	c, err := env.ListenUDP(netip.AddrPortFrom(b.Addr, 0))
	if err != nil {
		t.Errorf("ListenUDP(%v:0): %v", b.Addr, err)
		return nil
	}
	return c
}

func testZeroPortBind(t *testing.T, b Backend, env netapi.Env) {
	c1 := bind(t, b, env)
	c2 := bind(t, b, env)
	if c1 == nil || c2 == nil {
		return
	}
	defer c1.Close()
	defer c2.Close()
	a1, a2 := c1.LocalAddr(), c2.LocalAddr()
	if a1.Addr() != b.Addr || a2.Addr() != b.Addr {
		t.Errorf("bound addresses %v, %v; want %v", a1.Addr(), a2.Addr(), b.Addr)
	}
	if a1.Port() == 0 || a2.Port() == 0 {
		t.Errorf("ephemeral bind produced zero port: %v, %v", a1, a2)
	}
	if a1.Port() == a2.Port() {
		t.Errorf("two ephemeral binds share port %d", a1.Port())
	}
	// A fully zero AddrPort must also bind (the backend picks address and
	// port); only the non-zero port is portable across backends.
	c3, err := env.ListenUDP(netip.AddrPort{})
	if err != nil {
		t.Errorf("ListenUDP(zero AddrPort): %v", err)
		return
	}
	defer c3.Close()
	if c3.LocalAddr().Port() == 0 {
		t.Errorf("zero-AddrPort bind produced zero port: %v", c3.LocalAddr())
	}
}

func testTimeoutPoll(t *testing.T, b Backend, env netapi.Env) {
	c := bind(t, b, env)
	if c == nil {
		return
	}
	defer c.Close()
	if _, _, err := Recv(c, 0); !errors.Is(err, netapi.ErrTimeout) {
		t.Errorf("poll on empty socket: err = %v, want errors.Is ErrTimeout", err)
	}
	// A poll must also see a datagram that is already buffered: this is the
	// rule a deadline-of-exactly-now implementation breaks (the deadline
	// timer beats the recv attempt and buffered data becomes unreachable).
	if err := c.WriteTo([]byte("poll"), c.LocalAddr()); err != nil {
		t.Errorf("self WriteTo: %v", err)
		return
	}
	env.Sleep(settle)
	payload, _, err := Recv(c, 0)
	if err != nil || string(payload) != "poll" {
		t.Errorf("poll with buffered datagram = %q, %v; want \"poll\", nil", payload, err)
	}
}

func testTimeoutElapses(t *testing.T, b Backend, env netapi.Env) {
	c := bind(t, b, env)
	if c == nil {
		return
	}
	defer c.Close()
	const wait = 30 * time.Millisecond
	start := env.Now()
	_, _, err := Recv(c, wait)
	if !errors.Is(err, netapi.ErrTimeout) {
		t.Errorf("timed read: err = %v, want errors.Is ErrTimeout", err)
	}
	if elapsed := env.Now() - start; elapsed < wait {
		t.Errorf("timed read returned after %v, before the %v timeout", elapsed, wait)
	}
}

func testRoundTrip(t *testing.T, b Backend, env netapi.Env) {
	sender, receiver := bind(t, b, env), bind(t, b, env)
	if sender == nil || receiver == nil {
		return
	}
	defer sender.Close()
	defer receiver.Close()
	payload := []byte("conformance round trip")
	if err := sender.WriteTo(payload, receiver.LocalAddr()); err != nil {
		t.Errorf("WriteTo: %v", err)
		return
	}
	got, src, err := Recv(receiver, 5*time.Second)
	if err != nil {
		t.Errorf("ReadBatch: %v", err)
		return
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %q, want %q", got, payload)
	}
	if src != sender.LocalAddr() {
		t.Errorf("source = %v, want %v", src, sender.LocalAddr())
	}
}

func testClose(t *testing.T, b Backend, env netapi.Env) {
	c := bind(t, b, env)
	if c == nil {
		return
	}
	// Closing from another proc must unblock an indefinitely blocked read
	// with ErrClosed.
	env.Go("closer", func() {
		env.Sleep(20 * time.Millisecond)
		_ = c.Close()
	})
	if _, _, err := Recv(c, netapi.NoTimeout); !errors.Is(err, netapi.ErrClosed) {
		t.Errorf("blocked read on closed socket: err = %v, want errors.Is ErrClosed", err)
	}
	if _, _, err := Recv(c, 0); !errors.Is(err, netapi.ErrClosed) {
		t.Errorf("poll on closed socket: err = %v, want errors.Is ErrClosed", err)
	}
	if err := c.WriteTo([]byte("x"), c.LocalAddr()); !errors.Is(err, netapi.ErrClosed) {
		t.Errorf("write on closed socket: err = %v, want errors.Is ErrClosed", err)
	}
	slab := netapi.NewSlab(2, 64)
	if _, err := c.ReadBatch(slab, 0); !errors.Is(err, netapi.ErrClosed) {
		t.Errorf("batch read on closed socket: err = %v, want errors.Is ErrClosed", err)
	}
}

// testBatchBorrow: a read fills the caller's slot and hands out the slot's
// own bytes, so the next read into that slot overwrites the payload the last
// one returned, in the head and in the spill alike. Every reader that takes
// a payload in place and copies only what it keeps past its next read leans
// on this.
func testBatchBorrow(t *testing.T, b Backend, env netapi.Env) {
	sender, receiver := bind(t, b, env), bind(t, b, env)
	if sender == nil || receiver == nil {
		return
	}
	defer sender.Close()
	defer receiver.Close()
	slot := netapi.NewSlab(1, 2048)
	for _, size := range []int{netapi.SlabHead, 1500} {
		var lent []byte
		for _, fill := range []byte{'a', 'b'} {
			if err := sender.WriteTo(bytes.Repeat([]byte{fill}, size), receiver.LocalAddr()); err != nil {
				t.Errorf("WriteTo: %v", err)
				return
			}
			if n, err := receiver.ReadBatch(slot, 5*time.Second); n != 1 || err != nil {
				t.Errorf("ReadBatch of %d bytes = (%d, %v)", size, n, err)
				return
			}
			if lent == nil {
				lent = slot[0].Payload()
			}
		}
		if want := bytes.Repeat([]byte{'b'}, size); !bytes.Equal(lent, want) || !bytes.Equal(slot[0].Payload(), want) {
			t.Errorf("%d bytes: the first read's payload reads %.8q… after the second read into its slot, want the second datagram's bytes", size, lent)
		}
	}
}

func testBatchRead(t *testing.T, b Backend, env netapi.Env, mode batchMode) {
	sender, receiver := bind(t, b, env), bind(t, b, env)
	if sender == nil || receiver == nil {
		return
	}
	defer sender.Close()
	defer receiver.Close()
	bc := mode.wrap(receiver)

	const sent = 3
	for i := 0; i < sent; i++ {
		if err := sender.WriteTo([]byte(fmt.Sprintf("dgram-%d", i)), receiver.LocalAddr()); err != nil {
			t.Errorf("WriteTo #%d: %v", i, err)
			return
		}
	}
	env.Sleep(settle)

	// The slab has more slots than datagrams exist: a blocking ReadBatch
	// must still return — it takes the first datagram under blocking rules
	// and then only what is already buffered, never waiting to fill.
	slab := netapi.NewSlab(sent+5, 64)
	total := 0
	for total < sent {
		timeout := netapi.NoTimeout
		if total > 0 {
			timeout = 5 * time.Second
		}
		n, err := bc.ReadBatch(slab[total:], timeout)
		if err != nil {
			t.Errorf("ReadBatch after %d datagrams: %v", total, err)
			return
		}
		if n < 1 {
			t.Errorf("ReadBatch returned n = %d with nil error; contract is n >= 1", n)
			return
		}
		total += n
	}
	for i := 0; i < sent; i++ {
		want := fmt.Sprintf("dgram-%d", i)
		if got := string(slab[i].Payload()); got != want {
			t.Errorf("slot %d payload = %q, want %q", i, got, want)
		}
		if slab[i].Addr != sender.LocalAddr() {
			t.Errorf("slot %d source = %v, want %v", i, slab[i].Addr, sender.LocalAddr())
		}
	}
	if n, err := bc.ReadBatch(slab, 0); !errors.Is(err, netapi.ErrTimeout) {
		t.Errorf("ReadBatch poll on drained socket = (%d, %v), want errors.Is ErrTimeout", n, err)
	}
	if n, err := bc.ReadBatch(nil, 0); n != 0 || err != nil {
		t.Errorf("ReadBatch with empty slab = (%d, %v), want (0, nil)", n, err)
	}
}

func testBatchSlab(t *testing.T, b Backend, env netapi.Env, mode batchMode) {
	sender, receiver := bind(t, b, env), bind(t, b, env)
	if sender == nil || receiver == nil {
		return
	}
	defer sender.Close()
	defer receiver.Close()
	bc := mode.wrap(receiver)
	payload := []byte("0123456789")

	// An empty slot (cap 0) is allocated by the implementation.
	if err := sender.WriteTo(payload, receiver.LocalAddr()); err != nil {
		t.Errorf("WriteTo: %v", err)
		return
	}
	env.Sleep(settle)
	empty := make([]netapi.Datagram, 1)
	if n, err := bc.ReadBatch(empty, 5*time.Second); n != 1 || err != nil {
		t.Errorf("ReadBatch into empty slot = (%d, %v)", n, err)
		return
	}
	if !bytes.Equal(empty[0].Payload(), payload) {
		t.Errorf("empty-slot payload = %q, want %q", empty[0].Payload(), payload)
	}

	// A datagram longer than the slot's capacity is truncated to cap — the
	// same thing a plain recvfrom with a short buffer does — and nothing
	// else reports it: a slot of capacity L holding L bytes means "L or
	// more arrived". The guard sizes slots one byte over its datagram limit
	// and reads a full slot as oversize, so every backend must agree on all
	// three sides of L, and on all three sides of the slot's head, where a
	// payload moves from Buf to Spill.
	const L = 4097
	big := make([]byte, L+1)
	for i := range big {
		big[i] = byte(i)
	}
	slot := netapi.NewSlab(1, L)
	for _, size := range []int{netapi.SlabHead - 1, netapi.SlabHead, netapi.SlabHead + 1, L - 1, L, L + 1} {
		if err := sender.WriteTo(big[:size], receiver.LocalAddr()); err != nil {
			t.Errorf("WriteTo %d bytes: %v", size, err)
			return
		}
		env.Sleep(settle)
		if n, err := bc.ReadBatch(slot, 5*time.Second); n != 1 || err != nil {
			t.Errorf("ReadBatch of %d bytes into a %d-byte slot = (%d, %v)", size, L, n, err)
			return
		}
		want := big[:min(size, L)]
		if slot[0].N != len(want) || !bytes.Equal(slot[0].Payload(), want) {
			t.Errorf("%d bytes into a %d-byte slot: N = %d, want %d with the leading bytes intact", size, L, slot[0].N, len(want))
		}
	}

	// Short and long datagrams in one batch: each slot's payload is its own,
	// byte for byte, whether it lies in the head or the spill.
	sizes := []int{100, 1000, netapi.SlabHead, L}
	sent := make([][]byte, len(sizes))
	for k, size := range sizes {
		sent[k] = make([]byte, size)
		for i := range sent[k] {
			sent[k][i] = byte(i*(k+3) + k)
		}
		if err := sender.WriteTo(sent[k], receiver.LocalAddr()); err != nil {
			t.Errorf("WriteTo %d bytes: %v", size, err)
			return
		}
	}
	env.Sleep(settle)
	slab := netapi.NewSlab(len(sizes), L)
	for total := 0; total < len(sizes); {
		n, err := bc.ReadBatch(slab[total:], 5*time.Second)
		if err != nil {
			t.Errorf("mixed batch: ReadBatch after %d of %d: %v", total, len(sizes), err)
			return
		}
		total += n
	}
	for k := range sizes {
		if !bytes.Equal(slab[k].Payload(), sent[k]) {
			t.Errorf("mixed batch, slot %d: %d bytes read, want the %d sent", k, slab[k].N, len(sent[k]))
		}
	}
}

func testBatchWrite(t *testing.T, b Backend, env netapi.Env, mode batchMode) {
	sender, receiver := bind(t, b, env), bind(t, b, env)
	if sender == nil || receiver == nil {
		return
	}
	defer sender.Close()
	defer receiver.Close()
	bc := mode.wrap(sender)

	const sent = 4
	views := make([]netapi.Datagram, sent)
	for i := range views {
		views[i].Set([]byte(fmt.Sprintf("batch-write-%d", i)), receiver.LocalAddr())
	}
	if n, err := bc.WriteBatch(views); n != sent || err != nil {
		t.Errorf("WriteBatch = (%d, %v), want (%d, nil)", n, err, sent)
		return
	}
	for i := 0; i < sent; i++ {
		payload, src, err := Recv(receiver, 5*time.Second)
		if err != nil {
			t.Errorf("ReadBatch #%d: %v", i, err)
			return
		}
		want := fmt.Sprintf("batch-write-%d", i)
		if string(payload) != want {
			t.Errorf("datagram %d = %q, want %q (batch writes are ordered)", i, payload, want)
		}
		if src != sender.LocalAddr() {
			t.Errorf("datagram %d source = %v, want %v", i, src, sender.LocalAddr())
		}
	}
}

// streamPair listens on the backend's address, dials the listener and
// accepts: the listener, the dialed end and the accepted end, or nils after
// reporting why. The caller closes all three.
func streamPair(t *testing.T, b Backend, env netapi.Env) (netapi.Listener, netapi.Conn, netapi.Conn) {
	t.Helper()
	l, err := env.ListenTCP(netip.AddrPortFrom(b.Addr, 0))
	if err != nil {
		t.Errorf("ListenTCP(%v:0): %v", b.Addr, err)
		return nil, nil, nil
	}
	client, err := env.DialTCP(l.Addr())
	if err != nil {
		l.Close()
		t.Errorf("DialTCP(%v): %v", l.Addr(), err)
		return nil, nil, nil
	}
	server, err := l.Accept(5 * time.Second)
	if err != nil {
		client.Close()
		l.Close()
		t.Errorf("Accept: %v", err)
		return nil, nil, nil
	}
	return l, client, server
}

// readAll reads until want bytes have arrived.
func readAll(c netapi.Conn, want int) ([]byte, error) {
	buf := make([]byte, 0, want)
	for len(buf) < want {
		n, err := c.Read(buf[len(buf):want], 5*time.Second)
		if err != nil {
			return buf, err
		}
		buf = buf[:len(buf)+n]
	}
	return buf, nil
}

func testStreamRoundTrip(t *testing.T, b Backend, env netapi.Env) {
	l, client, server := streamPair(t, b, env)
	if l == nil {
		return
	}
	defer l.Close()
	defer client.Close()
	defer server.Close()
	if server.RemoteAddr() != client.LocalAddr() || client.RemoteAddr() != server.LocalAddr() {
		t.Errorf("ends disagree: client %v→%v, server %v→%v",
			client.LocalAddr(), client.RemoteAddr(), server.LocalAddr(), server.RemoteAddr())
	}
	for _, dir := range []struct {
		name     string
		from, to netapi.Conn
	}{{"client→server", client, server}, {"server→client", server, client}} {
		msg := []byte("conformance stream " + dir.name)
		if n, err := dir.from.Write(msg); n != len(msg) || err != nil {
			t.Errorf("%s Write = (%d, %v), want (%d, nil)", dir.name, n, err, len(msg))
			return
		}
		if got, err := readAll(dir.to, len(msg)); err != nil || !bytes.Equal(got, msg) {
			t.Errorf("%s read %q, %v; want %q", dir.name, got, err, msg)
		}
	}
}

// testStreamAcceptPoll and testStreamReadPoll: a zero timeout sees what is
// already there, the rule a deadline of exactly now breaks for streams as it
// does for datagrams.
func testStreamAcceptPoll(t *testing.T, b Backend, env netapi.Env) {
	l, err := env.ListenTCP(netip.AddrPortFrom(b.Addr, 0))
	if err != nil {
		t.Errorf("ListenTCP: %v", err)
		return
	}
	defer l.Close()
	if c, err := l.Accept(0); !errors.Is(err, netapi.ErrTimeout) {
		t.Errorf("Accept(0) with nothing pending = (%v, %v), want errors.Is ErrTimeout", c, err)
		if c != nil {
			c.Close()
		}
	}
	client, err := env.DialTCP(l.Addr())
	if err != nil {
		t.Errorf("DialTCP: %v", err)
		return
	}
	defer client.Close()
	env.Sleep(settle)
	server, err := l.Accept(0)
	if err != nil {
		t.Errorf("Accept(0) with a connection pending: %v", err)
		return
	}
	server.Close()
}

func testStreamReadPoll(t *testing.T, b Backend, env netapi.Env) {
	l, client, server := streamPair(t, b, env)
	if l == nil {
		return
	}
	defer l.Close()
	defer client.Close()
	defer server.Close()
	buf := make([]byte, 16)
	if n, err := server.Read(buf, 0); !errors.Is(err, netapi.ErrTimeout) {
		t.Errorf("Read(0) with nothing buffered = (%d, %v), want errors.Is ErrTimeout", n, err)
	}
	if _, err := client.Write([]byte("poll")); err != nil {
		t.Errorf("Write: %v", err)
		return
	}
	env.Sleep(settle)
	if n, err := server.Read(buf, 0); err != nil || string(buf[:n]) != "poll" {
		t.Errorf("Read(0) with bytes buffered = %q, %v; want \"poll\", nil", buf[:n], err)
	}
}

func testStreamTimeout(t *testing.T, b Backend, env netapi.Env) {
	l, client, server := streamPair(t, b, env)
	if l == nil {
		return
	}
	defer l.Close()
	defer client.Close()
	defer server.Close()
	const wait = 30 * time.Millisecond
	start := env.Now()
	if c, err := l.Accept(wait); !errors.Is(err, netapi.ErrTimeout) {
		t.Errorf("timed Accept = (%v, %v), want errors.Is ErrTimeout", c, err)
	}
	if n, err := server.Read(make([]byte, 16), wait); !errors.Is(err, netapi.ErrTimeout) {
		t.Errorf("timed Read = (%d, %v), want errors.Is ErrTimeout", n, err)
	}
	if elapsed := env.Now() - start; elapsed < 2*wait {
		t.Errorf("two timed calls returned after %v, before their %v timeouts", elapsed, 2*wait)
	}
}

func testStreamRefused(t *testing.T, b Backend, env netapi.Env) {
	l, err := env.ListenTCP(netip.AddrPortFrom(b.Addr, 0))
	if err != nil {
		t.Errorf("ListenTCP: %v", err)
		return
	}
	closed := l.Addr()
	l.Close()
	if c, err := env.DialTCP(closed); !errors.Is(err, netapi.ErrRefused) {
		t.Errorf("DialTCP to a closed port = (%v, %v), want errors.Is ErrRefused", c, err)
		if c != nil {
			c.Close()
		}
	}
}

// testStreamPeerClose: the bytes before the peer's clean close are read,
// then ErrClosed, never io.EOF.
func testStreamPeerClose(t *testing.T, b Backend, env netapi.Env) {
	l, client, server := streamPair(t, b, env)
	if l == nil {
		return
	}
	defer l.Close()
	defer server.Close()
	if _, err := client.Write([]byte("bye")); err != nil {
		t.Errorf("Write: %v", err)
	}
	client.Close()
	if got, err := readAll(server, 3); err != nil || string(got) != "bye" {
		t.Errorf("read before the peer's close = %q, %v; want \"bye\"", got, err)
	}
	if n, err := server.Read(make([]byte, 16), 5*time.Second); !errors.Is(err, netapi.ErrClosed) {
		t.Errorf("Read after the peer's clean close = (%d, %v), want errors.Is ErrClosed", n, err)
	}
}

// testStreamClose: Close from another proc unblocks an indefinitely blocked
// Accept and Read with ErrClosed.
func testStreamClose(t *testing.T, b Backend, env netapi.Env) {
	l, client, server := streamPair(t, b, env)
	if l == nil {
		return
	}
	defer client.Close()
	env.Go("closer", func() {
		env.Sleep(20 * time.Millisecond)
		_ = l.Close()
		env.Sleep(20 * time.Millisecond)
		_ = server.Close()
	})
	if c, err := l.Accept(netapi.NoTimeout); !errors.Is(err, netapi.ErrClosed) {
		t.Errorf("blocked Accept on closed listener = (%v, %v), want errors.Is ErrClosed", c, err)
	}
	if n, err := server.Read(make([]byte, 16), netapi.NoTimeout); !errors.Is(err, netapi.ErrClosed) {
		t.Errorf("blocked Read on closed conn = (%d, %v), want errors.Is ErrClosed", n, err)
	}
}
