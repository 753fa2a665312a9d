package engine

// The engine's half of a drain: it keeps no drain state, it reports its
// backlog. Remote.Drain polls Backlog until the fan-out's queues are empty,
// bounded by the caller's context; waitBacklog below is that loop, so these
// tests hold the engine to what the guard's drain relies on: Backlog does not
// read empty while packets are parked, and does once they reach a handler.

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/realnet"
)

// waitBacklog polls e.Backlog until it reads 0 or ctx ends, as Remote.Drain
// does.
func waitBacklog(ctx context.Context, e *Engine) error {
	for e.Backlog() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// parkBacklog starts a one-interface, two-shard engine whose handlers block
// on rg.block and feeds it 8 packets, returning once all 8 are enqueued.
func parkBacklog(t *testing.T, rg *rig) *Engine {
	t.Helper()
	io := newFakeIO(64)
	e, err := New(Config{
		Env:        realnet.New(),
		IOs:        []PacketIO{io},
		NewHandler: rg.newHandler,
		Shards:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	for i := 0; i < 8; i++ {
		io.ch <- Packet{Src: srcAP(i), Payload: []byte{byte(i)}}
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats(0).Enqueued+e.Stats(1).Enqueued < 8 {
		if time.Now().After(deadline) {
			t.Fatalf("enqueued %d packets, want 8", e.Stats(0).Enqueued+e.Stats(1).Enqueued)
		}
		time.Sleep(time.Millisecond)
	}
	return e
}

func TestDrainWaitsForBacklog(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int), block: make(chan struct{})}
	e := parkBacklog(t, rg)
	defer e.Close()

	// A fakeIO read yields one packet, so each queued group holds one; a
	// blocked worker holds at most one group, so at least 6 stay queued.
	if n := e.Backlog(); n < 6 {
		t.Fatalf("Backlog = %d with both handlers blocked, want >= 6", n)
	}
	done := make(chan error, 1)
	go func() { done <- waitBacklog(context.Background(), e) }()
	select {
	case err := <-done:
		t.Fatalf("backlog wait returned (%v) with a parked backlog", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(rg.block) // unblock the handlers; queues flush
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("backlog wait: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("backlog wait never returned after the queues flushed")
	}
	waitCount(t, &rg.count, 8)
	if n := e.Backlog(); n != 0 {
		t.Fatalf("Backlog = %d after every packet was handled, want 0", n)
	}
}

func TestDrainHonorsContext(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int), block: make(chan struct{})}
	e := parkBacklog(t, rg)
	defer e.Close()
	defer close(rg.block) // LIFO: unblock handlers before Close joins them

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := waitBacklog(ctx, e); err != context.DeadlineExceeded {
		t.Fatalf("backlog wait = %v, want context.DeadlineExceeded", err)
	}
	// An expired wait takes nothing out of the queues: the caller decides.
	if n := e.Backlog(); n < 6 {
		t.Fatalf("Backlog = %d after an expired wait, want >= 6 still parked", n)
	}
	if n := rg.count.Load(); n != 0 {
		t.Fatalf("handled %d packets with the handlers blocked, want 0", n)
	}
}
