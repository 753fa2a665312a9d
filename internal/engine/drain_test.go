package engine

// Drain contract: once Drain is entered, unverified ingest is refused
// (DrainShed), verified traffic keeps flowing, and Drain returns only after
// every queue has flushed into its handler. Resume lifts the gate.

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/realnet"
)

func TestDrainRefusesUnverifiedAdmitsVerified(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	io := newFakeIO(64)
	e, err := New(Config{
		Env:         realnet.New(),
		IOs:         []PacketIO{io},
		NewHandler:  rg.newHandler,
		Shards:      2,
		FastPathTTL: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Close()

	warm := srcAP(1)
	e.MarkVerifiedOn(e.ShardOf(warm.Addr()), warm.Addr(), "cred")

	if err := e.Drain(context.Background()); err != nil {
		t.Fatalf("Drain on an idle engine: %v", err)
	}
	if !e.Draining() {
		t.Fatal("Draining() false after Drain")
	}

	// Unverified sources are refused at ingest while draining...
	for i := 10; i < 15; i++ {
		io.ch <- Packet{Src: srcAP(i), Payload: []byte{byte(i)}}
	}
	// ...while the verified source still reaches its handler.
	io.ch <- Packet{Src: warm, Payload: []byte{1}}
	waitCount(t, &rg.count, 1)

	deadline := time.Now().Add(5 * time.Second)
	for {
		var shed uint64
		for i := 0; i < e.Shards(); i++ {
			shed += e.Stats(i).DrainShed
		}
		if shed == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain shed %d packets, want 5", shed)
		}
		time.Sleep(time.Millisecond)
	}
	if rg.count.Load() != 1 {
		t.Fatalf("handled %d packets during drain, want 1 (the verified source)", rg.count.Load())
	}

	// Resume lifts the gate: the same unverified sources are admitted.
	e.Resume()
	if e.Draining() {
		t.Fatal("Draining() true after Resume")
	}
	for i := 10; i < 15; i++ {
		io.ch <- Packet{Src: srcAP(i), Payload: []byte{byte(i)}}
	}
	waitCount(t, &rg.count, 6)
}

func TestDrainWaitsForBacklog(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int), block: make(chan struct{})}
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
	defer e.Close()

	// Park 8 packets behind a blocked handler so the queues hold a backlog.
	// All 8 are enqueued before Drain: a packet read after it is shed.
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

	done := make(chan error, 1)
	go func() { done <- e.Drain(context.Background()) }()
	select {
	case err := <-done:
		t.Fatalf("Drain returned (%v) with a parked backlog", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(rg.block) // unblock the handlers; queues flush
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never returned after the backlog flushed")
	}
	waitCount(t, &rg.count, 8)
}

func TestDrainHonorsContext(t *testing.T) {
	rg := &rig{bySrc: make(map[netip.Addr][]int), block: make(chan struct{})}
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
	defer e.Close()
	defer close(rg.block) // LIFO: unblock handlers before Close joins them
	for i := 0; i < 8; i++ {
		io.ch <- Packet{Src: srcAP(i), Payload: []byte{byte(i)}}
	}
	waitShardDepth(t, e, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want context.DeadlineExceeded", err)
	}
	if !e.Draining() {
		t.Fatal("an expired Drain must leave the engine draining (caller decides)")
	}
}

// waitShardDepth waits until at least min packets are parked across queues.
func waitShardDepth(t *testing.T, e *Engine, min int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.backlog() < min {
		if time.Now().After(deadline) {
			t.Fatalf("backlog = %d, want >= %d", e.backlog(), min)
		}
		time.Sleep(time.Millisecond)
	}
}
