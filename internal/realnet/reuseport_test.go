package realnet

import (
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnsguard/internal/netapi"
)

// ListenUDPReuse must deliver every datagram exactly once across the sockets
// it returns (n with SO_REUSEPORT, one without), and all of them must report
// the same bound address.
func TestListenUDPReuseDelivery(t *testing.T) {
	env := New()
	conns, err := env.ListenUDPReuse(netip.MustParseAddrPort("127.0.0.1:0"), 4)
	if err != nil {
		t.Fatal(err)
	}
	local := conns[0].LocalAddr()
	for _, c := range conns {
		if c.LocalAddr() != local {
			t.Fatalf("handle addr %v != %v", c.LocalAddr(), local)
		}
	}

	const total = 64
	var mu sync.Mutex
	seen := make(map[byte]int)
	var wg sync.WaitGroup
	for _, c := range conns {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b, _, err := c.ReadFrom(netapi.NoTimeout)
				if err != nil {
					return
				}
				mu.Lock()
				seen[b[0]]++
				mu.Unlock()
			}
		}()
	}

	sender, err := env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	for i := 0; i < total; i++ {
		if err := sender.WriteTo([]byte{byte(i)}, local); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(seen)
		mu.Unlock()
		if n == total || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, c := range conns {
		c.Close()
	}
	wg.Wait()
	if len(seen) != total {
		t.Fatalf("received %d distinct datagrams, want %d", len(seen), total)
	}
	for b, n := range seen {
		if n != 1 {
			t.Fatalf("datagram %d delivered %d times", b, n)
		}
	}
}

func TestChanQueuePolicies(t *testing.T) {
	q := netapi.Capabilities(New()).NewQueue(2)
	if !q.Put(1) || !q.Put(2) {
		t.Fatal("puts under capacity rejected")
	}
	if q.Put(3) {
		t.Fatal("drop-newest: put beyond capacity accepted")
	}
	if v, err := q.Get(0); err != nil || v != 1 {
		t.Fatalf("Get = (%v, %v), want (1, nil)", v, err)
	}
	if v, err := q.Get(0); err != nil || v != 2 {
		t.Fatalf("Get = (%v, %v), want (2, nil)", v, err)
	}
	if _, err := q.Get(0); !errors.Is(err, netapi.ErrTimeout) {
		t.Fatalf("empty poll err = %v, want ErrTimeout", err)
	}
	if _, err := q.Get(20 * time.Millisecond); !errors.Is(err, netapi.ErrTimeout) {
		t.Fatalf("timed Get err = %v, want ErrTimeout", err)
	}

	// Blocked Get wakes on Put from another goroutine.
	done := make(chan any, 1)
	go func() {
		v, _ := q.Get(netapi.NoTimeout)
		done <- v
	}()
	time.Sleep(10 * time.Millisecond)
	q.Put(9)
	select {
	case v := <-done:
		if v != 9 {
			t.Fatalf("woken Get = %v, want 9", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Get never woke")
	}

	q.Close()
	if _, err := q.Get(netapi.NoTimeout); !errors.Is(err, netapi.ErrClosed) {
		t.Fatalf("closed Get err = %v, want ErrClosed", err)
	}
	if q.Put(1) {
		t.Fatal("put after close accepted")
	}
}
