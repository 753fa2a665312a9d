package realnet

import (
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/netapi/netapitest"
)

// ListenUDPReuse must deliver every datagram exactly once across the sockets
// it returns (four with SO_REUSEPORT, the one it binds without), and all of
// them must report the same bound address.
func TestListenUDPReuseDelivery(t *testing.T) {
	env := New()
	n := 4
	if !reusePort {
		n = 1
	}
	conns, err := env.ListenUDPReuse(netip.MustParseAddrPort("127.0.0.1:0"), n)
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
				b, _, err := netapitest.Recv(c, netapi.NoTimeout)
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

// Where this package binds no SO_REUSEPORT group, more than one socket is
// refused by name, so a daemon asked for several shards exits saying why
// instead of running them all off one socket; one socket still binds. Where
// it does, n sockets come back. `make portable-check` runs this on linux/386.
func TestListenUDPReuseRefusesWithoutReusePort(t *testing.T) {
	env := New()
	one, err := env.ListenUDPReuse(netip.MustParseAddrPort("127.0.0.1:0"), 1)
	if err != nil || len(one) != 1 {
		t.Fatalf("ListenUDPReuse(1) = %d conns, %v; want 1, nil", len(one), err)
	}
	one[0].Close()
	two, err := env.ListenUDPReuse(netip.MustParseAddrPort("127.0.0.1:0"), 2)
	if !reusePort {
		if !errors.Is(err, ErrNoReusePort) || two != nil {
			t.Fatalf("ListenUDPReuse(2) without SO_REUSEPORT = %d conns, %v; want ErrNoReusePort", len(two), err)
		}
		return
	}
	if err != nil || len(two) != 2 {
		t.Fatalf("ListenUDPReuse(2) = %d conns, %v; want 2, nil", len(two), err)
	}
	for _, c := range two {
		c.Close()
	}
}
