package realnet_test

import (
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netapi/netapitest"
	"dnsguard/internal/realnet"
	"dnsguard/internal/zone"
)

const zoneText = `
$ORIGIN foo.test.
@ 3600 IN SOA ns1 admin 1 7200 600 360000 60
@ 3600 IN NS ns1
ns1 3600 IN A 127.0.0.1
www 300 IN A 198.51.100.10
`

func TestUDPLoopback(t *testing.T) {
	env := realnet.New()
	server, err := env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		payload, src, err := netapitest.Recv(server, 2*time.Second)
		if err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		_ = server.WriteTo(payload, src)
	}()
	if err := client.WriteTo([]byte("ping"), server.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	payload, _, err := netapitest.Recv(client, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(payload) != "ping" {
		t.Fatalf("payload = %q", payload)
	}
	wg.Wait()
}

func TestUDPReadTimeout(t *testing.T) {
	env := realnet.New()
	conn, err := env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, _, err = netapitest.Recv(conn, 20*time.Millisecond)
	if !errors.Is(err, netapi.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestTCPLoopback(t *testing.T) {
	env := realnet.New()
	l, err := env.ListenTCP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := l.Accept(2 * time.Second)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		defer conn.Close()
		buf := make([]byte, 16)
		n, err := conn.Read(buf, 2*time.Second)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		_, _ = conn.Write(buf[:n])
	}()
	conn, err := env.DialTCP(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := conn.Read(buf, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:n]) != "hello" {
		t.Fatalf("echo = %q", buf[:n])
	}
	wg.Wait()
}

// TestRealANSServesQueries runs the full authoritative server over real
// loopback sockets (UDP and TCP) — the deployment cmd/ansd uses.
func TestRealANSServesQueries(t *testing.T) {
	env := realnet.New()
	srv, err := ans.New(ans.Config{
		Env:       env,
		Addr:      netip.MustParseAddrPort("127.0.0.1:0"),
		Zone:      zone.MustParse(zoneText, dnswire.Root),
		EnableTCP: false, // ephemeral UDP port differs from any TCP port
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	q, _ := dnswire.NewQuery(7, dnswire.MustName("www.foo.test"), dnswire.TypeA).PackUDP(512)
	if err := client.WriteTo(q, srv.Addr()); err != nil {
		t.Fatal(err)
	}
	payload, _, err := netapitest.Recv(client, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := dnswire.Unpack(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Data.(*dnswire.AData).Addr != netip.MustParseAddr("198.51.100.10") {
		t.Fatalf("resp = %v", resp)
	}
}
