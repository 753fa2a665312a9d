package ans

import (
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netapi/netapitest"
	"dnsguard/internal/netsim"
	"dnsguard/internal/vclock"
	"dnsguard/internal/zone"
)

const fooText = `
$ORIGIN foo.com.
$TTL 3600
@    IN SOA ns1 admin 1 7200 600 360000 60
@    IN NS  ns1
ns1  IN A   192.0.2.1
www  IN A   198.51.100.10
big  IN TXT "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
big  IN TXT "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"
big  IN TXT "cccccccccccccccccccccccccccccccccccccccccccccccccc"
big  IN TXT "dddddddddddddddddddddddddddddddddddddddddddddddddd"
big  IN TXT "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee"
big  IN TXT "ffffffffffffffffffffffffffffffffffffffffffffffffff"
big  IN TXT "gggggggggggggggggggggggggggggggggggggggggggggggggg"
big  IN TXT "hhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhhh"
big  IN TXT "iiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiiii"
big  IN TXT "jjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjjj"
`

func testServer(t *testing.T, mutate func(*Config)) (*vclock.Scheduler, *netsim.Host, *Server) {
	t.Helper()
	sched := vclock.New(1)
	net := netsim.New(sched, time.Millisecond)
	ansHost := net.AddHost("ans", netip.MustParseAddr("1.2.3.4"))
	client := net.AddHost("client", netip.MustParseAddr("10.0.0.1"))
	cfg := Config{
		Env:  ansHost,
		Addr: netip.AddrPortFrom(ansHost.Addr(), 53),
		Zone: zone.MustParse(fooText, dnswire.Root),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := srv.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return sched, client, srv
}

// query sends one UDP query from client and returns the decoded response.
func query(t *testing.T, sched *vclock.Scheduler, client *netsim.Host, to netip.AddrPort, q *dnswire.Message) *dnswire.Message {
	t.Helper()
	var resp *dnswire.Message
	sched.Go("client", func() {
		conn, err := client.ListenUDP(netip.AddrPortFrom(client.Addr(), 0))
		if err != nil {
			t.Errorf("client bind: %v", err)
			return
		}
		defer conn.Close()
		wire, err := q.PackUDP(dnswire.MaxUDPSize)
		if err != nil {
			t.Errorf("pack: %v", err)
			return
		}
		if err := conn.WriteTo(wire, to); err != nil {
			t.Errorf("send: %v", err)
			return
		}
		payload, _, err := netapitest.Recv(conn, time.Second)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		resp, err = dnswire.Unpack(payload)
		if err != nil {
			t.Errorf("unpack: %v", err)
		}
	})
	sched.Run(0)
	return resp
}

func ansAddr() netip.AddrPort { return netip.MustParseAddrPort("1.2.3.4:53") }

func TestServeAuthoritativeAnswer(t *testing.T) {
	sched, client, _ := testServer(t, nil)
	resp := query(t, sched, client, ansAddr(), dnswire.NewQuery(1, dnswire.MustName("www.foo.com"), dnswire.TypeA))
	if resp == nil {
		t.Fatal("no response")
	}
	if !resp.Flags.QR || !resp.Flags.AA || resp.Flags.RCode != dnswire.RCodeNoError {
		t.Fatalf("flags = %+v", resp.Flags)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers = %v", resp.Answers)
	}
	if a := resp.Answers[0].Data.(*dnswire.AData).Addr; a != netip.MustParseAddr("198.51.100.10") {
		t.Fatalf("addr = %v", a)
	}
}

func TestServeNXDomain(t *testing.T) {
	sched, client, _ := testServer(t, nil)
	resp := query(t, sched, client, ansAddr(), dnswire.NewQuery(2, dnswire.MustName("missing.foo.com"), dnswire.TypeA))
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.Flags.RCode != dnswire.RCodeNXDomain {
		t.Fatalf("rcode = %v", resp.Flags.RCode)
	}
	if len(resp.Authority) != 1 || resp.Authority[0].Type != dnswire.TypeSOA {
		t.Fatalf("authority = %v", resp.Authority)
	}
}

func TestServeTruncatesOversizeUDP(t *testing.T) {
	sched, client, srv := testServer(t, nil)
	resp := query(t, sched, client, ansAddr(), dnswire.NewQuery(3, dnswire.MustName("big.foo.com"), dnswire.TypeTXT))
	if resp == nil {
		t.Fatal("no response")
	}
	if !resp.Flags.TC {
		t.Fatal("TC not set for oversized response")
	}
	if srv.Stats.Truncated != 1 {
		t.Fatalf("truncated = %d", srv.Stats.Truncated)
	}
}

func TestServeTTLOverride(t *testing.T) {
	zero := uint32(0)
	sched, client, _ := testServer(t, func(c *Config) { c.TTLOverride = &zero })
	resp := query(t, sched, client, ansAddr(), dnswire.NewQuery(4, dnswire.MustName("www.foo.com"), dnswire.TypeA))
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.Answers[0].TTL != 0 {
		t.Fatalf("ttl = %d, want 0", resp.Answers[0].TTL)
	}
}

func TestServeDropsMalformed(t *testing.T) {
	sched := vclock.New(1)
	net := netsim.New(sched, time.Millisecond)
	ansHost := net.AddHost("ans", netip.MustParseAddr("1.2.3.4"))
	client := net.AddHost("client", netip.MustParseAddr("10.0.0.1"))
	srv, err := New(Config{Env: ansHost, Addr: ansAddr(), Zone: zone.MustParse(fooText, dnswire.Root)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	sched.Go("client", func() {
		conn, _ := client.ListenUDP(netip.AddrPortFrom(client.Addr(), 0))
		defer conn.Close()
		_ = conn.WriteTo([]byte{1, 2, 3}, ansAddr())
		if _, _, err := netapitest.Recv(conn, 100*time.Millisecond); err == nil {
			t.Error("got a response to garbage")
		}
	})
	sched.Run(0)
	if srv.Stats.Malformed != 1 {
		t.Fatalf("malformed = %d", srv.Stats.Malformed)
	}
}

func TestServeRefusesNonINET(t *testing.T) {
	sched, client, _ := testServer(t, nil)
	q := dnswire.NewQuery(5, dnswire.MustName("www.foo.com"), dnswire.TypeA)
	q.Questions[0].Class = dnswire.Class(3) // CHAOS
	resp := query(t, sched, client, ansAddr(), q)
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.Flags.RCode != dnswire.RCodeRefused {
		t.Fatalf("rcode = %v", resp.Flags.RCode)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("accepted empty config")
	}
	sched := vclock.New(1)
	net := netsim.New(sched, 0)
	h := net.AddHost("h", netip.MustParseAddr("1.2.3.4"))
	if _, err := New(Config{Env: h, Addr: ansAddr()}); err == nil {
		t.Fatal("accepted missing zone")
	}
	bad := zone.New(dnswire.MustName("foo.com")) // no SOA
	if _, err := New(Config{Env: h, Addr: ansAddr(), Zone: bad}); err == nil {
		t.Fatal("accepted invalid zone")
	}
}

var _ = netapi.NoTimeout // keep import if helpers change
