package ans

import (
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netapi/netapitest"
	"dnsguard/internal/netsim"
	"dnsguard/internal/tcpsim"
	"dnsguard/internal/vclock"
	"dnsguard/internal/zone"
)

// TestServeDNSOverTCP exercises the length-framed TCP path end to end over
// the simulated TCP stack, including multiple queries on one connection.
func TestServeDNSOverTCP(t *testing.T) {
	sched := vclock.New(2)
	network := netsim.New(sched, time.Millisecond)
	ansHost := network.AddHost("ans", netip.MustParseAddr("1.2.3.4"))
	client := network.AddHost("client", netip.MustParseAddr("10.0.0.1"))
	tcpsim.Install(ansHost, tcpsim.Config{})
	tcpsim.Install(client, tcpsim.Config{})

	srv, err := New(Config{
		Env:       ansHost,
		Addr:      netip.MustParseAddrPort("1.2.3.4:53"),
		Zone:      zone.MustParse(fooText, dnswire.Root),
		EnableTCP: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	sched.Go("client", func() {
		conn, err := client.DialTCP(netip.MustParseAddrPort("1.2.3.4:53"))
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer conn.Close()
		// Two pipelined queries on one connection.
		var frames []byte
		for i, name := range []string{"www.foo.com", "big.foo.com"} {
			wire, _ := dnswire.NewQuery(uint16(i+1), dnswire.MustName(name), dnswire.TypeA).Pack()
			frames, _ = dnswire.AppendTCPFrame(frames, wire)
		}
		if _, err := conn.Write(frames); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		var sc dnswire.FrameScanner
		buf := make([]byte, 4096)
		got := 0
		for got < 2 {
			n, err := conn.Read(buf, time.Second)
			if err != nil {
				t.Errorf("read after %d responses: %v", got, err)
				return
			}
			sc.Add(buf[:n])
			for {
				msg, ok, err := sc.Next()
				if err != nil {
					t.Errorf("frame: %v", err)
					return
				}
				if !ok {
					break
				}
				resp, err := dnswire.Unpack(msg)
				if err != nil {
					t.Errorf("unpack: %v", err)
					return
				}
				if resp.Flags.TC {
					t.Error("TCP response must never be truncated")
				}
				got++
			}
		}
	})
	sched.Run(time.Minute)
	if srv.Stats.TCPQueries != 2 {
		t.Fatalf("TCP queries = %d, want 2", srv.Stats.TCPQueries)
	}
}

// TestTruncationThenTCPFallback drives the classic oversize flow end to
// end: UDP answer truncated with TC, resolver retries over TCP and gets the
// full answer — the same mechanism the guard's TCP scheme hijacks.
func TestTruncationThenTCPFallback(t *testing.T) {
	sched := vclock.New(2)
	network := netsim.New(sched, time.Millisecond)
	ansHost := network.AddHost("ans", netip.MustParseAddr("1.2.3.4"))
	client := network.AddHost("client", netip.MustParseAddr("10.0.0.1"))
	tcpsim.Install(ansHost, tcpsim.Config{SYNCookies: true})
	tcpsim.Install(client, tcpsim.Config{})

	srv, err := New(Config{
		Env:       ansHost,
		Addr:      netip.MustParseAddrPort("1.2.3.4:53"),
		Zone:      zone.MustParse(fooText, dnswire.Root),
		EnableTCP: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	// Raw client: UDP first, observe TC, then TCP.
	sched.Go("client", func() {
		conn, _ := client.ListenUDP(netip.AddrPort{})
		defer conn.Close()
		wire, _ := dnswire.NewQuery(9, dnswire.MustName("big.foo.com"), dnswire.TypeTXT).PackUDP(512)
		_ = conn.WriteTo(wire, netip.MustParseAddrPort("1.2.3.4:53"))
		payload, _, err := netapitest.Recv(conn, time.Second)
		if err != nil {
			t.Errorf("udp read: %v", err)
			return
		}
		udpResp, _ := dnswire.Unpack(payload)
		if !udpResp.Flags.TC {
			t.Error("expected TC on oversized UDP answer")
			return
		}
		tcpConn, err := client.DialTCP(netip.MustParseAddrPort("1.2.3.4:53"))
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		defer tcpConn.Close()
		full, _ := dnswire.NewQuery(10, dnswire.MustName("big.foo.com"), dnswire.TypeTXT).Pack()
		frame, _ := dnswire.AppendTCPFrame(nil, full)
		_, _ = tcpConn.Write(frame)
		var sc dnswire.FrameScanner
		buf := make([]byte, 8192)
		for {
			n, err := tcpConn.Read(buf, time.Second)
			if err != nil {
				t.Errorf("tcp read: %v", err)
				return
			}
			sc.Add(buf[:n])
			msg, ok, _ := sc.Next()
			if !ok {
				continue
			}
			resp, err := dnswire.Unpack(msg)
			if err != nil {
				t.Errorf("unpack: %v", err)
				return
			}
			if resp.Flags.TC {
				t.Error("TCP answer still truncated")
			}
			if len(resp.Answers) != 10 {
				t.Errorf("answers = %d, want all 10 TXT records", len(resp.Answers))
			}
			return
		}
	})
	sched.Run(time.Minute)
	_ = netapi.NoTimeout
}
