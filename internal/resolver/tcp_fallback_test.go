package resolver

import (
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netsim"
	"dnsguard/internal/realnet"
	"dnsguard/internal/tcpsim"
	"dnsguard/internal/vclock"
	"dnsguard/internal/zone"
)

const bigZoneText = `
$ORIGIN big.test.
@ 3600 IN SOA ns1 admin 1 7200 600 360000 60
@ 3600 IN NS ns1
ns1 3600 IN A 192.0.2.9
huge 300 IN TXT "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
huge 300 IN TXT "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"
huge 300 IN TXT "cccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccc"
huge 300 IN TXT "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd"
huge 300 IN TXT "eeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeeee"
huge 300 IN TXT "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
huge 300 IN TXT "gggggggggggggggggggggggggggggggggggggggggggggggggggggggggggggggggggggggggggggg"
`

// TestResolverTruncationFallback verifies the resolver transparently
// retries over TCP when a response carries TC — the behavior the guard's
// TCP-based scheme relies on (§III-C: "the LRS will automatically initiate
// a TCP connection").
func TestResolverTruncationFallback(t *testing.T) {
	sched := vclock.New(17)
	network := netsim.New(sched, 2*time.Millisecond)
	ansHost := network.AddHost("ans", netip.MustParseAddr("192.0.2.9"))
	lrsHost := network.AddHost("lrs", netip.MustParseAddr("10.0.0.53"))
	tcpsim.Install(ansHost, tcpsim.Config{})
	tcpsim.Install(lrsHost, tcpsim.Config{})

	srv, err := ans.New(ans.Config{
		Env:       ansHost,
		Addr:      netip.MustParseAddrPort("192.0.2.9:53"),
		Zone:      zone.MustParse(bigZoneText, dnswire.Root),
		EnableTCP: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}

	res, err := New(Config{
		Env:       lrsHost,
		RootHints: []netip.AddrPort{netip.MustParseAddrPort("192.0.2.9:53")},
		Timeout:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched.Go("test", func() {
		r, err := res.Resolve(dnswire.MustName("huge.big.test"), dnswire.TypeTXT)
		if err != nil {
			t.Errorf("Resolve: %v", err)
			return
		}
		if len(r.Answers) != 7 {
			t.Errorf("answers = %d, want all 7 TXT records via TCP", len(r.Answers))
		}
	})
	sched.Run(time.Minute)
	if res.Stats.TCPFallbacks != 1 {
		t.Fatalf("TCP fallbacks = %d, want 1", res.Stats.TCPFallbacks)
	}
	if srv.Stats.TCPQueries != 1 {
		t.Fatalf("ANS TCP queries = %d, want 1", srv.Stats.TCPQueries)
	}
	if srv.Stats.Truncated != 1 {
		t.Fatalf("truncated = %d, want 1", srv.Stats.Truncated)
	}
}

// tcpAnswerer answers one TCP query on loopback with what answer makes of
// it, in one write, and holds the connection until the client closes it.
func tcpAnswerer(t *testing.T, env *realnet.Env, answer func(q []byte) []byte) netip.AddrPort {
	t.Helper()
	ln, err := env.ListenTCP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept(5 * time.Second)
		if err != nil {
			return
		}
		defer conn.Close()
		var sc dnswire.FrameScanner
		buf := make([]byte, 512)
		for {
			n, err := conn.Read(buf, 5*time.Second)
			if err != nil {
				return
			}
			sc.Add(buf[:n])
			if q, ok, _ := sc.Next(); ok {
				conn.Write(answer(q))
				conn.Read(buf, 5*time.Second)
				return
			}
		}
	}()
	return ln.Addr()
}

// twoFrameServer answers with two frames in one write: a response whose ID
// is not the query's, then the one whose is.
func twoFrameServer(t *testing.T, env *realnet.Env) netip.AddrPort {
	return tcpAnswerer(t, env, func(q []byte) []byte {
		q[2] |= 0x80
		wrong := append([]byte(nil), q...)
		wrong[1] ^= 1
		out, _ := dnswire.AppendTCPFrame(nil, wrong)
		out, _ = dnswire.AppendTCPFrame(out, q)
		return out
	})
}

// TestExchangeTCPTakesEveryFrame: when the answer arrives in the same read
// as a frame with another ID, the exchange takes it from what it already
// holds instead of waiting for a read that never comes.
func TestExchangeTCPTakesEveryFrame(t *testing.T) {
	env := realnet.New()
	server := twoFrameServer(t, env)
	r, err := New(Config{Env: env, RootHints: []netip.AddrPort{server}})
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 2 * time.Second
	start := time.Now()
	resp, err := r.exchangeTCP(server, dnswire.MustName("www.foo.com"), dnswire.TypeA, timeout)
	if took := time.Since(start); err != nil || took > timeout/2 {
		t.Fatalf("exchangeTCP = (%v, %v) after %v; want the second frame well before the %v timeout", resp, err, took, timeout)
	}
}

// TestExchangeTCPWantsAResponse: over TCP an answer passes the UDP exchange's
// rule — QR set, same ID and question (RFC 5452 §9.1). The query echoed back
// with QR clear, then the answer, in one write: the exchange returns the
// answer's record, not the echo.
func TestExchangeTCPWantsAResponse(t *testing.T) {
	env := realnet.New()
	want := netip.MustParseAddr("192.0.2.80")
	server := tcpAnswerer(t, env, func(q []byte) []byte {
		m, err := dnswire.Unpack(q)
		if err != nil {
			return nil
		}
		resp := m.Response()
		resp.Answers = []dnswire.RR{dnswire.NewRR(m.Questions[0].Name, 300, &dnswire.AData{Addr: want})}
		wire, _ := resp.Pack()
		out, _ := dnswire.AppendTCPFrame(nil, q)
		out, _ = dnswire.AppendTCPFrame(out, wire)
		return out
	})
	r, err := New(Config{Env: env, RootHints: []netip.AddrPort{server}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := r.exchangeTCP(server, dnswire.MustName("www.foo.com"), dnswire.TypeA, 2*time.Second)
	if err != nil || len(resp.Answers) != 1 || resp.Answers[0].Data.(*dnswire.AData).Addr != want {
		t.Fatalf("exchangeTCP = (%v, %v); want the answer %v, not the echoed query", resp, err, want)
	}
}
