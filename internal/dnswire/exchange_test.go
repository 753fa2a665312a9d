package dnswire

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/netapi/netapitest"
	"dnsguard/internal/netsim"
	"dnsguard/internal/realnet"
	"dnsguard/internal/tcpsim"
	"dnsguard/internal/vclock"
)

var (
	exServer  = netip.MustParseAddrPort("192.0.2.53:53")
	exOffPath = netip.MustParseAddrPort("203.0.113.66:53")
	exAnswer  = netip.MustParseAddr("198.51.100.10")
)

// exReply is the server's answer to the query q: its ID and question, one A
// record of addr.
func exReply(t *testing.T, q []byte, addr netip.Addr) []byte {
	m, err := Unpack(q)
	if err != nil {
		t.Fatal(err)
	}
	r := m.Response()
	r.Answers = []RR{NewRR(m.Question().Name, 60, &AData{Addr: addr})}
	wire, err := r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// mixCase upper-cases every other letter of the name at b[off:], in place,
// as a requester that sets the 0x20 bits would send it.
func mixCase(b []byte, off int) []byte {
	up := false
	for off < len(b) && b[off] != 0 {
		n := int(b[off])
		for i := off + 1; i <= off+n; i++ {
			if 'a' <= b[i] && b[i] <= 'z' {
				if up {
					b[i] -= 'a' - 'A'
				}
				up = !up
			}
		}
		off += 1 + n
	}
	return b
}

// exScenario is one server's side of an exchange on netsim: it sends what
// strays makes of the query (from off-path, over UDP, when offPath), then
// the answer (exReply, or what answer makes of the query), over UDP or TCP.
// Over TCP each frame goes in a write of its own unless oneWrite, and
// trickle sends the answer one byte every 20 ms.
type exScenario struct {
	tcp, offPath, oneWrite, trickle bool

	strays func(t *testing.T, q []byte) [][]byte
	answer func(t *testing.T, q []byte) []byte
}

// TestExchangeSkipsAllButTheAnswer: the server (or, over UDP, an off-path
// host) sends what does not answer the query before it sends the answer.
// Over both transports the exchange skips every one of them and returns the
// answer, its bytes as they arrived.
func TestExchangeSkipsAllButTheAnswer(t *testing.T) {
	forged := netip.MustParseAddr("6.6.6.6")
	wrongID := func(t *testing.T, q []byte) [][]byte {
		r := exReply(t, q, forged)
		r[1] ^= 1
		return [][]byte{r}
	}
	rows := []struct {
		name   string
		tcpToo bool
		exScenario
	}{
		{"off-path source", false, exScenario{offPath: true, strays: func(t *testing.T, q []byte) [][]byte {
			return [][]byte{exReply(t, q, forged)}
		}}},
		{"echoed query", true, exScenario{strays: func(t *testing.T, q []byte) [][]byte {
			return [][]byte{q}
		}}},
		{"wrong ID", true, exScenario{strays: wrongID}},
		{"wrong question", true, exScenario{strays: func(t *testing.T, q []byte) [][]byte {
			m, _ := Unpack(q)
			other, _ := NewQuery(m.ID, MustName("www.bar.com"), TypeA).Pack()
			return [][]byte{exReply(t, other, forged)}
		}}},
		{"unparseable", true, exScenario{strays: func(t *testing.T, q []byte) [][]byte {
			r := exReply(t, q, forged)
			return [][]byte{r[:len(r)-3], r[:14], r[:5]}
		}}},
		{"mixed-case echo", true, exScenario{answer: func(t *testing.T, q []byte) []byte {
			return mixCase(exReply(t, q, exAnswer), 12)
		}}},
		{"two frames in one read", true, exScenario{oneWrite: true, strays: wrongID}},
	}
	for _, row := range rows {
		for _, tcp := range []bool{false, true} {
			if tcp && !row.tcpToo || !tcp && row.oneWrite {
				continue
			}
			sc := row.exScenario
			sc.tcp = tcp
			name := row.name + "/udp"
			if tcp {
				name = row.name + "/tcp"
			}
			t.Run(name, func(t *testing.T) {
				resp, raw, sent, _, err := sc.run(t, time.Second)
				if err != nil {
					t.Fatalf("exchange: %v", err)
				}
				if len(resp.Answers) != 1 || resp.Answers[0].Data.(*AData).Addr != exAnswer {
					t.Errorf("answers = %v, want the server's %v", resp.Answers, exAnswer)
				}
				if !bytes.Equal(raw, sent) {
					t.Errorf("bytes = %x, want the answer as sent, %x", raw, sent)
				}
			})
		}
	}
}

// TestExchangeTCPTrickleTimesOut: a server that sends the answer one byte at
// a time, each byte well inside the timeout, ends the exchange at its one
// deadline with netapi.ErrTimeout.
func TestExchangeTCPTrickleTimesOut(t *testing.T) {
	const timeout = 100 * time.Millisecond
	_, _, _, took, err := exScenario{tcp: true, trickle: true}.run(t, timeout)
	if err != netapi.ErrTimeout {
		t.Fatalf("err = %v, want netapi.ErrTimeout", err)
	}
	// The dial's round trip of 2 ms comes before the deadline is set.
	if took < timeout || took > timeout+5*time.Millisecond {
		t.Errorf("gave up after %v, want the %v deadline", took, timeout)
	}
}

// run plays the scenario against one exchange of the query for www.foo.com
// and returns what the exchange returned, the answer the server sent, and
// how long the exchange took.
func (sc exScenario) run(t *testing.T, timeout time.Duration) (resp *Message, raw, sent []byte, took time.Duration, err error) {
	t.Helper()
	sched := vclock.New(3)
	defer sched.Close()
	network := netsim.New(sched, time.Millisecond)
	server := network.AddHost("server", exServer.Addr())
	forger := network.AddHost("off-path", exOffPath.Addr())
	client := network.AddHost("client", netip.MustParseAddr("10.0.0.53"))
	query, err := NewQuery(7, MustName("www.foo.com"), TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	replies := func(q []byte) (strays [][]byte, answer []byte) {
		if sc.strays != nil {
			strays = sc.strays(t, q)
		}
		if sc.answer != nil {
			sent = sc.answer(t, q)
		} else {
			sent = exReply(t, q, exAnswer)
		}
		return strays, sent
	}
	if sc.tcp {
		tcpsim.Install(server, tcpsim.Config{})
		tcpsim.Install(client, tcpsim.Config{})
		l, err := server.ListenTCP(exServer)
		if err != nil {
			t.Fatal(err)
		}
		sched.Go("server", func() { sc.serveTCP(t, server, l, replies) })
	} else {
		serverConn, err := server.ListenUDP(exServer)
		if err != nil {
			t.Fatal(err)
		}
		forgerConn, err := forger.ListenUDP(exOffPath)
		if err != nil {
			t.Fatal(err)
		}
		sched.Go("server", func() {
			q, from, err := netapitest.Recv(serverConn, time.Second)
			if err != nil {
				t.Errorf("server read: %v", err)
				return
			}
			strays, answer := replies(q)
			for _, s := range strays {
				if sc.offPath {
					_ = forgerConn.WriteTo(s, from)
				} else {
					_ = serverConn.WriteTo(s, from)
				}
				server.Sleep(time.Millisecond)
			}
			_ = serverConn.WriteTo(answer, from)
		})
	}
	sched.Go("client", func() {
		start := client.Now()
		if sc.tcp {
			resp, raw, err = ExchangeTCP(client, exServer, query, timeout, nil)
		} else {
			resp, raw, err = ExchangeUDP(client, exServer, query, timeout)
		}
		took = client.Now() - start
	})
	sched.Run(time.Minute)
	return resp, raw, sent, took, err
}

// serveTCP accepts one connection, reads the query, and writes the
// scenario's frames.
func (sc exScenario) serveTCP(t *testing.T, host *netsim.Host, l netapi.Listener, replies func(q []byte) ([][]byte, []byte)) {
	conn, err := l.Accept(time.Second)
	if err != nil {
		t.Errorf("accept: %v", err)
		return
	}
	defer conn.Close()
	var fs FrameScanner
	buf := make([]byte, 512)
	var q []byte
	for q == nil {
		n, err := conn.Read(buf, time.Second)
		if err != nil {
			t.Errorf("server read: %v", err)
			return
		}
		fs.Add(buf[:n])
		q, _, _ = fs.Next()
	}
	strays, answer := replies(q)
	var out []byte
	for _, s := range strays {
		out, _ = AppendTCPFrame(out, s)
		if !sc.oneWrite {
			_, _ = conn.Write(out)
			out = out[:0]
			host.Sleep(time.Millisecond)
		}
	}
	out, _ = AppendTCPFrame(out, answer)
	if !sc.trickle {
		_, _ = conn.Write(out)
	}
	for i := 0; sc.trickle && i < len(out); i++ {
		if _, err := conn.Write(out[i : i+1]); err != nil {
			return
		}
		host.Sleep(20 * time.Millisecond)
	}
	_, _ = conn.Read(buf, time.Second) // hold the connection until the client closes it
}

// TestExchangeUDPAnswerIsOwned: ExchangeUDP reads into a pooled slot, and
// the answer it returns must be the caller's own, not the slot the next
// exchange reads into. Over loopback, each exchange's answer carries its own
// address; after every later exchange, every earlier answer still reads as
// it did when it was returned.
func TestExchangeUDPAnswerIsOwned(t *testing.T) {
	env := realnet.New()
	server, err := env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	defer func() { server.Close(); <-done }()
	go func() {
		defer close(done)
		slot := netapi.NewSlab(1, MaxDatagram+1)
		for k := byte(1); ; k++ {
			if _, err := server.ReadBatch(slot, netapi.NoTimeout); err != nil {
				return
			}
			m, err := Unpack(slot[0].Payload())
			if err != nil {
				t.Errorf("server: %v", err)
				return
			}
			r := m.Response()
			r.Answers = []RR{NewRR(m.Question().Name, 60, &AData{Addr: netip.AddrFrom4([4]byte{192, 0, 2, k})})}
			wire, err := r.Pack()
			if err != nil {
				t.Errorf("server: %v", err)
				return
			}
			_ = server.WriteTo(wire, slot[0].Addr)
		}
	}()
	var answers, want [][]byte
	for i := 0; i < 4; i++ {
		q, err := NewQuery(uint16(100+i), MustName("www.foo.com"), TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		_, raw, err := ExchangeUDP(env, server.LocalAddr(), q, 5*time.Second)
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		answers, want = append(answers, raw), append(want, bytes.Clone(raw))
		for j := range answers {
			if !bytes.Equal(answers[j], want[j]) {
				t.Fatalf("after exchange %d, answer %d reads %x, want %x as returned", i, j, answers[j], want[j])
			}
		}
	}
}
