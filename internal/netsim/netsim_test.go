package netsim

import (
	"errors"
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/netapi/netapitest"
	"dnsguard/internal/vclock"
)

func addr(s string) netip.Addr   { return netip.MustParseAddr(s) }
func ap(s string) netip.AddrPort { return netip.MustParseAddrPort(s) }
func newNet(lat time.Duration) (*vclock.Scheduler, *Network) {
	s := vclock.New(7)
	return s, New(s, lat)
}

func TestUDPDeliveryAndLatency(t *testing.T) {
	s, n := newNet(5 * time.Millisecond)
	a := n.AddHost("a", addr("10.0.0.1"))
	b := n.AddHost("b", addr("10.0.0.2"))

	var gotAt time.Duration
	var gotPayload []byte
	var gotSrc netip.AddrPort

	s.Go("recv", func() {
		conn, err := b.ListenUDP(ap("10.0.0.2:53"))
		if err != nil {
			t.Errorf("ListenUDP: %v", err)
			return
		}
		p, src, err := netapitest.Recv(conn, netapi.NoTimeout)
		if err != nil {
			t.Errorf("ReadBatch: %v", err)
			return
		}
		gotAt, gotPayload, gotSrc = s.Now(), p, src
	})
	s.Go("send", func() {
		conn, err := a.ListenUDP(netip.AddrPortFrom(a.Addr(), 0))
		if err != nil {
			t.Errorf("ListenUDP: %v", err)
			return
		}
		if err := conn.WriteTo([]byte("hello"), ap("10.0.0.2:53")); err != nil {
			t.Errorf("WriteTo: %v", err)
		}
	})
	s.Run(0)
	if string(gotPayload) != "hello" {
		t.Fatalf("payload = %q, want hello", gotPayload)
	}
	if gotAt != 5*time.Millisecond {
		t.Fatalf("delivered at %v, want 5ms", gotAt)
	}
	if gotSrc.Addr() != addr("10.0.0.1") {
		t.Fatalf("src = %v, want 10.0.0.1", gotSrc)
	}
}

func TestEphemeralPortsAreDistinct(t *testing.T) {
	s, n := newNet(0)
	a := n.AddHost("a", addr("10.0.0.1"))
	s.Go("bind", func() {
		c1, err1 := a.ListenUDP(netip.AddrPortFrom(a.Addr(), 0))
		c2, err2 := a.ListenUDP(netip.AddrPortFrom(a.Addr(), 0))
		if err1 != nil || err2 != nil {
			t.Errorf("ListenUDP errs: %v %v", err1, err2)
			return
		}
		if c1.LocalAddr() == c2.LocalAddr() {
			t.Errorf("duplicate ephemeral port %v", c1.LocalAddr())
		}
	})
	s.Run(0)
}

func TestBindErrors(t *testing.T) {
	s, n := newNet(0)
	a := n.AddHost("a", addr("10.0.0.1"))
	s.Go("bind", func() {
		if _, err := a.ListenUDP(ap("10.9.9.9:53")); !errors.Is(err, netapi.ErrNoRoute) {
			t.Errorf("foreign bind err = %v, want ErrNoRoute", err)
		}
		if _, err := a.ListenUDP(ap("10.0.0.1:53")); err != nil {
			t.Errorf("bind: %v", err)
		}
		if _, err := a.ListenUDP(ap("10.0.0.1:53")); !errors.Is(err, netapi.ErrAddrInUse) {
			t.Errorf("rebind err = %v, want ErrAddrInUse", err)
		}
	})
	s.Run(0)
}

func TestClaimedPrefixBeatsNativeOwner(t *testing.T) {
	s, n := newNet(time.Millisecond)
	client := n.AddHost("client", addr("10.0.0.1"))
	ans := n.AddHost("ans", addr("1.2.3.4"))
	guard := n.AddHost("guard", addr("1.2.3.250"))
	guard.ClaimPrefix(netip.MustParsePrefix("1.2.3.0/24"))

	var tapGot, ansGot bool
	s.Go("guard", func() {
		tap, err := guard.OpenTap()
		if err != nil {
			t.Errorf("OpenTap: %v", err)
			return
		}
		slot := make([]Packet, 1)
		_, err = tap.ReadBatch(slot, netapi.NoTimeout)
		pkt := slot[0]
		if err != nil {
			t.Errorf("tap read: %v", err)
			return
		}
		tapGot = true
		if pkt.Dst != ap("1.2.3.4:53") {
			t.Errorf("tap dst = %v", pkt.Dst)
		}
		// Re-inject to the real owner.
		if err := guard.InjectTo(ans, pkt.Src, pkt.Dst, pkt.Payload); err != nil {
			t.Errorf("InjectTo: %v", err)
		}
	})
	s.Go("ans", func() {
		conn, err := ans.ListenUDP(ap("1.2.3.4:53"))
		if err != nil {
			t.Errorf("ans bind: %v", err)
			return
		}
		if _, _, err := netapitest.Recv(conn, netapi.NoTimeout); err != nil {
			t.Errorf("ans read: %v", err)
			return
		}
		ansGot = true
	})
	s.Go("client", func() {
		conn, _ := client.ListenUDP(netip.AddrPortFrom(client.Addr(), 0))
		_ = conn.WriteTo([]byte("q"), ap("1.2.3.4:53"))
	})
	s.Run(0)
	if !tapGot {
		t.Fatal("guard tap never saw the packet")
	}
	if !ansGot {
		t.Fatal("ans never received the re-injected packet")
	}
}

func TestSendRawSpoofsSource(t *testing.T) {
	s, n := newNet(time.Millisecond)
	attacker := n.AddHost("attacker", addr("10.0.0.66"))
	victim := n.AddHost("victim", addr("10.0.0.2"))
	var src netip.AddrPort
	s.Go("victim", func() {
		conn, _ := victim.ListenUDP(ap("10.0.0.2:53"))
		_, s2, err := netapitest.Recv(conn, netapi.NoTimeout)
		if err != nil {
			t.Errorf("read: %v", err)
			return
		}
		src = s2
	})
	s.Go("attacker", func() {
		_ = attacker.SendRaw(ap("99.99.99.99:1234"), ap("10.0.0.2:53"), []byte("spoof"))
	})
	s.Run(0)
	if src != ap("99.99.99.99:1234") {
		t.Fatalf("src = %v, want spoofed 99.99.99.99:1234", src)
	}
}

func TestLossDropsDeterministically(t *testing.T) {
	s, n := newNet(time.Millisecond)
	a := n.AddHost("a", addr("10.0.0.1"))
	b := n.AddHost("b", addr("10.0.0.2"))
	n.SetLoss(a, b, 0.5)
	const total = 1000
	received := 0
	s.Go("recv", func() {
		conn, _ := b.ListenUDP(ap("10.0.0.2:53"))
		for {
			if _, _, err := netapitest.Recv(conn, 50*time.Millisecond); err != nil {
				return
			}
			received++
		}
	})
	s.Go("send", func() {
		conn, _ := a.ListenUDP(netip.AddrPortFrom(a.Addr(), 0))
		for i := 0; i < total; i++ {
			_ = conn.WriteTo([]byte("x"), ap("10.0.0.2:53"))
			s.Sleep(time.Microsecond)
		}
	})
	s.Run(0)
	if received < total/3 || received > 2*total/3 {
		t.Fatalf("received %d of %d with 50%% loss, expected roughly half", received, total)
	}
	if n.Stats.Lost == 0 {
		t.Fatal("no losses recorded")
	}
	if got := n.Stats.Lost + uint64(received); got != total {
		t.Fatalf("lost+received = %d, want %d", got, total)
	}
}

func TestBoundedQueueTailDrop(t *testing.T) {
	s, n := newNet(time.Millisecond)
	a := n.AddHost("a", addr("10.0.0.1"))
	b := n.AddHost("b", addr("10.0.0.2"))
	b.SetQueueCap(4)
	s.Go("recv-late", func() {
		conn, _ := b.ListenUDP(ap("10.0.0.2:53"))
		s.Sleep(100 * time.Millisecond) // let the queue overflow
		got := 0
		for {
			if _, _, err := netapitest.Recv(conn, 0); err != nil {
				break
			}
			got++
		}
		if got != 4 {
			t.Errorf("drained %d, want 4 (queue cap)", got)
		}
	})
	s.Go("send", func() {
		conn, _ := a.ListenUDP(netip.AddrPortFrom(a.Addr(), 0))
		for i := 0; i < 10; i++ {
			_ = conn.WriteTo([]byte("x"), ap("10.0.0.2:53"))
		}
	})
	s.Run(0)
	if b.Stats.RecvDropped != 6 {
		t.Fatalf("RecvDropped = %d, want 6", b.Stats.RecvDropped)
	}
}

// OpenTaps splits a host's capture by source address: every datagram of a
// source reaches the tap TapOf names, each tap tail-drops on its own, and a
// host holds one live set of taps at a time.
func TestOpenTapsSplitBySource(t *testing.T) {
	s, n := newNet(time.Millisecond)
	a := n.AddHost("a", addr("10.0.0.1"))
	b := n.AddHost("b", addr("10.0.0.2"))
	b.ClaimPrefix(netip.MustParsePrefix("192.0.2.0/24"))
	b.SetQueueCap(4)
	if _, err := b.OpenTaps(0); err == nil {
		t.Fatal("OpenTaps(0) succeeded")
	}
	taps, err := b.OpenTaps(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.OpenTap(); !errors.Is(err, netapi.ErrAddrInUse) {
		t.Fatalf("a second tap beside live ones: err = %v, want ErrAddrInUse", err)
	}
	const sources, each = 24, 3
	s.Go("send", func() {
		for i := 0; i < sources; i++ {
			src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{198, 51, 100, byte(i)}), 5353)
			for k := 0; k < each; k++ {
				_ = a.SendRaw(src, ap("192.0.2.1:53"), []byte{byte(i)})
			}
		}
	})
	s.Run(0)

	var got, dropped uint64
	perTap := make([]int, len(taps))
	for i, tap := range taps {
		dropped += tap.Dropped()
		for {
			slot := make([]Packet, 1)
			_, err := tap.ReadBatch(slot, 0)
			pkt := slot[0]
			if err != nil {
				break
			}
			got++
			perTap[i]++
			if want := b.TapOf(pkt.Src.Addr()); want != i {
				t.Errorf("source %v read on tap %d, TapOf says %d", pkt.Src, i, want)
			}
		}
	}
	for i, k := range perTap {
		if k == 0 {
			t.Errorf("tap %d received nothing from %d sources", i, sources)
		}
	}
	if got+dropped != sources*each || dropped != b.Stats.RecvDropped || dropped == 0 {
		t.Errorf("read %d, taps dropped %d, host dropped %d: want %d in all, every drop the host's", got, dropped, b.Stats.RecvDropped, sources*each)
	}
	for _, tap := range taps {
		tap.Close()
	}
	if _, err := b.OpenTap(); err != nil {
		t.Errorf("OpenTap after the taps closed: %v", err)
	}
}

func TestNoRouteAndNoSocketCounters(t *testing.T) {
	s, n := newNet(time.Millisecond)
	a := n.AddHost("a", addr("10.0.0.1"))
	n.AddHost("b", addr("10.0.0.2"))
	s.Go("send", func() {
		conn, _ := a.ListenUDP(netip.AddrPortFrom(a.Addr(), 0))
		if err := conn.WriteTo([]byte("x"), ap("8.8.8.8:53")); !errors.Is(err, netapi.ErrNoRoute) {
			t.Errorf("unrouted write err = %v, want ErrNoRoute", err)
		}
		_ = conn.WriteTo([]byte("x"), ap("10.0.0.2:9")) // no listener
	})
	s.Run(0)
	if n.Stats.NoRoute != 1 {
		t.Fatalf("NoRoute = %d, want 1", n.Stats.NoRoute)
	}
	if n.Stats.NoSocket != 1 {
		t.Fatalf("NoSocket = %d, want 1", n.Stats.NoSocket)
	}
}

func TestPerLinkLatencyOverride(t *testing.T) {
	s, n := newNet(10 * time.Millisecond)
	a := n.AddHost("a", addr("10.0.0.1"))
	b := n.AddHost("b", addr("10.0.0.2"))
	n.SetLatency(a, b, time.Millisecond)
	var at time.Duration
	s.Go("recv", func() {
		conn, _ := b.ListenUDP(ap("10.0.0.2:53"))
		_, _, err := netapitest.Recv(conn, netapi.NoTimeout)
		if err == nil {
			at = s.Now()
		}
	})
	s.Go("send", func() {
		conn, _ := a.ListenUDP(netip.AddrPortFrom(a.Addr(), 0))
		_ = conn.WriteTo([]byte("x"), ap("10.0.0.2:53"))
	})
	s.Run(0)
	if at != time.Millisecond {
		t.Fatalf("delivered at %v, want 1ms override", at)
	}
}

func TestCPUSerializesWork(t *testing.T) {
	s, n := newNet(0)
	h := n.AddHost("h", addr("10.0.0.1"))
	var done []time.Duration
	for i := 0; i < 3; i++ {
		s.Go("worker", func() {
			h.CPU().Work(10 * time.Millisecond)
			done = append(done, s.Now())
		})
	}
	s.Run(0)
	if len(done) != 3 {
		t.Fatalf("done = %v", done)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("done = %v, want %v (serialized)", done, want)
		}
	}
	if h.CPU().BusyTime() != 30*time.Millisecond {
		t.Fatalf("busy = %v, want 30ms", h.CPU().BusyTime())
	}
}

func TestCPUTryWorkBacklogDrop(t *testing.T) {
	s, n := newNet(0)
	h := n.AddHost("h", addr("10.0.0.1"))
	accepted, rejected := 0, 0
	s.Go("submitter", func() {
		// Account work without blocking so backlog builds.
		for i := 0; i < 10; i++ {
			if h.CPU().TryWork(0, 0) { // probe only
			}
			h.CPU().Account(10 * time.Millisecond)
		}
		// Now backlog is ~100ms; TryWork with 50ms bound must refuse.
		if h.CPU().TryWork(time.Millisecond, 50*time.Millisecond) {
			accepted++
		} else {
			rejected++
		}
	})
	s.Run(0)
	if rejected != 1 || accepted != 0 {
		t.Fatalf("accepted=%d rejected=%d, want 0/1", accepted, rejected)
	}
}

func TestUtilizationMeter(t *testing.T) {
	s, n := newNet(0)
	h := n.AddHost("h", addr("10.0.0.1"))
	var util float64
	s.Go("worker", func() {
		m := NewUtilizationMeter(h.CPU())
		for i := 0; i < 10; i++ {
			h.CPU().Work(5 * time.Millisecond)
			s.Sleep(5 * time.Millisecond)
		}
		util = m.Sample()
	})
	s.Run(0)
	if util < 0.45 || util > 0.55 {
		t.Fatalf("util = %v, want ~0.5", util)
	}
}

func TestSocketCloseWakesReader(t *testing.T) {
	s, n := newNet(0)
	a := n.AddHost("a", addr("10.0.0.1"))
	var err error
	s.Go("reader", func() {
		conn, _ := a.ListenUDP(ap("10.0.0.1:53"))
		s.Go("closer", func() {
			s.Sleep(time.Millisecond)
			_ = conn.Close()
		})
		_, _, err = netapitest.Recv(conn, netapi.NoTimeout)
	})
	s.Run(0)
	if !errors.Is(err, netapi.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestReadTimeout(t *testing.T) {
	s, n := newNet(0)
	a := n.AddHost("a", addr("10.0.0.1"))
	var err error
	s.Go("reader", func() {
		conn, _ := a.ListenUDP(ap("10.0.0.1:53"))
		_, _, err = netapitest.Recv(conn, 3*time.Millisecond)
	})
	s.Run(0)
	if !errors.Is(err, netapi.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}
