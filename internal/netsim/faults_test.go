package netsim

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/netapi/netapitest"
	"dnsguard/internal/vclock"
)

// faultPair is a two-host network with b draining a socket on :53, recording
// arrival order (first payload byte), virtual arrival times, and payloads.
type faultPair struct {
	sched *vclock.Scheduler
	net   *Network
	a, b  *Host

	order []byte
	times []time.Duration
	raw   [][]byte
}

func newFaultPair(t *testing.T, seed int64, lat time.Duration) *faultPair {
	t.Helper()
	s := vclock.New(seed)
	n := New(s, lat)
	fp := &faultPair{sched: s, net: n}
	fp.a = n.AddHost("a", addr("10.0.0.1"))
	fp.b = n.AddHost("b", addr("10.0.0.2"))

	conn, err := fp.b.ListenUDP(ap("10.0.0.2:53"))
	if err != nil {
		t.Fatal(err)
	}
	s.Go("drain", func() {
		for {
			p, _, err := netapitest.Recv(conn, 10*time.Second)
			if err == netapi.ErrTimeout {
				continue // an outage may outlast the poll interval
			}
			if err != nil {
				return
			}
			fp.order = append(fp.order, p[0])
			fp.times = append(fp.times, s.Now())
			fp.raw = append(fp.raw, p)
		}
	})
	return fp
}

// blast sends count datagrams of the given size, seq byte in [0,count),
// spaced gap apart, then runs the simulation to completion.
func (fp *faultPair) blast(t *testing.T, count int, gap time.Duration, size int) {
	t.Helper()
	fp.sched.Go("blast", func() {
		conn, err := fp.a.ListenUDP(netip.AddrPortFrom(fp.a.Addr(), 0))
		if err != nil {
			t.Errorf("ListenUDP: %v", err)
			return
		}
		for i := 0; i < count; i++ {
			payload := make([]byte, size)
			payload[0] = byte(i)
			if err := conn.WriteTo(payload, ap("10.0.0.2:53")); err != nil {
				t.Errorf("WriteTo: %v", err)
				return
			}
			fp.sched.Sleep(gap)
		}
	})
	fp.sched.Run(fp.sched.Now() + time.Minute)
}

func TestFaultsZeroValueIsTransparent(t *testing.T) {
	// Same seed, with and without an all-zero Faults policy installed: the
	// delivery schedule must be identical (no extra RNG draws).
	run := func(install bool) ([]byte, []time.Duration) {
		fp := newFaultPair(t, 99, 3*time.Millisecond)
		if install {
			fp.net.SetLinkFaults(fp.a, fp.b, Faults{})
			fp.net.SetDefaultFaults(Faults{})
		}
		fp.blast(t, 20, time.Millisecond, 8)
		return fp.order, fp.times
	}
	o1, t1 := run(false)
	o2, t2 := run(true)
	if !bytes.Equal(o1, o2) {
		t.Fatalf("order diverged: %v vs %v", o1, o2)
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("time[%d] diverged: %v vs %v", i, t1[i], t2[i])
		}
	}
	if len(o1) != 20 {
		t.Fatalf("delivered %d of 20 with no faults", len(o1))
	}
}

func TestFaultLoss(t *testing.T) {
	fp := newFaultPair(t, 1, time.Millisecond)
	fp.net.SetFaults(fp.a, fp.b, Faults{Loss: 0.5})
	fp.blast(t, 400, 100*time.Microsecond, 8)
	ls := fp.net.LinkStats(fp.a, fp.b)
	if ls.Sent != 400 {
		t.Fatalf("Sent = %d, want 400", ls.Sent)
	}
	if ls.Lost < 120 || ls.Lost > 280 {
		t.Fatalf("Lost = %d at 50%% loss over 400, far from expectation", ls.Lost)
	}
	if uint64(len(fp.order))+ls.Lost != 400 {
		t.Fatalf("delivered %d + lost %d != 400", len(fp.order), ls.Lost)
	}
	if fp.net.Stats.Lost != ls.Lost {
		t.Fatalf("NetStats.Lost = %d, link = %d", fp.net.Stats.Lost, ls.Lost)
	}
}

func TestFaultLossComposesWithSetLoss(t *testing.T) {
	// Legacy SetLoss and Faults.Loss are independent drop stages, so the
	// effective delivery rate is their product (~25% here).
	fp := newFaultPair(t, 2, time.Millisecond)
	fp.net.SetLoss(fp.a, fp.b, 0.5)
	fp.net.SetFaults(fp.a, fp.b, Faults{Loss: 0.5})
	fp.blast(t, 400, 100*time.Microsecond, 8)
	if got := len(fp.order); got < 50 || got > 150 {
		t.Fatalf("delivered %d of 400 at compound 75%% loss", got)
	}
}

func TestFaultReorderObservable(t *testing.T) {
	fp := newFaultPair(t, 3, time.Millisecond)
	fp.net.SetFaults(fp.a, fp.b, Faults{Reorder: 0.3, ReorderDelay: 5 * time.Millisecond})
	fp.blast(t, 100, 200*time.Microsecond, 8)
	if len(fp.order) != 100 {
		t.Fatalf("delivered %d of 100 (reorder must not lose)", len(fp.order))
	}
	inversions := 0
	for i := 1; i < len(fp.order); i++ {
		if fp.order[i] < fp.order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("no inversions observed at 30% reorder")
	}
	ls := fp.net.LinkStats(fp.a, fp.b)
	if ls.Reordered == 0 || fp.net.Stats.Reordered != ls.Reordered {
		t.Fatalf("Reordered counters: link %d net %d", ls.Reordered, fp.net.Stats.Reordered)
	}
}

func TestFaultDuplicate(t *testing.T) {
	fp := newFaultPair(t, 4, time.Millisecond)
	fp.net.SetFaults(fp.a, fp.b, Faults{Duplicate: 0.5})
	fp.blast(t, 100, time.Millisecond, 8)
	ls := fp.net.LinkStats(fp.a, fp.b)
	if ls.Duplicated == 0 {
		t.Fatal("no duplicates at 50%")
	}
	if got, want := uint64(len(fp.order)), 100+ls.Duplicated; got != want {
		t.Fatalf("delivered %d, want 100 + %d dups", got, ls.Duplicated)
	}
	// Each duplicated seq appears exactly twice, and the two copies must
	// not share a backing array.
	seen := map[byte][]int{}
	for i, b := range fp.order {
		seen[b] = append(seen[b], i)
	}
	dups := 0
	for _, idx := range seen {
		switch len(idx) {
		case 1:
		case 2:
			dups++
			if &fp.raw[idx[0]][0] == &fp.raw[idx[1]][0] {
				t.Fatal("duplicate aliases the original buffer")
			}
		default:
			t.Fatalf("a seq arrived %d times", len(idx))
		}
	}
	if uint64(dups) != ls.Duplicated {
		t.Fatalf("%d seqs doubled, counter says %d", dups, ls.Duplicated)
	}
}

func TestFaultCorruptUDP(t *testing.T) {
	fp := newFaultPair(t, 5, time.Millisecond)
	fp.net.SetFaults(fp.a, fp.b, Faults{Corrupt: 0.5})
	fp.blast(t, 200, 100*time.Microsecond, 32)
	if len(fp.order) != 200 {
		t.Fatalf("delivered %d of 200 (UDP corruption must not drop)", len(fp.order))
	}
	ls := fp.net.LinkStats(fp.a, fp.b)
	if ls.Corrupted < 50 || ls.Corrupted > 150 {
		t.Fatalf("Corrupted = %d at 50%% over 200", ls.Corrupted)
	}
	damaged := 0
	for _, p := range fp.raw {
		for _, b := range p[1:] { // byte 0 is the seq, may legitimately vary
			if b != 0 {
				damaged++
				break
			}
		}
	}
	if damaged == 0 {
		t.Fatal("no payload actually damaged")
	}
}

func TestFaultJitterBounds(t *testing.T) {
	const lat, jit = 2 * time.Millisecond, 4 * time.Millisecond
	fp := newFaultPair(t, 6, lat)
	fp.net.SetFaults(fp.a, fp.b, Faults{Jitter: jit})
	fp.blast(t, 50, 10*time.Millisecond, 8)
	if len(fp.times) != 50 {
		t.Fatalf("delivered %d of 50", len(fp.times))
	}
	sawJitter := false
	for i, at := range fp.times {
		sent := time.Duration(i) * 10 * time.Millisecond
		d := at - sent
		if d < lat || d >= lat+jit {
			t.Fatalf("datagram %d delay %v outside [%v, %v)", i, d, lat, lat+jit)
		}
		if d > lat {
			sawJitter = true
		}
	}
	if !sawJitter {
		t.Fatal("jitter never added delay")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	fp := newFaultPair(t, 7, time.Millisecond)
	fp.net.Partition(fp.a, fp.b)
	if !fp.net.Partitioned(fp.a, fp.b) || !fp.net.Partitioned(fp.b, fp.a) {
		t.Fatal("partition not symmetric")
	}
	fp.blast(t, 10, time.Millisecond, 8)
	if len(fp.order) != 0 {
		t.Fatalf("delivered %d across a partition", len(fp.order))
	}
	ls := fp.net.LinkStats(fp.a, fp.b)
	if ls.PartitionDrops != 10 || fp.net.Stats.PartitionDrops != 10 {
		t.Fatalf("PartitionDrops link=%d net=%d, want 10", ls.PartitionDrops, fp.net.Stats.PartitionDrops)
	}

	fp.net.Heal(fp.a, fp.b)
	fp.order = nil
	fp.blast(t, 10, time.Millisecond, 8)
	if len(fp.order) != 10 {
		t.Fatalf("delivered %d of 10 after heal", len(fp.order))
	}
}

func TestPartitionForSchedules(t *testing.T) {
	// Outage from t=5ms to t=15ms; datagrams sent every 1ms for 30ms with
	// zero link latency, so arrival time == send time.
	fp := newFaultPair(t, 8, 0)
	fp.net.PartitionFor(fp.a, fp.b, 5*time.Millisecond, 10*time.Millisecond)
	fp.blast(t, 30, time.Millisecond, 8)
	for i, at := range fp.times {
		if at >= 5*time.Millisecond && at < 15*time.Millisecond {
			t.Fatalf("arrival %d at %v inside the scheduled outage", i, at)
		}
	}
	ls := fp.net.LinkStats(fp.a, fp.b)
	if ls.PartitionDrops == 0 {
		t.Fatal("scheduled partition dropped nothing")
	}
	if got := uint64(len(fp.order)) + ls.PartitionDrops; got != 30 {
		t.Fatalf("delivered+dropped = %d, want 30", got)
	}
}

func TestFaultsDeterministicReplay(t *testing.T) {
	run := func() (order []byte, ls LinkStats) {
		fp := newFaultPair(t, 42, time.Millisecond)
		fp.net.SetFaults(fp.a, fp.b, Faults{
			Loss: 0.1, Duplicate: 0.1, Reorder: 0.2,
			Corrupt: 0.05, Jitter: 2 * time.Millisecond,
		})
		fp.blast(t, 200, 300*time.Microsecond, 16)
		return fp.order, fp.net.LinkStats(fp.a, fp.b)
	}
	o1, s1 := run()
	o2, s2 := run()
	if !bytes.Equal(o1, o2) {
		t.Fatal("arrival order diverged between identical seeded runs")
	}
	if s1 != s2 {
		t.Fatalf("LinkStats diverged: %+v vs %+v", s1, s2)
	}
	if s1.Lost == 0 || s1.Duplicated == 0 || s1.Reordered == 0 || s1.Corrupted == 0 {
		t.Fatalf("expected every fault class to fire: %+v", s1)
	}
}

func TestFaultCorruptDropsStructuredPayloads(t *testing.T) {
	// Non-UDP transport payloads cannot be bit-flipped meaningfully; the
	// model treats corruption as a checksum-failed drop, which is what TCP
	// sees after a link-layer CRC failure.
	s := vclock.New(9)
	n := New(s, time.Millisecond)
	a := n.AddHost("a", addr("10.0.0.1"))
	b := n.AddHost("b", addr("10.0.0.2"))
	n.SetFaults(a, b, Faults{Corrupt: 1.0})

	got := 0
	b.HandleProto(ProtoTCP, func(src, dst netip.AddrPort, payload any) { got++ })
	s.Go("send", func() {
		for i := 0; i < 20; i++ {
			_ = a.SendProto(ProtoTCP, ap("10.0.0.1:1"), ap("10.0.0.2:2"), &struct{ n int }{i})
			s.Sleep(time.Millisecond)
		}
	})
	s.Run(time.Minute)
	if got != 0 {
		t.Fatalf("%d corrupted TCP segments delivered, want 0", got)
	}
	ls := n.LinkStats(a, b)
	if ls.Corrupted != 20 {
		t.Fatalf("Corrupted = %d, want 20", ls.Corrupted)
	}
}

func TestDefaultFaultsAndOverride(t *testing.T) {
	// A per-link policy overrides the default entirely.
	s := vclock.New(10)
	n := New(s, time.Millisecond)
	a := n.AddHost("a", addr("10.0.0.1"))
	b := n.AddHost("b", addr("10.0.0.2"))
	c := n.AddHost("c", addr("10.0.0.3"))
	n.SetDefaultFaults(Faults{Loss: 1.0})
	n.SetFaults(a, b, Faults{}) // clean override

	gotB, gotC := 0, 0
	connB, err := b.ListenUDP(ap("10.0.0.2:53"))
	if err != nil {
		t.Fatal(err)
	}
	connC, err := c.ListenUDP(ap("10.0.0.3:53"))
	if err != nil {
		t.Fatal(err)
	}
	s.Go("drainB", func() {
		for {
			if _, _, err := netapitest.Recv(connB, time.Second); err != nil {
				return
			}
			gotB++
		}
	})
	s.Go("drainC", func() {
		for {
			if _, _, err := netapitest.Recv(connC, time.Second); err != nil {
				return
			}
			gotC++
		}
	})
	s.Go("send", func() {
		conn, err := a.ListenUDP(netip.AddrPortFrom(a.Addr(), 0))
		if err != nil {
			t.Errorf("ListenUDP: %v", err)
			return
		}
		for i := 0; i < 10; i++ {
			_ = conn.WriteTo([]byte{1}, ap("10.0.0.2:53"))
			_ = conn.WriteTo([]byte{1}, ap("10.0.0.3:53"))
			s.Sleep(time.Millisecond)
		}
	})
	s.Run(time.Minute)
	if gotB != 10 {
		t.Fatalf("override link delivered %d of 10", gotB)
	}
	if gotC != 0 {
		t.Fatalf("default-faulted link delivered %d, want 0", gotC)
	}
}
