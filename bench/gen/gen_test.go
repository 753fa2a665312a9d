package gen

import (
	"net/netip"
	"testing"
	"time"
)

func TestPacerIsExactPerSecondAndNeverBursts(t *testing.T) {
	ticksPerSecond := int64(time.Second / Tick)
	for _, rate := range []int{1, 3, 4000, 12000, 40000, 44001} {
		p := NewPacer(rate)
		total, maxDue := 0, 0
		for k := int64(0); k < 3*ticksPerSecond; k++ {
			n := p.Due(k)
			total += n
			if n > maxDue {
				maxDue = n
			}
			if (k+1)%ticksPerSecond == 0 && total != rate*int((k+1)/ticksPerSecond) {
				t.Fatalf("rate %d: %d events after %d s", rate, total, (k+1)/ticksPerSecond)
			}
		}
		if limit := rate/int(ticksPerSecond) + 1; maxDue > limit {
			t.Errorf("rate %d: a tick carried %d events, want at most %d", rate, maxDue, limit)
		}
	}
}

func TestPacerDeliversSkippedTicks(t *testing.T) {
	p := NewPacer(12000)
	if got := p.Due(0) + p.Due(7); got != 12000*8/4000 {
		t.Errorf("ticks 0 and 7 carried %d events, want everything due by tick 7 (%d)", got, 12000*8/4000)
	}
}

func TestLatenessArithmetic(t *testing.T) {
	if TickTime(4) != int64(time.Millisecond) {
		t.Errorf("tick 4 at %d ns, want 1 ms", TickTime(4))
	}
	for _, c := range []struct{ intended, actual, want int64 }{
		{1000, 1000, 0}, {1000, 900, 0}, {1000, 1750, 750},
	} {
		if got := Lateness(c.intended, c.actual); got != c.want {
			t.Errorf("Lateness(%d, %d) = %d, want %d", c.intended, c.actual, got, c.want)
		}
	}
}

func TestWalkNeverRepeats(t *testing.T) {
	w := NewWalk(NewRand(9, 2), 1<<12)
	seen := make(map[uint64]bool)
	for i := 0; i < 1<<12; i++ {
		v := w.Next()
		if v >= 1<<12 || seen[v] {
			t.Fatalf("step %d: %d out of range or repeated", i, v)
		}
		seen[v] = true
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s Samples
	if s.Percentile(50) != 0 {
		t.Error("empty record must report 0")
	}
	for _, v := range []int64{50, 10, 40, 20, 30, 60, 70, 80, 100, 90} {
		s.Add(v)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 100}, {100, 100}, {10, 10}, {1, 10}} {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	var o Samples
	o.Add(5)
	s.Merge(&o)
	if s.Len() != 11 || s.Percentile(1) != 5 {
		t.Errorf("after merge: len %d, p1 %v", s.Len(), s.Percentile(1))
	}
}

func TestSummarize(t *testing.T) {
	if got := Summarize([]float64{3, 1, 2}); got != (Summary{Median: 2, Min: 1, Max: 3, N: 3}) {
		t.Errorf("odd count: %+v", got)
	}
	if got := Summarize([]float64{4, 1, 3, 2}); got.Median != 2.5 {
		t.Errorf("even count median %v, want 2.5", got.Median)
	}
	if got := Summarize(nil); got.N != 0 {
		t.Errorf("empty: %+v", got)
	}
}

// drive advances a table's timers to each of times, recording what fires.
type fired struct{ retries, fails int }

func expire(tb *Table, at time.Duration, f *fired) {
	tb.Expire(int64(at), func(seq int64, op *Op) {
		f.retries++
		tb.NewID(seq)
	}, func(int64, *Op) { f.fails++ })
}

func TestOperationRetriesTwiceThenFails(t *testing.T) {
	tb := NewTable(16, 100)
	seq, id, ok := tb.Start(0, 1, 5, StageAnswer, 0)
	if !ok || id != 100 {
		t.Fatalf("Start: id %d ok %v", id, ok)
	}
	var f fired
	for _, step := range []struct {
		at      time.Duration
		retries int
		fails   int
	}{
		{249 * time.Millisecond, 0, 0},
		{250 * time.Millisecond, 1, 0},
		{749 * time.Millisecond, 1, 0},
		{750 * time.Millisecond, 2, 0},
		{1499 * time.Millisecond, 2, 0},
		{1500 * time.Millisecond, 2, 1},
		{3 * time.Second, 2, 1},
	} {
		expire(tb, step.at, &f)
		if f.retries != step.retries || f.fails != step.fails {
			t.Fatalf("at %v: %d retries %d fails, want %d and %d", step.at, f.retries, f.fails, step.retries, step.fails)
		}
	}
	if op := tb.Get(seq); !op.Done || op.Tries != 3 || tb.Outstanding != 0 {
		t.Errorf("after failure: done %v tries %d outstanding %d", op.Done, op.Tries, tb.Outstanding)
	}
	for id := 100; id < 103; id++ {
		if _, op := tb.Lookup(uint16(id)); op != nil {
			t.Errorf("transaction ID %d still mapped after failure", id)
		}
	}
}

func TestLateAnswerToFirstTryStillCompletes(t *testing.T) {
	tb := NewTable(16, 7)
	seq, first, _ := tb.Start(0, 1, 5, StageAnswer, 0)
	var f fired
	expire(tb, 300*time.Millisecond, &f)
	if f.retries != 1 {
		t.Fatalf("%d retries at 300 ms, want 1", f.retries)
	}
	got, op := tb.Lookup(first)
	if op == nil || got != seq {
		t.Fatal("first try's ID no longer maps to the operation after a retry")
	}
	tb.Finish(seq)
	expire(tb, 2*time.Second, &f)
	if f.retries != 1 || f.fails != 0 {
		t.Errorf("answered operation fired again: %+v", f)
	}
	if _, op := tb.Lookup(first + 1); op != nil {
		t.Error("retry's ID still mapped after completion")
	}
}

func TestAnsweredOperationNeverRetries(t *testing.T) {
	tb := NewTable(16, 0)
	seq, _, _ := tb.Start(0, 1, 5, StageAnswer, 0)
	tb.Finish(seq)
	var f fired
	expire(tb, 2*time.Second, &f)
	if f != (fired{}) {
		t.Errorf("timers fired for an answered operation: %+v", f)
	}
}

func TestTableRefusesToOverwriteLiveOperations(t *testing.T) {
	tb := NewTable(4, 0)
	for i := 0; i < 4; i++ {
		if _, _, ok := tb.Start(0, 1, 0, StageAnswer, 0); !ok {
			t.Fatalf("Start %d refused", i)
		}
	}
	if _, _, ok := tb.Start(0, 1, 0, StageAnswer, 0); ok {
		t.Fatal("fifth Start overwrote an operation still in flight")
	}
	var f fired
	expire(tb, 2*time.Second, &f)
	if _, _, ok := tb.Start(int64(2*time.Second), 1, 0, StageAnswer, 0); !ok {
		t.Error("Start refused after the ring drained")
	}
}

func TestTransactionIDsSkipLiveOnes(t *testing.T) {
	tb := NewTable(8, 65535)
	a, idA, _ := tb.Start(0, 1, 0, StageAnswer, 0)
	_, idB, _ := tb.Start(0, 1, 0, StageAnswer, 0)
	if idA != 65535 || idB != 0 {
		t.Fatalf("IDs %d, %d; want 65535 then wrap to 0", idA, idB)
	}
	tb.nextID = 65535
	id, ok := tb.NewID(a)
	if !ok || id != 1 {
		t.Errorf("NewID = %d (%v), want 1: 65535 and 0 are in use", id, ok)
	}
}

func TestWiresAndValidators(t *testing.T) {
	label := []byte("pr0a1b2c3d")
	q := AppendQuery(nil, 0x1234, label, 17)
	want := "\x12\x34\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x0dpr0a1b2c3dc17\x03foo\x03com\x00\x00\x01\x00\x01"
	if string(q) != want {
		t.Fatalf("cookie query wire\n got %q\nwant %q", q, want)
	}
	question := Question(q)
	if string(question) != want[12:] {
		t.Fatalf("Question = %q", question)
	}

	// The guard's fabricated answer: the question echoed, then one A record
	// owned by a compression pointer to the question name.
	answer := append([]byte{0x12, 0x34, 0x84, 0x00, 0, 1, 0, 1, 0, 0, 0, 0}, question...)
	answer = append(answer, 0xC0, 12, 0, 1, 0, 1, 0, 0, 0x0E, 0x10, 0, 4, 198, 51, 100, 18)
	if !CheckAnswer(answer, 0x1234, question, Glue(17)) {
		t.Error("valid answer rejected")
	}
	for name, mutate := range map[string]func([]byte){
		"wrong ID":       func(b []byte) { b[1]++ },
		"not a response": func(b []byte) { b[2] &^= 0x80 },
		"truncated":      func(b []byte) { b[2] |= 0x02 },
		"SERVFAIL":       func(b []byte) { b[3] |= 2 },
		"other question": func(b []byte) { b[14] ^= 1 },
		"other address":  func(b []byte) { b[len(b)-1]++ },
		"no answer":      func(b []byte) { b[7] = 0 },
	} {
		bad := append([]byte(nil), answer...)
		mutate(bad)
		if CheckAnswer(bad, 0x1234, question, Glue(17)) {
			t.Errorf("%s: accepted", name)
		}
	}
	if CheckAnswer(answer[:len(answer)-3], 0x1234, question, Glue(17)) {
		t.Error("cut-off record accepted")
	}

	// A newcomer's grant: NS c17.foo.com → pr<cookie>c17.foo.com.
	plain := AppendQuery(nil, 7, nil, 17)
	pq := Question(plain)
	grant := append([]byte{0, 7, 0x80, 0x00, 0, 1, 0, 0, 0, 1, 0, 0}, pq...)
	grant = append(grant, 0xC0, 12, 0, 2, 0, 1, 0, 9, 0x3A, 0x80, 0, 16, 13)
	grant = append(grant, "pr0a1b2c3dc17"...)
	grant = append(grant, 0xC0, 16)
	got, ok := ParseGrant(grant, 7, pq, 17)
	if !ok || string(got[:]) != string(label) {
		t.Errorf("ParseGrant = %q, %v", got, ok)
	}
	if _, ok := ParseGrant(grant, 7, pq, 18); ok {
		t.Error("grant for another child accepted")
	}

	// ansd's referral, relayed: NS in authority, glue in additional.
	ref := append([]byte{0, 7, 0x80, 0x00, 0, 1, 0, 0, 0, 1, 0, 1}, pq...)
	ref = append(ref, 0xC0, 12, 0, 2, 0, 1, 0, 0, 0x0E, 0x10, 0, 5, 2, 'n', 's', 0xC0, 12)
	ref = append(ref, 0xC0, byte(len(ref)-5), 0, 1, 0, 1, 0, 0, 0x0E, 0x10, 0, 4, 198, 51, 100, 18)
	if !CheckReferral(ref, 7, pq, Glue(17)) {
		t.Error("valid referral rejected")
	}
	if CheckReferral(ref, 7, pq, Glue(16)) {
		t.Error("referral with another child's glue accepted")
	}

	var ck [16]byte
	ck[15] = 1
	txt := AppendTXTQuery(nil, 9, 3, &ck)
	if txt[11] != 1 || string(Question(txt)) != "\x02c3\x03foo\x03com\x00\x00\x01\x00\x01" || len(txt) != 12+16+11+1+16 {
		t.Errorf("TXT query wire %q", txt)
	}
}

// TestPktinfoSourceSelection sends from two claimed loopback sources over
// one wildcard socket and checks the receiver sees each claimed source, and
// that the reply path reports which source a datagram was addressed to.
func TestPktinfoSourceSelection(t *testing.T) {
	if !Supported {
		t.Skip("IP_PKTINFO sockets are Linux-only")
	}
	server, err := OpenSock(1<<20, 200*time.Millisecond)
	if err != nil {
		t.Skipf("no loopback sockets here: %v", err)
	}
	defer server.Close()
	client, err := OpenSock(1<<20, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	lo := netip.MustParseAddr("127.0.0.1")
	toServer := client.NewSender(netip.AddrPortFrom(lo, server.Port()))
	srcs := []uint32{0x7F020304, 0x7F630201}
	for i, src := range srcs {
		toServer.Commit(append(toServer.Slot(), byte(i)), src)
	}
	toServer.Flush()
	if toServer.Errors != 0 {
		t.Skipf("kernel refuses 127/8 sources here (%d errors)", toServer.Errors)
	}
	rx := server.NewReceiver()
	seen := map[uint32]bool{}
	for len(seen) < len(srcs) {
		n, err := rx.Recv(true)
		if err != nil || n == 0 {
			t.Fatalf("server received %d of %d datagrams (err %v)", len(seen), len(srcs), err)
		}
		for i := 0; i < n; i++ {
			from := rx.From(i)
			if from.Port() != client.Port() {
				t.Errorf("datagram from port %d, want the client's %d", from.Port(), client.Port())
			}
			src := addrU32(from.Addr().As4())
			if want := srcs[rx.Payload(i)[0]]; src != want {
				t.Errorf("datagram %d arrived from %v, want %v", rx.Payload(i)[0], from.Addr(), netip.AddrFrom4(addr4(want)))
			}
			if rx.Stamp(i) == 0 {
				t.Error("no kernel receive timestamp")
			}
			seen[src] = true
			// Reply to the claimed source; it must come back to the client
			// socket marked with that destination.
			back := server.NewSender(from)
			back.Commit(append(back.Slot(), rx.Payload(i)...), 0x7F000001)
			back.Flush()
		}
	}
	crx := client.NewReceiver()
	got := map[uint32]bool{}
	for len(got) < len(srcs) {
		n, err := crx.Recv(true)
		if err != nil || n == 0 {
			t.Fatalf("client received %d of %d replies (err %v)", len(got), len(srcs), err)
		}
		for i := 0; i < n; i++ {
			to, ok := crx.To(i)
			if !ok || to != srcs[crx.Payload(i)[0]] {
				t.Errorf("reply %d addressed to %v (%v), want %v", crx.Payload(i)[0], netip.AddrFrom4(addr4(to)), ok, netip.AddrFrom4(addr4(srcs[crx.Payload(i)[0]])))
			}
			got[to] = true
		}
	}
}
