package guard

import (
	"net/netip"
	"reflect"
	"sync/atomic"
	"testing"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/metrics"
)

// tallyWrites sums t's fields: how many counts were written into it, one add
// of one each. It fails tb unless every field is a uint64, the words
// metrics.AddUint64 and SnapshotUint64 read a tally as.
func tallyWrites(tb testing.TB, t tally) (n uint64) {
	v := reflect.ValueOf(t)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Uint64 {
			tb.Fatalf("tally.%s is %v: a tally holds uint64 words only", v.Type().Field(i).Name, v.Field(i).Type())
		}
		n += v.Field(i).Uint()
	}
	return n
}

// TestEveryPacketEndsOnce: a datagram of each fate through one shard, and
// upstream datagrams of each kind, each counted once, in the one fate it met
// (CheckConservation); a verified NS-label query and its answer write six
// counts, all into the shard's own tally, where the guard-wide counters took
// ten; and a count written where nothing happened breaks conservation.
func TestEveryPacketEndsOnce(t *testing.T) {
	h := newShardHarness(t, func(cfg *RemoteConfig) { cfg.Zone = dnswire.MustName("foo.com") })
	src, pub := mustAP("10.0.0.53:4444"), h.g.cfg.PublicAddr
	query := func(name string) []byte {
		wire, err := dnswire.NewQuery(1, dnswire.MustName(name), dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	forged := h.nsQueryWire(t, src.Addr(), "www.foo.com", 2)
	if at := 12 + h.g.nsPrefixLen; forged[at] == '0' { // the cookie label's last digit: a MAC that fails
		forged[at] = '1'
	} else {
		forged[at] = '0'
	}
	for _, pkt := range []Packet{
		{Src: src, Dst: netip.AddrPortFrom(pub.Addr(), 5353), Payload: query("www.foo.com")},
		{Src: src, Dst: pub, Payload: []byte{1, 2, 3}},
		{Src: src, Dst: pub, Payload: query("www.foo.com")},
		{Src: src, Dst: pub, Payload: query("foo.com")},
		{Src: src, Dst: pub, Payload: query("www.bar.com")},
		{Src: src, Dst: pub, Payload: forged},
	} {
		h.handle(pkt)
	}

	before := metrics.SnapshotUint64(&h.s.tally)
	h.handle(h.verifiedQuery(t, src.Addr()))
	answer := appendNXDomain(nil, h.up.buf[:h.up.n])
	h.s.handleUpstream(answer, h.g.cfg.ANSAddr)
	if n := tallyWrites(t, metrics.SnapshotUint64(&h.s.tally)) - tallyWrites(t, before); n != 6 {
		t.Errorf("a verified NS-label query and its answer wrote %d counts, want 6", n)
	}

	h.s.handleUpstream(answer, h.g.cfg.ANSAddr)         // its entry is gone: a stray
	h.s.handleUpstream(answer, mustAP("10.99.0.3:53"))  // from no configured upstream
	h.s.handleUpstream([]byte{0}, h.g.cfg.ANSAddr)      // malformed
	h.handle(h.verifiedQuery(t, mustAddr("10.0.0.54"))) // still in flight
	want := tally{
		read: 8, foreign: 1, malformed: 1, grants: 1, tcReplies: 1, refused: 1, invalid: 1, forwarded: 2,
		valid: 2, rewrites: 2,
		upRead: 4, upReplies: 1, strays: 1, spoofed: 1, upMalformed: 1,
	}
	if got := metrics.SnapshotUint64(&h.s.tally); got != want {
		t.Errorf("tally %+v\nwant  %+v", got, want)
	}
	assertConserved(t, h.g)
	atomic.AddUint64(&h.s.tally.read, 1)
	if CheckConservation(h.g) == nil {
		t.Error("a datagram read and never ended passes the check")
	}
}
