package guard

import (
	"strings"
	"testing"

	"dnsguard/internal/dnswire"
)

// TestLongLabelTCReply: a 60-octet child label leaves no room in 63 for the
// cookie label's prefix and hex digits, so the newcomer is redirected to TCP.
// What it sends is a TC reply, counted as one and as a grant, as the apex's
// redirect is, and no cookie is minted for it.
func TestLongLabelTCReply(t *testing.T) {
	h := newShardHarness(t, func(cfg *RemoteConfig) { cfg.Zone = dnswire.MustName("foo.com") })
	q, err := dnswire.NewQuery(0x4242, dnswire.MustName(strings.Repeat("x", 60)+".foo.com"), dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	h.handle(Packet{Src: mustAP("10.0.0.53:4444"), Dst: h.g.cfg.PublicAddr, Payload: q})
	if h.io.wrote != 1 || h.io.n < 12 || h.io.buf[2]&2 == 0 || h.io.buf[9] != 0 {
		t.Fatalf("replies %d, last %x: want one, with TC and no record", h.io.wrote, h.io.buf[:h.io.n])
	}
	if st := h.g.Stats(); st.NewcomerGrants != 1 || st.TCRedirects != 1 {
		t.Errorf("stats %+v: want one grant, one TC redirect", st)
	}
	worker, upstream := h.g.Work(0)
	if worker != (Work{Read: 1, Written: 1, TCReplies: 1}) || upstream != (Work{}) {
		t.Errorf("work %+v and %+v: want one read, one written, one TC reply, no grant", worker, upstream)
	}
}
