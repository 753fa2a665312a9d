package guard

import (
	"testing"

	"dnsguard/internal/dnswire"
)

// TestGuardBatchedDataplane runs the guarded-root scenario at Batch 1 and 8 —
// the same loop, bracket and coalesced egress flush with a one-slot and an
// eight-slot slab — and pins the end-to-end outcome and every guard counter
// to be independent of the slab size.
func TestGuardBatchedDataplane(t *testing.T) {
	stats := make(map[int]RemoteStats)
	for _, batch := range []int{1, 8} {
		f := newRootFixture(t, func(c *RemoteConfig) { c.Batch = batch })
		f.run(t, func() {
			res, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
			if err != nil {
				t.Errorf("batch=%d: Resolve: %v (guard stats %+v)", batch, err, f.guard.Stats)
				return
			}
			if len(res.Answers) != 1 || res.Answers[0].Data.(*dnswire.AData).Addr != mustAddr("198.51.100.10") {
				t.Errorf("batch=%d: answers = %v", batch, res.Answers)
			}
		})
		st := f.guard.Stats.Load()
		ing := f.guard.Engine().Ingest()
		if ing.Packets != st.Received || ing.Reads == 0 || ing.Reads > ing.Packets {
			t.Errorf("batch=%d: %d packets over %d reads, guard received %d; want every packet counted and n >= 1 per read",
				batch, ing.Packets, ing.Reads, st.Received)
		}
		if batch == 1 && ing.Reads != ing.Packets {
			t.Errorf("batch=1: %d reads for %d packets; a one-slot slab reads one datagram per call", ing.Reads, ing.Packets)
		}
		stats[batch] = st
	}
	if stats[8] != stats[1] {
		t.Errorf("guard counters depend on the slab size:\nbatch=1: %+v\nbatch=8: %+v",
			stats[1], stats[8])
	}
}

// TestGuardBatchedFloodDrops repeats the spoofed-flood scenario in batch
// mode: rate-limited grants and cookie admission must hold when the
// newcomers arrive as slabs and the shard sheds whole unverified groups.
func TestGuardBatchedFloodDrops(t *testing.T) {
	f := newRootFixture(t, func(c *RemoteConfig) {
		c.Batch = 16
		c.RL1.PerSourceRate = 100
		c.RL1.PerSourceBurst = 20
		c.RL1.GlobalRate = 1000
		c.RL1.GlobalBurst = 100
	})
	f.run(t, func() {
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("Resolve through flood config: %v", err)
		}
	})
	st := f.guard.Stats.Load()
	if st.CookieValid != 1 || st.ForwardedToANS != 1 {
		t.Errorf("valid=%d forwarded=%d, want 1/1", st.CookieValid, st.ForwardedToANS)
	}
}
