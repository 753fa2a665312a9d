package guard

import (
	"net/netip"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"dnsguard/internal/dnswire"
)

// BenchmarkRejectShards: forged NS-label queries rejected through
// HandlePacket, by one goroutine on one shard, and by two goroutines at once,
// each on its own shard, at GOMAXPROCS 2. Every goroutine handles b.N
// packets, so ns/op is a shard's time per packet either way: what the second
// figure has above the first is what two shards cost each other — counters
// they both write, a cache line they share. It records; nothing gates it.
//
// The threshold- cases arm ActivationThreshold at 1 req/s, every shard
// engaged before the timer starts, so each packet also feeds the input-rate
// estimate. The selector- cases arm the mitigation selector at LayerCookies
// and send cookie-less newcomers instead, which feed the name sketch before
// Rate-Limiter1 grants or drops them.
func BenchmarkRejectShards(b *testing.B) {
	for _, arm := range []string{"", "threshold-", "selector-"} {
		for _, shards := range []int{1, 2} {
			b.Run(arm+strconv.Itoa(shards)+"shard", func(b *testing.B) {
				benchRejectShards(b, arm, shards)
			})
		}
	}
}

func benchRejectShards(b *testing.B, arm string, shards int) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	h := newShardHarness(b, func(cfg *RemoteConfig) {
		cfg.IOs = nil
		for i := 0; i < shards; i++ {
			cfg.IOs = append(cfg.IOs, &sinkIO{})
		}
		if arm == "threshold-" {
			cfg.ActivationThreshold = 1
		}
		cfg.Mitigation.Enabled = arm == "selector-"
	})
	if arm == "selector-" {
		h.g.mit.layer.Store(int32(LayerCookies))
	}
	pkts := make([]Packet, shards)
	for i := range pkts {
		src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 7, 0, byte(1 + i)}), 5353)
		var wire []byte
		if arm == "selector-" {
			wire, _ = dnswire.NewQuery(7, dnswire.MustName("www.foo.com"), dnswire.TypeA).PackUDP(512)
		} else {
			wire = h.nsQueryWire(b, src.Addr(), "www.foo.com", 7)
			// The cookie label's last hex digit, changed: a MAC that fails.
			if at := 12 + h.g.nsPrefixLen; wire[at] == '0' {
				wire[at] = '1'
			} else {
				wire[at] = '0'
			}
		}
		pkts[i] = Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: wire}
	}
	for _, s := range h.g.shards {
		for !s.detecting() {
			s.observeRate()
		}
	}
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(s *remoteShard, pkt Packet) {
			defer wg.Done()
			for n := 0; n < b.N; n++ {
				s.BeginBatch(1)
				s.HandlePacket(pkt)
				s.EndBatch()
			}
		}(h.g.shards[i], pkts[i])
	}
	wg.Wait()
	b.StopTimer()
	st := h.g.Stats()
	judged, what := st.CookieInvalid, "rejected as forged"
	if arm == "selector-" {
		judged, what = st.NewcomerGrants+st.RL1Dropped, "granted or dropped by Rate-Limiter1"
	}
	if judged != uint64(shards*b.N) {
		b.Fatalf("%d of %d queries %s", judged, shards*b.N, what)
	}
}
