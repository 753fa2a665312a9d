package guard

import (
	"net/netip"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"dnsguard/internal/metrics"
)

// BenchmarkRejectShards: forged NS-label queries rejected through
// HandlePacket, by one goroutine on one shard, and by two goroutines at once,
// each on its own shard, at GOMAXPROCS 2. Every goroutine handles b.N
// packets, so ns/op is a shard's time per packet either way: what the second
// figure has above the first is what two shards cost each other — counters
// they both write, a cache line they share. It records; nothing gates it.
func BenchmarkRejectShards(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(strconv.Itoa(shards)+"shard", func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
			h := newShardHarness(b, func(cfg *RemoteConfig) {
				cfg.IOs = nil
				for i := 0; i < shards; i++ {
					cfg.IOs = append(cfg.IOs, &sinkIO{})
				}
			})
			pkts := make([]Packet, shards)
			for i := range pkts {
				src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 7, 0, byte(1 + i)}), 5353)
				wire := h.nsQueryWire(b, src.Addr(), "www.foo.com", 7)
				// The cookie label's last hex digit, changed: a MAC that fails.
				if at := 12 + h.g.nsPrefixLen; wire[at] == '0' {
					wire[at] = '1'
				} else {
					wire[at] = '0'
				}
				pkts[i] = Packet{Src: src, Dst: h.g.cfg.PublicAddr, Payload: wire}
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
			r := metrics.NewRegistry()
			h.g.MetricsInto(r)
			if v, _ := r.Get("guard_remote_cookie_invalid"); v != float64(shards*b.N) {
				b.Fatalf("%v of %d queries rejected as forged", v, shards*b.N)
			}
		})
	}
}
