package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// These benchmarks isolate the false-sharing fix behind the per-shard
// counter restructuring: IngestStats is 16 bytes, so a packed []IngestStats
// puts shard 0's and shard 1's hot counters on the same 64-byte cache line,
// and two workers incrementing "their own" counters ping-pong that line
// between cores. The padded layout mirrors the engine's shardState — each
// shard separately heap-allocated with its hot counters at the head and a
// full line of tail padding — so concurrent increments never share a line.
//
// Run both with:
//
//	go test ./internal/engine -bench ShardCounter -benchtime 2s
//
// On a multi-core host the padded layout wins by the cache-coherence
// round-trip per increment; on a single-core host (GOMAXPROCS=1) the two
// layouts measure the same, since the goroutines never run concurrently and
// the line is never contended.

const benchCounterShards = 2

// benchPaddedShard mirrors shardState's counter layout: hot atomics at the
// struct head, a cache line of tail padding, one heap allocation per shard.
type benchPaddedShard struct {
	ingest IngestStats
	_      [64]byte
}

func benchHammer(b *testing.B, counter func(shard int) *uint64) {
	workers := runtime.GOMAXPROCS(0)
	if workers > benchCounterShards {
		workers = benchCounterShards
	}
	perWorker := b.N/workers + 1
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			c := counter(shard)
			for i := 0; i < perWorker; i++ {
				atomic.AddUint64(c, 1)
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkShardCounterPacked is the pre-rewrite layout: one contiguous
// slice of IngestStats, adjacent shards sharing cache lines.
func BenchmarkShardCounterPacked(b *testing.B) {
	stats := make([]IngestStats, benchCounterShards)
	benchHammer(b, func(shard int) *uint64 { return &stats[shard].Packets })
}

// BenchmarkShardCounterPadded is the engine's current layout: per-shard
// allocations with tail padding, no two shards on one line.
func BenchmarkShardCounterPadded(b *testing.B) {
	shards := make([]*benchPaddedShard, benchCounterShards)
	for i := range shards {
		shards[i] = &benchPaddedShard{}
	}
	benchHammer(b, func(shard int) *uint64 { return &shards[shard].ingest.Packets })
}
