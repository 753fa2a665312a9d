package engine

import (
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/realnet"
)

// The verified-source cache as the guard drives it, one shard at capacity
// (4096 sources). Run at a fixed count so parent and change do the same
// work:
//
//	go test -run '^$' -bench 'Verified' -benchtime 500000x -count 5 ./internal/engine

func benchCache(b *testing.B) (*Engine, []byte) {
	rg := &rig{bySrc: make(map[netip.Addr][]int)}
	e, err := New(Config{
		Env:         realnet.New(),
		IOs:         []PacketIO{newFakeIO(1)},
		FastPathTTL: time.Hour,
		NewHandler:  rg.newHandler,
	})
	if err != nil {
		b.Fatal(err)
	}
	const cred = "ns:pr00000000"
	for i := 0; i < 4096; i++ {
		e.MarkVerifiedOn(0, benchSrc(i), cred)
	}
	b.ReportAllocs()
	b.ResetTimer()
	return e, []byte(cred)
}

func benchSrc(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)})
}

func BenchmarkVerifiedHit(b *testing.B) {
	e, cred := benchCache(b)
	for i := 0; i < b.N; i++ {
		if !e.VerifiedCredMatchOn(0, benchSrc(i%2048), cred) {
			b.Fatal("miss on a cached source")
		}
	}
}

func BenchmarkVerifiedMiss(b *testing.B) {
	e, cred := benchCache(b)
	for i := 0; i < b.N; i++ {
		if e.VerifiedCredMatchOn(0, benchSrc(4096+i%8192), cred) {
			b.Fatal("hit on a stranger")
		}
	}
}

// BenchmarkVerifiedInsertEvict caches a never-seen source each time.
func BenchmarkVerifiedInsertEvict(b *testing.B) {
	e, _ := benchCache(b)
	for i := 0; i < b.N; i++ {
		e.MarkVerifiedOn(0, benchSrc(4096+i), "ns:pr00000000")
	}
}
