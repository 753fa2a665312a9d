package ratelimit

import (
	"testing"
	"time"
)

// The limiter layers as the guard drives them, tables at capacity. Run at a
// fixed count so parent and change do the same work:
//
//	go test -run '^$' -bench 'Limiter' -benchtime 500000x -count 5 ./internal/ratelimit

// BenchmarkLimiter2Hot charges 2048 tracked sources in turn.
func BenchmarkLimiter2Hot(b *testing.B) {
	l := NewLimiter2(DefaultLimiter2Config(), 0)
	for i := 0; i < 8192; i++ {
		l.AllowRequest(ip(i), 0)
	}
	const step = time.Second / 12000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.AllowRequest(ip(i%2048), time.Duration(i)*step)
	}
}

// BenchmarkLimiter2Cold charges a never-seen source each time: every charge
// evicts.
func BenchmarkLimiter2Cold(b *testing.B) {
	l := NewLimiter2(DefaultLimiter2Config(), 0)
	for i := 0; i < 8192; i++ {
		l.AllowRequest(ip(i), 0)
	}
	const step = time.Second / 13000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.AllowRequest(ip(8192+i), time.Duration(i)*step)
	}
}

// BenchmarkLimiter1Cold is a cookie-less newcomer flood: each response is to
// a never-seen source, so every charge reads the oldest entry and takes it
// over — the table is full, and from 10 ms in every bucket has refilled.
func BenchmarkLimiter1Cold(b *testing.B) {
	l := NewLimiter1(DefaultLimiter1Config(), 0)
	for i := 0; i < 8192; i++ {
		l.AllowResponse(ip(i), 0)
	}
	const step = time.Second / 13000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.AllowResponse(ip(8192+i), time.Duration(i)*step)
	}
}
