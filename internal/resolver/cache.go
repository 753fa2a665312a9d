// Package resolver implements the DNS Guard paper's LRS (local recursive
// server): a TTL-respecting cache and an iterative resolver that walks the
// delegation hierarchy from root hints, resolves NS target names (including
// the guard's fabricated cookie names, which need no special handling — that
// is the point of the DNS-based scheme's transparency), falls back to TCP on
// truncated responses, and retries with the configurable timeout whose
// 2-second BIND default is what makes unprotected servers collapse under
// attack (Figure 5).
package resolver

import (
	"sort"
	"sync"
	"time"

	"dnsguard/internal/dnswire"
)

type cacheKey struct {
	name  dnswire.Name
	rtype dnswire.Type
}

type cacheEntry struct {
	rrs      []dnswire.RR
	negative bool
	rcode    dnswire.RCode
	storedAt time.Duration
	expires  time.Duration
}

// Cache is a TTL-based DNS cache on a monotonic clock supplied by the
// caller. All methods are safe for concurrent use: the real LRS daemon
// resolves each query on its own goroutine against one shared cache.
// Set MinTTL/MaxTTL before the cache is shared.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]cacheEntry
	max     int
	// MinTTL clamps the minimum time entries stay cached.
	MinTTL time.Duration
	// MaxTTL clamps how long any entry may stay cached.
	MaxTTL time.Duration

	hits   uint64
	misses uint64
}

// NewCache creates a cache bounded to max entries (random-ish eviction of
// expired entries first, then arbitrary).
func NewCache(max int) *Cache {
	if max < 16 {
		max = 16
	}
	return &Cache{
		entries: make(map[cacheKey]cacheEntry),
		max:     max,
		MaxTTL:  7 * 24 * time.Hour,
	}
}

// Put stores an rrset. TTL is taken as the minimum TTL across rrs; a TTL of
// zero means the rrset is not cached (the Figure 5 configuration).
func (c *Cache) Put(now time.Duration, name dnswire.Name, rtype dnswire.Type, rrs []dnswire.RR) {
	if len(rrs) == 0 {
		return
	}
	minTTL := rrs[0].TTL
	for _, rr := range rrs[1:] {
		if rr.TTL < minTTL {
			minTTL = rr.TTL
		}
	}
	ttl := time.Duration(minTTL) * time.Second
	// TTL 0 means "do not cache" (Figure 5 semantics) and must be honoured
	// before the MinTTL floor — clamping first would cache the uncacheable.
	if ttl <= 0 {
		return
	}
	if ttl < c.MinTTL {
		ttl = c.MinTTL
	}
	if ttl > c.MaxTTL {
		ttl = c.MaxTTL
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictIfFull(now)
	c.entries[cacheKey{name, rtype}] = cacheEntry{
		rrs:      append([]dnswire.RR(nil), rrs...),
		storedAt: now,
		expires:  now + ttl,
	}
}

// PutNegative stores an NXDOMAIN or NODATA result for ttl.
func (c *Cache) PutNegative(now time.Duration, name dnswire.Name, rtype dnswire.Type, rcode dnswire.RCode, ttl time.Duration) {
	if ttl <= 0 {
		return
	}
	if ttl > c.MaxTTL {
		ttl = c.MaxTTL
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictIfFull(now)
	c.entries[cacheKey{name, rtype}] = cacheEntry{
		negative: true,
		rcode:    rcode,
		storedAt: now,
		expires:  now + ttl,
	}
}

// Get returns the cached rrset with TTLs aged by the time in cache. negative
// reports a cached negative result (rrs nil, rcode meaningful).
func (c *Cache) Get(now time.Duration, name dnswire.Name, rtype dnswire.Type) (rrs []dnswire.RR, rcode dnswire.RCode, negative, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, exists := c.entries[cacheKey{name, rtype}]
	if !exists || now >= e.expires {
		if exists {
			delete(c.entries, cacheKey{name, rtype})
		}
		c.misses++
		return nil, 0, false, false
	}
	c.hits++
	if e.negative {
		return nil, e.rcode, true, true
	}
	aged := make([]dnswire.RR, len(e.rrs))
	copy(aged, e.rrs)
	elapsed := uint32((now - e.storedAt) / time.Second)
	for i := range aged {
		if aged[i].TTL > elapsed {
			aged[i].TTL -= elapsed
		} else {
			aged[i].TTL = 0
		}
	}
	return aged, dnswire.RCodeNoError, false, true
}

// Flush removes everything.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[cacheKey]cacheEntry)
}

// Stats reports hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

func (c *Cache) evictIfFull(now time.Duration) {
	if len(c.entries) < c.max {
		return
	}
	// First pass: drop expired entries.
	for k, e := range c.entries {
		if now >= e.expires {
			delete(c.entries, k)
		}
	}
	// Still full: drop the soonest-to-expire entries.
	if len(c.entries) >= c.max {
		type ke struct {
			k cacheKey
			e time.Duration
		}
		all := make([]ke, 0, len(c.entries))
		for k, e := range c.entries {
			all = append(all, ke{k, e.expires})
		}
		sort.Slice(all, func(i, j int) bool { return all[i].e < all[j].e })
		for i := 0; i < len(all)/4+1; i++ {
			delete(c.entries, all[i].k)
		}
	}
}
