package engine

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnsguard/internal/netapi"
	"dnsguard/internal/srctab"
)

// The verified-source cache is the engine's admission fast path. It is NOT a
// grant of trust by address — a source address is exactly what an attacker
// forges. An entry maps a source to the *credential* (fabricated NS label,
// cookie bytes, fabricated IP) it last proved knowledge of, and a probe
// compares that against what the packet presents: an MD5 computation becomes
// a byte compare, and the cookie stays bound to the requester's address
// (§III-D). It is the paper's per-source cookie table, bounded: entries
// expire, a shard holds at most fastPathSources of them, oldest insert
// evicted first, and only a completed verification inserts.
//
// A shard's slice lives on that shard's private shardState, counters
// included, so marking or probing never writes a cacheline another shard
// writes. Handlers name the slice by their own shard id (the *On calls):
// on a direct engine the delivering interface owns the source, not
// ShardOf(src). Only the owning shard marks and probes; the mutex is there
// because the metrics scrape (size) and tests reach a slice from other
// goroutines.
type verifiedShard struct {
	mu  sync.Mutex
	tab *srctab.Table[verifiedEntry] // FIFO: a hit or a re-mark keeps its place
}

// MaxCred is the longest credential the guard forms: "ip:" or "ck:" and 16
// bytes ("ns:" and the NS codec's 10-byte label is shorter). Stored inline,
// it leaves an entry without a pointer.
const MaxCred = 3 + 16

type verifiedEntry struct {
	expires time.Duration
	n       uint8
	cred    [MaxCred]byte
}

func (v *verifiedShard) init(capacity int) {
	v.tab = srctab.New[verifiedEntry](capacity, srctab.FIFO)
}

// MarkVerifiedCredOn records on shard's slice of the cache that src just
// proved knowledge of cred (copied: the caller's scratch stays its own).
// Handlers call it with their own shard id — under affine ingest the
// delivering interface, not the source hash, decides ownership. A full cache
// gives a new source the oldest entry, which counts as an eviction only if it
// had not expired. A no-op when the cache is off (FastPathTTL 0); a
// credential longer than the guard can form is not cached.
func (e *Engine) MarkVerifiedCredOn(shard int, src netip.Addr, cred []byte) {
	markVerified(e, shard, src, cred)
}

// MarkVerifiedOn is MarkVerifiedCredOn for a credential held as a string.
func (e *Engine) MarkVerifiedOn(shard int, src netip.Addr, cred string) {
	markVerified(e, shard, src, cred)
}

func markVerified[T string | []byte](e *Engine, shard int, src netip.Addr, cred T) {
	if e.cfg.FastPathTTL <= 0 || len(cred) > MaxCred {
		return
	}
	now := e.cfg.Env.Now()
	sh := e.shards[shard]
	v := &sh.verified
	v.mu.Lock()
	ent, found, evicted := v.tab.Put(src.As16())
	evicted = evicted && ent.expires > now // taking over a dead entry evicts no one
	ent.expires, ent.n = now+e.cfg.FastPathTTL, uint8(copy(ent.cred[:], cred))
	v.mu.Unlock()
	if !found {
		atomic.AddUint64(&sh.fast.Inserts, 1)
	}
	if evicted {
		atomic.AddUint64(&sh.fast.Evictions, 1)
	}
}

// live returns src's entry unless it has expired, in which case it deletes
// it, which also takes it out of the eviction order. The clock is read only
// for a source that has an entry: a spoofed source, which never has, costs
// a probe and nothing more. Called with v.mu held.
func (v *verifiedShard) live(src netip.Addr, clock netapi.Env) *verifiedEntry {
	key := srctab.Key(src.As16())
	ent := v.tab.Get(key)
	if ent != nil && ent.expires <= clock.Now() {
		v.tab.Delete(key)
		return nil
	}
	return ent
}

// probe reports whether src has a live entry on shard's slice of the cache
// and whether it holds cred, and counts what feeds the fast-path ratio: a Hit
// for a live entry, matching or not, and a Miss otherwise. The compare is
// constant-time: the presented credential is attacker-controlled, and an
// early exit would leak the cached one byte by byte.
func (e *Engine) probe(shard int, src netip.Addr, cred []byte) (live, match bool) {
	if e.cfg.FastPathTTL <= 0 {
		return false, false
	}
	sh := e.shards[shard]
	v := &sh.verified
	v.mu.Lock()
	if ent := v.live(src, e.cfg.Env); ent != nil {
		live = true
		if int(ent.n) == len(cred) {
			var diff byte
			for i, c := range ent.cred[:len(cred)] {
				diff |= c ^ cred[i]
			}
			match = diff == 0
		}
	}
	v.mu.Unlock()
	if live {
		atomic.AddUint64(&sh.fast.Hits, 1)
	} else {
		atomic.AddUint64(&sh.fast.Misses, 1)
	}
	return live, match
}

// VerifiedCredMatchOn reports whether src's live entry on shard's cache
// slice holds exactly cred. Handlers call it with their own shard id and the
// credential as the packet presents it.
func (e *Engine) VerifiedCredMatchOn(shard int, src netip.Addr, cred []byte) bool {
	_, match := e.probe(shard, src, cred)
	return match
}

// VerifiedCredOn reports whether src has a live entry on shard's slice of
// the cache, counted as VerifiedCredMatchOn counts, and materializes its
// credential; handlers, which only compare, use the call above.
func (e *Engine) VerifiedCredOn(shard int, src netip.Addr) (cred string, ok bool) {
	if ok, _ = e.probe(shard, src, nil); ok {
		v := &e.shards[shard].verified
		v.mu.Lock()
		if ent := v.tab.Get(src.As16()); ent != nil {
			cred = string(ent.cred[:ent.n])
		}
		v.mu.Unlock()
	}
	return cred, ok
}

// flush discards every entry, used when a supervised restart rebuilds the
// shard's state from scratch (a panic mid-update may have left an entry
// half-written relative to the handler's own tables).
func (v *verifiedShard) flush() {
	v.mu.Lock()
	v.tab.Reset()
	v.mu.Unlock()
}

// size reports the shard's entry count (including not-yet-swept expired
// entries; they disappear on next touch).
func (v *verifiedShard) size() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.tab.Len()
}
