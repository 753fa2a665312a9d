package engine

import (
	"crypto/subtle"
	"net/netip"
	"sync"
	"time"

	"dnsguard/internal/srctab"
)

// The verified-source cache maps a source to the credential it last proved.
// The guard keeps no such cache: every cookie it is shown pays its MAC. This
// is left for bench/layers, which times it, and goes with the rows that time
// it (ROADMAP item 1(a)). A shard's slice
// exists only with a FastPathTTL and holds at most fastPathSources entries,
// oldest insert evicted first; the mutex is for tests that race it.
type verifiedShard struct {
	mu  sync.Mutex
	tab *srctab.Table[verifiedEntry] // FIFO: a hit or a re-mark keeps its place
}

// MaxCred is the longest credential the cache holds: "ip:" or "ck:" and 16
// bytes, the longest a guard forms ("ns:" and the NS codec's 10-byte label
// is 13). Stored inline, it leaves an entry without a pointer.
const MaxCred = 3 + 16

type verifiedEntry struct {
	expires time.Duration
	n       uint8
	cred    [MaxCred]byte
}

// MarkVerifiedOn records on shard's slice of the cache that src just proved
// knowledge of cred. A no-op when the cache is off (FastPathTTL 0); a
// credential longer than MaxCred is not cached.
//
// Deprecated: only bench/layers calls it; the guard keeps no verified
// sources. It goes with ROADMAP item 1(a).
func (e *Engine) MarkVerifiedOn(shard int, src netip.Addr, cred string) {
	v := &e.shards[shard].verified
	if v.tab == nil || len(cred) > MaxCred {
		return
	}
	now := e.cfg.Env.Now()
	v.mu.Lock()
	ent, _, _ := v.tab.Put(src.As16())
	ent.expires, ent.n = now+e.cfg.FastPathTTL, uint8(copy(ent.cred[:], cred))
	v.mu.Unlock()
}

// live returns a copy of src's entry on shard's slice of the cache, deleting
// it if it has expired.
func (e *Engine) live(shard int, src netip.Addr) (verifiedEntry, bool) {
	v := &e.shards[shard].verified
	if v.tab == nil {
		return verifiedEntry{}, false
	}
	key := srctab.Key(src.As16())
	v.mu.Lock()
	defer v.mu.Unlock()
	p := v.tab.Get(key)
	if p != nil && p.expires <= e.cfg.Env.Now() {
		v.tab.Delete(key)
		p = nil
	}
	if p == nil {
		return verifiedEntry{}, false
	}
	return *p, true
}

// VerifiedCredMatchOn reports whether src's live entry on shard's cache
// slice holds exactly cred, compared in constant time.
//
// Deprecated: only bench/layers calls it; see MarkVerifiedOn.
func (e *Engine) VerifiedCredMatchOn(shard int, src netip.Addr, cred []byte) bool {
	ent, ok := e.live(shard, src)
	return ok && subtle.ConstantTimeCompare(ent.cred[:ent.n], cred) == 1
}

// VerifiedCredOn reports whether src has a live entry on shard's slice of
// the cache and materializes its credential.
//
// Deprecated: only bench/layers calls it; see MarkVerifiedOn.
func (e *Engine) VerifiedCredOn(shard int, src netip.Addr) (string, bool) {
	ent, ok := e.live(shard, src)
	return string(ent.cred[:ent.n]), ok
}
