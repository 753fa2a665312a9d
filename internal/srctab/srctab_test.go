package srctab

import (
	"container/list"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
)

// model is the reference the table is checked against: a map for lookup and
// a container/list for eviction order, front = newest. peak is the most
// sources it has held, across Resets too: the index keeps its size.
type model struct {
	cap   int
	order Order
	m     map[Key]*list.Element
	l     *list.List
	peak  int
}

type modelEntry struct {
	key Key
	val uint64
}

func newModel(capacity int, order Order) *model {
	return &model{cap: max(capacity, 1), order: order, m: map[Key]*list.Element{}, l: list.New()}
}

func (m *model) get(k Key) (uint64, bool) {
	if el, ok := m.m[k]; ok {
		return el.Value.(*modelEntry).val, true
	}
	return 0, false
}

// put mirrors Table.Get then Keep(reuseOldest); old is the value Keep leaves
// in place: the key's own when found, the evicted source's when evicted,
// zero otherwise.
func (m *model) put(k Key, val uint64, reuseOldest bool) (old uint64, found, evicted bool) {
	if el, ok := m.m[k]; ok {
		if m.order == LRU {
			m.l.MoveToFront(el)
		}
		e := el.Value.(*modelEntry)
		old, e.val = e.val, val
		return old, true, false
	}
	if len(m.m) == m.cap || reuseOldest && len(m.m) > 0 {
		back := m.l.Back()
		e := m.l.Remove(back).(*modelEntry)
		delete(m.m, e.key)
		old, evicted = e.val, true
	}
	m.m[k] = m.l.PushFront(&modelEntry{k, val})
	m.peak = max(m.peak, len(m.m))
	return old, false, evicted
}

func (m *model) delete(k Key) bool {
	el, ok := m.m[k]
	if ok {
		m.l.Remove(el)
		delete(m.m, k)
	}
	return ok
}

// check compares every observable of t with the model and verifies the
// table's own invariants: list order, list/index agreement, reachability of
// every slot from its home, the load bound, and an index no larger than the
// peak population needs.
func check(tb testing.TB, t *Table[uint64], m *model) {
	tb.Helper()
	if t.Len() != len(m.m) || t.Cap() != m.cap {
		tb.Fatalf("len %d cap %d, model len %d cap %d", t.Len(), t.Cap(), len(m.m), m.cap)
	}
	el := m.l.Front()
	seen := 0
	for ref, prev := t.entries[0].older, uint32(0); ref != 0; ref = t.entries[ref].older {
		e := &t.entries[ref]
		if el == nil {
			tb.Fatalf("list is longer than the model's (%d)", m.l.Len())
		}
		if want := el.Value.(*modelEntry); e.key != want.key || e.val != want.val {
			tb.Fatalf("list position %d holds %x=%d, model %x=%d", seen, e.key, e.val, want.key, want.val)
		}
		if e.newer != prev {
			tb.Fatalf("entry %d: newer = %d, want %d", ref, e.newer, prev)
		}
		if _, _, got := t.find(e.key); got != ref {
			tb.Fatalf("entry %d (%x) is on the list but find gives %d", ref, e.key, got)
		}
		prev, el = ref, el.Next()
		seen++
	}
	if el != nil || seen != len(m.m) {
		tb.Fatalf("list holds %d entries, model %d", seen, len(m.m))
	}
	slots := 0
	for _, s := range t.index {
		if s != 0 {
			slots++
		}
	}
	if slots != t.Len() || 2*slots > len(t.index) {
		tb.Fatalf("%d occupied slots of %d for %d sources", slots, len(t.index), t.Len())
	}
	if want := indexFor(m.cap, m.peak); len(t.index) > want {
		tb.Fatalf("%d index slots after at most %d sources, want <= %d", len(t.index), m.peak, want)
	}
}

// indexFor is the largest index a table for capacity may have after holding
// peak sources: 64 slots, or the table's whole index if smaller, doubled
// while under twice the peak.
func indexFor(capacity, peak int) int {
	slots := 2
	for slots < min(2*max(capacity, 1), 64) || slots < 2*peak {
		slots *= 2
	}
	return slots
}

func key(i uint32) Key {
	var k Key
	binary.BigEndian.PutUint32(k[12:], i)
	return k
}

// run drives a table and the model with one op per 3 bytes of script —
// op, key, value — drawing keys from a space a little larger than the
// capacity so hits, misses, evictions and deletes all occur. Without grow, a
// table larger than a key byte can name is first filled to within 16
// sources of its capacity, so the script churns it at its bound, with entry
// numbers and homes spread over the whole index. With grow every table
// starts empty and the key and value bytes together name the key, so a long
// script fills a large table through its index's doublings; run returns how
// many there were.
func run(tb testing.TB, capacity int, order Order, grow bool, script []byte) (doublings int) {
	t, m := New[uint64](capacity, order), newModel(capacity, order)
	for i := 0; !grow && t.Cap() > 255 && i < t.Cap()-16; i++ {
		k := key(1<<24 | uint32(i))
		p, _, _ := t.Put(k)
		*p = uint64(i)
		m.put(k, uint64(i), false)
	}
	first, space := len(t.index), uint32(2*t.Cap()+1)
	keyOf := func(op []byte) Key { return key(uint32(op[1]) % space) }
	if grow {
		keyOf = func(op []byte) Key { return key((uint32(op[1]) | uint32(op[2])<<8) % space) }
	}
	drive(tb, t, m, script, keyOf)
	return bits.Len(uint(len(t.index)/first)) - 1
}

// drive runs script on t and m, naming each op's key through keyOf, and
// checks the two agree after every operation.
func drive(tb testing.TB, t *Table[uint64], m *model, script []byte, keyOf func(op []byte) Key) {
	for i := 0; i+2 < len(script); i += 3 {
		k, val := keyOf(script[i:i+3]), uint64(script[i+2])+1
		switch op := script[i] % 8; {
		case op < 4:
			put := t.Put
			reuse := op == 2
			if op >= 2 { // Get, then Keep where it probed; op 2 reuses the oldest entry
				put = func(k Key) (*uint64, bool, bool) {
					v := t.Get(k)
					if want, ok := m.get(k); ok != (v != nil) || ok && *v != want {
						tb.Fatalf("op %d: Get(%x) = %v, model %d, %v", i/3, k, v, want, ok)
					}
					if o, back := t.Oldest(), m.l.Back(); (o == nil) != (back == nil) || o != nil && *o != back.Value.(*modelEntry).val {
						tb.Fatalf("op %d: Oldest = %v, model %v", i/3, o, back)
					}
					return t.Keep(reuse)
				}
			}
			p, found, evicted := put(k)
			old, wantFound, wantEvicted := m.put(k, val, reuse)
			if found != wantFound || evicted != wantEvicted || *p != old {
				tb.Fatalf("op %d: Put(%x) = %d, %v, %v; model %d, %v, %v", i/3, k, *p, found, evicted, old, wantFound, wantEvicted)
			}
			*p = val
		case op < 6:
			ok := t.Delete(k)
			if want := m.delete(k); ok != want {
				tb.Fatalf("op %d: Delete(%x) = %v, model %v", i/3, k, ok, want)
			}
		case op < 7:
			p := t.Get(k)
			if want, ok := m.get(k); ok != (p != nil) || ok && *p != want {
				tb.Fatalf("op %d: Get(%x) = %v, model %d, %v", i/3, k, p, want, ok)
			}
		default:
			if script[i+1] == 0 { // rare, or nothing ever fills
				t.Reset()
				peak := m.peak
				*m = *newModel(m.cap, m.order)
				m.peak = peak
			}
		}
		check(tb, t, m)
	}
}

// TestDifferential: the table against the reference model in both orders, at
// the smallest capacities, a non-power-of-two, the verified cache's 4096 and
// MaxCap, on scripts heavy in deletes (which is also what expiry is): each
// churning a table at its bound, and filling one from empty. At 4096 and
// MaxCap a filling script takes the index through at least three doublings.
func TestDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{0, 1, 2, 3, 13, 100, 4096, MaxCap} {
		rounds, ops, growOps := 20, 400, 400
		if capacity > 255 {
			rounds, ops, growOps = 1, 100, growScriptOps // a check walks every source
		}
		for _, order := range []Order{FIFO, LRU} {
			for round := 0; round < rounds; round++ {
				script := make([]byte, 3*ops)
				rng.Read(script)
				run(t, capacity, order, false, script)
				script = make([]byte, 3*growOps)
				rng.Read(script)
				if n := run(t, capacity, order, true, script); capacity > 255 && n < 3 {
					t.Errorf("cap %d, %v: a filling script of %d ops doubled the index %d times, want >= 3", capacity, order, growOps, n)
				}
			}
		}
	}
}

// growScriptOps is how long a filling script is at 4096 and MaxCap: about a
// quarter of its ops insert a source that stays, so the table passes the
// 129 sources that take a 64-slot index through three doublings.
const growScriptOps = 1200

func FuzzSrcTable(f *testing.F) {
	f.Add(uint16(1), true, false, []byte{0, 1, 1, 0, 2, 2, 4, 1, 0, 0, 3, 3})
	f.Add(uint16(3), false, false, []byte{0, 1, 1, 0, 2, 2, 0, 3, 3, 0, 1, 9, 0, 4, 4, 6, 1, 0})
	f.Add(uint16(4096), false, false, []byte{0, 1, 1, 0, 2, 2, 4, 1, 0, 0, 130, 3, 0, 200, 4, 6, 2, 0})
	f.Add(uint16(8), true, false, []byte{0, 1, 1, 0, 2, 2, 2, 3, 3, 2, 1, 4, 2, 4, 5, 4, 1, 0, 2, 5, 6, 2, 5, 7})
	f.Add(uint16(MaxCap), true, false, []byte{0, 1, 1, 0, 2, 2, 4, 1, 0, 0, 130, 3, 0, 200, 4, 6, 2, 0})
	// Filling scripts that cross at least three doublings.
	rng := rand.New(rand.NewSource(3))
	for _, capacity := range []uint16{4096, MaxCap} {
		for _, lru := range []bool{false, true} {
			script := make([]byte, 3*growScriptOps)
			rng.Read(script)
			if n := run(f, int(capacity), Order(lru), true, script); n < 3 {
				f.Fatalf("seed script at cap %d doubles the index %d times, want >= 3", capacity, n)
			}
			f.Add(capacity, lru, true, script)
		}
	}
	f.Fuzz(func(t *testing.T, capacity uint16, lru, grow bool, script []byte) {
		run(t, min(int(capacity), MaxCap), Order(lru), grow, script)
	})
}

// TestSharedTags drives tables through keys found, under each table's own
// seed, to share a tag — so their home too, and a probe's tag compare passes
// for every one of them and only the key compare tells them apart — beside
// keys that share only the home, so vacate must read each occupant's home
// from its stored tag to keep the run reachable. There are more keys than the
// table holds, so Put evicts through them too.
func TestSharedTags(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, capacity := range []int{8, 64} {
		for _, order := range []Order{FIFO, LRU} {
			tab, m := New[uint64](capacity, order), newModel(capacity, order)
			byTag := map[uint32][]Key{}
			var shared []Key
			for i := uint32(0); len(shared) < 6; i++ {
				tag, _, _ := tab.find(key(i))
				if byTag[tag] = append(byTag[tag], key(i)); len(byTag[tag]) == 6 {
					shared = byTag[tag]
				}
			}
			tag, _, _ := tab.find(shared[0])
			keys := append([]Key(nil), shared...)
			full := uint32(indexFor(capacity, capacity) - 1) // a home at every size the index takes
			for i := uint32(1 << 30); len(keys) < capacity+6; i++ {
				if other, _, _ := tab.find(key(i)); other != tag && other&full == tag&full {
					keys = append(keys, key(i))
				}
			}
			script := make([]byte, 3*4000)
			rng.Read(script)
			drive(t, tab, m, script, func(op []byte) Key { return keys[int(op[1])%len(keys)] })
		}
	}
}

// TestAdversarialKeys: key sets an attacker would pick to collide under a
// weak or unseeded hash — a sequential /16, keys that agree in their low
// bytes, keys that agree in their high bytes — probe no longer than random
// keys do. With the index half full, the longest run of 16384 random keys
// measures 31 slots in the median and 48 once in a hundred tables, and each
// further slot is 0.82 times as likely (e^-(α-1-ln α), α = 1/2): 128 is a
// one-in-10⁹ event for a seeded hash, and a fraction of the thousands of
// slots one collision class would fill.
func TestAdversarialKeys(t *testing.T) {
	const n = 1 << 14
	sets := map[string]func(i uint32) Key{
		"sequential /16": func(i uint32) Key {
			return netip.AddrFrom4([4]byte{10, 1, byte(i >> 8), byte(i)}).As16()
		},
		"equal low bytes": func(i uint32) Key {
			var k Key
			binary.BigEndian.PutUint32(k[0:], i)
			copy(k[4:], "\x00\x00\x00\x00\x00\x00\xff\xff\x0a\x00\x00\x01")
			return k
		},
		"equal high bytes, stride 4096": func(i uint32) Key { return key(i << 12) },
	}
	for name, gen := range sets {
		tab := New[uint64](n, LRU)
		for i := uint32(0); i < n; i++ {
			tab.Put(gen(i))
		}
		if tab.Len() != n {
			t.Fatalf("%s: %d distinct keys, want %d", name, tab.Len(), n)
		}
		longest, run := 0, 0
		for i := 0; i < 2*len(tab.index); i++ { // twice round: a run may wrap
			if tab.index[i%len(tab.index)] == 0 {
				run = 0
			} else if run++; run > longest {
				longest = run
			}
		}
		if longest > 128 {
			t.Errorf("%s: longest probe run %d slots, want <= 128", name, longest)
		}
	}
}

// TestNewRefusesOverMaxCap: a capacity the index cannot number panics,
// naming the bound, rather than building a smaller table than was asked for.
func TestNewRefusesOverMaxCap(t *testing.T) {
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "MaxCap 32767") {
			t.Errorf("New(MaxCap+1) panicked with %q, want the bound named", r)
		}
	}()
	New[uint64](MaxCap+1, LRU)
}

// TestTwins: an IPv4 source and its 4-in-6 form are one key — the identity a
// cookie is bound to — and a zone is not part of it.
func TestTwins(t *testing.T) {
	v4 := netip.MustParseAddr("192.0.2.7")
	tab := New[uint64](4, FIFO)
	p, _, _ := tab.Put(v4.As16())
	*p = 7
	if got := tab.Get(netip.AddrFrom16(v4.As16()).As16()); got == nil || *got != 7 {
		t.Errorf("4-in-6 twin of %v: %v, want the IPv4 entry", v4, got)
	}
	p, _, _ = tab.Put(netip.MustParseAddr("fe80::1%eth0").As16())
	*p = 9
	if got := tab.Get(netip.MustParseAddr("fe80::1").As16()); got == nil || *got != 9 {
		t.Errorf("fe80::1 without its zone: %v, want the zoned entry", got)
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
}

// TestPutAllocs: once the table has held its population, no operation
// allocates — not a hit, not an insert below capacity, not an eviction, not a
// delete. (Filling it grows the index; TestIndexFollowsPopulation counts
// those allocations.)
func TestPutAllocs(t *testing.T) {
	tab := New[uint64](256, LRU)
	next := uint32(0)
	for ; int(next) < tab.Cap(); next++ {
		tab.Put(key(1<<24 | next))
	}
	if n := testing.AllocsPerRun(2000, func() {
		next++
		tab.Put(key(next))
		tab.Put(key(next - 1))
		tab.Get(key(next))
		if next%3 == 0 {
			tab.Delete(key(next - 2))
		}
	}); n != 0 {
		t.Errorf("%.1f allocs per round of operations, want 0", n)
	}
}

// sink makes a table built in an AllocsPerRun closure escape, so building
// one counts the same allocations in every closure.
var sink *Table[uint64]

// TestIndexFollowsPopulation: the index starts at 64 slots and doubles only
// when an insert would fill it past half, so filling a table of 4096 takes it
// to exactly 2×cap in seven doublings — the only allocations after New — and
// it never passes that; and a steady population that evicts, reuses its
// oldest entry, hits, deletes and inserts again never grows it.
func TestIndexFollowsPopulation(t *testing.T) {
	const capacity = 4096
	tab := New[uint64](capacity, LRU)
	tab.Put(key(0))
	if len(tab.index) != 64 {
		t.Fatalf("%d index slots after the first Put, want 64", len(tab.index))
	}
	doublings := 0
	for i := uint32(1); i < 3*capacity; i++ {
		before := len(tab.index)
		tab.Put(key(i))
		if len(tab.index) != before {
			doublings++
		}
		if want := indexFor(capacity, tab.Len()); len(tab.index) != want {
			t.Fatalf("%d index slots for %d sources, want %d", len(tab.index), tab.Len(), want)
		}
	}
	if len(tab.index) != 2*capacity || doublings != 7 {
		t.Errorf("a full table of %d has %d index slots after %d doublings, want %d after 7", capacity, len(tab.index), doublings, 2*capacity)
	}

	build := testing.AllocsPerRun(1, func() { sink = New[uint64](capacity, LRU) })
	fill := testing.AllocsPerRun(1, func() {
		sink = New[uint64](capacity, LRU)
		for i := uint32(0); i < capacity; i++ {
			sink.Put(key(i))
		}
	})
	if fill-build != 7 {
		t.Errorf("filling a table of %d allocated %.0f times beyond New, want 7: one a doubling", capacity, fill-build)
	}

	// A steady population of 128 fills 256 slots to exactly half.
	const live = 128
	tab = New[uint64](capacity, FIFO)
	for i := uint32(0); i < live; i++ {
		tab.Put(key(i))
	}
	index := &tab.index[0]
	for i := uint32(live); i < 20*live; i++ {
		tab.Put(key(i - 1))                        // a hit
		tab.Get(key(1<<24 | i))                    // a miss ...
		tab.Keep(true)                             // ... that takes the oldest entry
		tab.Delete(key(1<<24 | i))                 // a delete ...
		if _, found, _ := tab.Put(key(i)); found { // ... and an insert in its place
			t.Fatalf("source %d found before its insert", i)
		}
	}
	if tab.Len() != live || len(tab.index) != 2*live || &tab.index[0] != index {
		t.Errorf("a steady population of %d: %d sources, %d index slots (reallocated: %v), want %d slots in place",
			live, tab.Len(), len(tab.index), &tab.index[0] != index, 2*live)
	}
	// A full table evicts for every insert and never grows.
	tab = New[uint64](100, LRU)
	for i := uint32(0); i < 10*100; i++ {
		tab.Put(key(i))
	}
	if tab.Len() != 100 || len(tab.index) != 256 {
		t.Errorf("a table of 100 after 1000 inserts: %d sources, %d index slots, want 100 and 256", tab.Len(), len(tab.index))
	}
}
