package gen

import "time"

// A legitimate operation that gets no valid answer is retried under a new
// transaction ID at +250 ms and +750 ms and fails at +1.5 s, all measured
// from its first intended send — which is also where its latency starts, so
// a retried operation reports the wait its user saw, not the last try's.
const (
	Retry1After = 250 * time.Millisecond
	Retry2After = 750 * time.Millisecond
	FailAfter   = 1500 * time.Millisecond
)

// Stages of an operation. Cookie and plain operations have only the answer
// stage; a newcomer session first waits for the guard's fabricated NS grant.
const (
	StageGrant uint8 = iota
	StageAnswer
)

// maxIDs bounds the transaction IDs one operation can hold: the first try,
// a session's second stage, and two retries.
const maxIDs = 4

// Op is one legitimate operation in flight.
type Op struct {
	T0     int64  // first intended send, ns from phase start
	Src    uint32 // claimed source address
	Child  uint8
	Stage  uint8
	Tries  uint8 // datagrams sent on the retry clock: 1 + retries
	Done   bool
	Window int32 // window of T0; negative during warm-up
	Label  [LabelLen]byte

	nids uint8
	ids  [maxIDs]uint16
}

// Table tracks operations in flight. Operations are created in T0 order, so
// the three timers are cursors over the creation sequence, not a heap: each
// cursor advances past every operation whose deadline has passed, acting on
// the ones still unanswered.
type Table struct {
	ops    []Op
	mask   int64
	next   int64
	cur    [3]int64 // retry1, retry2, fail
	ids    []int64  // transaction ID → sequence+1; 0 is free
	nextID uint16

	// Outstanding counts operations neither answered nor failed.
	Outstanding int
}

var deadlines = [3]int64{int64(Retry1After), int64(Retry2After), int64(FailAfter)}

// NewTable sizes the ring for capacity operations (rounded up to a power of
// two); firstID seeds the transaction-ID sequence.
func NewTable(capacity int, firstID uint16) *Table {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Table{ops: make([]Op, n), mask: int64(n - 1), ids: make([]int64, 1<<16), nextID: firstID}
}

// Get returns operation seq (valid until the ring wraps past it).
func (t *Table) Get(seq int64) *Op { return &t.ops[seq&t.mask] }

// Start creates an operation and its first transaction ID. It reports false
// when the ring still holds an unexpired operation in the slot (the caller
// sized the table too small) or no transaction ID is free.
func (t *Table) Start(t0 int64, src uint32, child, stage uint8, window int32) (seq int64, id uint16, ok bool) {
	if t.next-t.cur[2] > t.mask {
		return 0, 0, false
	}
	seq = t.next
	op := t.Get(seq)
	*op = Op{T0: t0, Src: src, Child: child, Stage: stage, Tries: 1, Window: window}
	id, ok = t.NewID(seq)
	if !ok {
		return 0, 0, false
	}
	t.next++
	t.Outstanding++
	return seq, id, true
}

// NewID assigns seq one more transaction ID (a retry, or a session's second
// stage). Earlier IDs stay valid: a late answer to a first try still counts.
func (t *Table) NewID(seq int64) (uint16, bool) {
	op := t.Get(seq)
	if op.nids == maxIDs {
		return 0, false
	}
	for probe := 0; probe < 1<<16; probe++ {
		id := t.nextID
		t.nextID++
		if t.ids[id] == 0 {
			t.ids[id] = seq + 1
			op.ids[op.nids] = id
			op.nids++
			return id, true
		}
	}
	return 0, false
}

// Lookup maps a reply's transaction ID to its live operation.
func (t *Table) Lookup(id uint16) (int64, *Op) {
	v := t.ids[id]
	if v == 0 {
		return 0, nil
	}
	return v - 1, t.Get(v - 1)
}

// Finish marks seq answered or failed and frees its transaction IDs.
func (t *Table) Finish(seq int64) {
	op := t.Get(seq)
	if op.Done {
		return
	}
	op.Done = true
	for _, id := range op.ids[:op.nids] {
		t.ids[id] = 0
	}
	op.nids = 0
	t.Outstanding--
}

// Expire advances the timers to now. retry is called for every unanswered
// operation crossing +250 ms or +750 ms (after Tries is incremented; the
// callback sends the datagram under a NewID); fail for every one crossing
// +1.5 s, after which the operation is finished.
func (t *Table) Expire(now int64, retry, fail func(seq int64, op *Op)) {
	for stage, deadline := range deadlines {
		for t.cur[stage] < t.next {
			seq := t.cur[stage]
			op := t.Get(seq)
			if now < op.T0+deadline {
				break
			}
			t.cur[stage]++
			if op.Done {
				continue
			}
			if stage < 2 {
				op.Tries++
				retry(seq, op)
			} else {
				fail(seq, op)
				t.Finish(seq)
			}
		}
	}
}
