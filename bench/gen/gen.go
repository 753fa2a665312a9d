package gen

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"
)

// Kind is the shape of a workload's legitimate operation.
type Kind int

const (
	// KindCookie: a source that already holds its cookie label asks for
	// pr<cookie>c<k>.foo.com and expects the fabricated A answer.
	KindCookie Kind = iota
	// KindSession: a source never seen before asks for c<k>.foo.com, parses
	// the fabricated NS grant, asks again under the cookie label, and
	// expects the answer; the operation is the whole session.
	KindSession
	// KindPlain: a source asks for c<k>.foo.com and expects the relayed
	// referral (the guard is inactive).
	KindPlain
)

// Address plan inside 127.0.0.0/8 (all of it is local on Linux). The three
// populations never overlap, and none contains the daemons' 127.0.0.1.
const (
	legitBase  = 0x7F020000 // 127.2.0.0, 2^20 addresses: the fixed legitimate sources
	legitRange = 1 << 20
	churnBase  = 0x7F200000 // 127.32.0.0, 2^21 addresses: never-repeating newcomers
	churnRange = 1 << 21
	spoofBase  = 0x7F400000 // 127.64.0.0, 2^23 addresses: never-repeating spoofed sources
	spoofRange = 1 << 23
)

func addr4(a uint32) [4]byte { return [4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)} }
func addrU32(b [4]byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

// Config fixes what a generator offers for its whole life.
type Config struct {
	Seed    uint64
	Target  netip.AddrPort // the guard's public address
	Kind    Kind
	Sources int // fixed legitimate sources (KindCookie, KindPlain)
}

// Window is what the generator saw in one measurement window. Offered
// traffic is attributed by intended send time, answers by arrival time, and
// an operation's retry or failure to the window it started in.
type Window struct {
	Offered   int // every datagram sent to the public socket: first tries, second stages, retries, attack
	Started   int // operations first due in this window
	Retried   int // of those, operations that needed at least one retry (or failed)
	Failed    int // of those, operations that failed at +1.5 s
	Answers   int // validated answers that arrived in this window
	Invalid   int // replies that matched an operation but failed validation
	Backlog   int // operations in flight at the last tick of the window
	SendErrs  int
	Latency   Samples // ns from first intended send to validated answer
	Lateness  Samples // ns each tick's sends ran behind the tick
	LegitSent int     // legitimate datagrams (first tries, second stages, retries)
}

// Gen is an open-loop generator: one paced loop over two wildcard sockets,
// one for legitimate traffic and one for attack traffic.
// The attack socket's receive buffer is minimal and never read: whatever the
// guard reflects at spoofed sources is dropped by the kernel on arrival.
type Gen struct {
	cfg    Config
	legit  *Sock
	attack *Sock
	rng    *Rand

	srcs   []uint32
	labels [][LabelLen]byte
	churn  *Walk
	spoof  *Walk
}

// New opens the sockets and picks the fixed source population from the seed.
func New(cfg Config) (*Gen, error) {
	legit, err := OpenSock(4<<20, 20*time.Millisecond)
	if err != nil {
		return nil, err
	}
	attack, err := OpenSock(1, 0)
	if err != nil {
		_ = legit.Close()
		return nil, err
	}
	g := &Gen{cfg: cfg, legit: legit, attack: attack, rng: NewRand(cfg.Seed, 0)}
	pick := NewWalk(NewRand(cfg.Seed, 1), legitRange)
	g.srcs = make([]uint32, cfg.Sources)
	g.labels = make([][LabelLen]byte, cfg.Sources)
	for i := range g.srcs {
		g.srcs[i] = legitBase + uint32(pick.Next())
	}
	g.churn = NewWalk(NewRand(cfg.Seed, 2), churnRange)
	g.spoof = NewWalk(NewRand(cfg.Seed, 3), spoofRange)
	return g, nil
}

// Close releases the sockets.
func (g *Gen) Close() {
	_ = g.legit.Close()
	_ = g.attack.Close()
}

// Exchange completes the NS-label cookie exchange for every fixed source:
// a cookie-less query from each, the guard's fabricated NS grant back. Up to
// five rounds re-ask the sources still missing a grant.
func (g *Gen) Exchange() error {
	tx := g.legit.NewSender(g.cfg.Target)
	rx := g.legit.NewReceiver()
	have := make([]bool, len(g.srcs))
	child := make([]int, len(g.srcs))
	for i := range child {
		child[i] = g.rng.Intn(Children)
	}
	missing := len(g.srcs)
	var scratch [slotBytes]byte
	for round := 0; round < 5 && missing > 0; round++ {
		start := time.Now()
		sent := 0
		for i := range g.srcs {
			if have[i] {
				continue
			}
			tx.Commit(AppendQuery(tx.Slot(), uint16(i), nil, child[i]), g.srcs[i])
			if sent++; sent%32 == 0 {
				tx.Flush()
				SleepUntil(start, int64(sent/32)*int64(time.Millisecond))
			}
		}
		tx.Flush()
		for idle := 0; idle < 3 && missing > 0; {
			n, err := rx.Recv(true)
			if err != nil {
				return err
			}
			if n == 0 {
				idle++
				continue
			}
			idle = 0
			for j := 0; j < n; j++ {
				p := rx.Payload(j)
				if len(p) < 2 {
					continue
				}
				i := int(p[0])<<8 | int(p[1])
				to, ok := rx.To(j)
				if i >= len(g.srcs) || have[i] || !ok || to != g.srcs[i] || rx.From(j) != g.cfg.Target {
					continue
				}
				q := Question(AppendQuery(scratch[:0], uint16(i), nil, child[i]))
				if label, ok := ParseGrant(p, uint16(i), q, child[i]); ok {
					g.labels[i], have[i] = label, true
					missing--
				}
			}
		}
	}
	if missing > 0 {
		return fmt.Errorf("cookie exchange: %d of %d sources got no grant", missing, len(g.srcs))
	}
	if tx.Errors > 0 {
		return fmt.Errorf("cookie exchange: kernel refused %d datagrams", tx.Errors)
	}
	return nil
}

const (
	// batchMax is the most datagrams one sendmmsg/recvmmsg call moves.
	batchMax = 64
	// slotSize bounds one datagram; benchmark wires are well under 128 bytes.
	slotSize = 256
	// slotBytes is scratch for one rebuilt query wire.
	slotBytes = 128
)

// Phase is one stretch of traffic at fixed rates.
type Phase struct {
	LegitQPS   int // legitimate operations per second
	AttackPPS  int // spoofed datagrams per second
	Warmup     int // windows before window 0; their traffic is not recorded
	MaxWindows int // measured windows the phase may run for
	WindowLen  time.Duration
}

// Running is a phase in progress. One goroutine does everything on the pacing
// tick — drain the replies queued since the last tick, run the retry timers,
// send what is due — so nothing here needs a lock. Replies are judged by the
// kernel's receive timestamp, not by when the loop got to them: latency ends
// when the reply reached the socket, and the generator's own scheduling on
// the core it shares with ansd stays out of the number.
type Running struct {
	g       *Gen
	ph      Phase
	start   time.Time
	wall0   int64 // start as wall-clock ns, the base of kernel timestamps
	table   *Table
	windows []Window
	spare   Window // warm-up and overflow traffic lands here
	stop    atomic.Int64
	done    chan struct{}
	err     error
	opSeq   int
	legitTx *Sender
}

// Start begins a phase.
func (g *Gen) Start(ph Phase) *Running {
	// An operation lives at most FailAfter; size the ring for that at this
	// rate with headroom for a stalled timer sweep.
	capacity := ph.LegitQPS*2 + 1024
	now := time.Now()
	r := &Running{
		g:       g,
		ph:      ph,
		start:   now,
		wall0:   now.UnixNano(),
		table:   NewTable(capacity, uint16(g.rng.Uint64())),
		windows: make([]Window, ph.MaxWindows),
		done:    make(chan struct{}),
	}
	go r.loop()
	return r
}

// Boundary is the wall time at which measured window w begins; window w
// covers [Boundary(w), Boundary(w+1)).
func (r *Running) Boundary(w int) time.Time {
	return r.start.Add(time.Duration(r.ph.Warmup+w) * r.ph.WindowLen)
}

// windowIndex is the measured window of offset t, or -1 for warm-up and for
// anything past the last window.
func (r *Running) windowIndex(t int64) int32 {
	w := t/int64(r.ph.WindowLen) - int64(r.ph.Warmup)
	if t < 0 || w < 0 || w >= int64(len(r.windows)) {
		return -1
	}
	return int32(w)
}

func (r *Running) window(t int64) *Window {
	if w := r.windowIndex(t); w >= 0 {
		return &r.windows[w]
	}
	return &r.spare
}

// Stop ends the phase: no new operation starts, operations in flight get
// their full retry schedule, and the windows are returned once every one is
// answered or failed. The caller keeps the windows that had fully elapsed
// when it called; outside is the traffic of the warm-up and of anything past
// the last window.
func (r *Running) Stop() (windows []Window, outside Window, err error) {
	r.stop.Store(int64(time.Since(r.start)))
	<-r.done
	if r.err != nil {
		return nil, Window{}, r.err
	}
	return r.windows, r.spare, nil
}

// buildLegit appends op's current-stage query to dst.
func (r *Running) buildLegit(dst []byte, id uint16, op *Op) []byte {
	if r.g.cfg.Kind == KindPlain || op.Stage == StageGrant {
		return AppendQuery(dst, id, nil, int(op.Child))
	}
	return AppendQuery(dst, id, op.Label[:], int(op.Child))
}

func (r *Running) loop() {
	defer close(r.done)
	defer PrecisePacing()()
	g := r.g
	rx := g.legit.NewReceiver()
	r.legitTx = g.legit.NewSender(g.cfg.Target)
	attackTx := g.attack.NewSender(g.cfg.Target)
	legitPace := NewPacer(r.ph.LegitQPS)
	attackPace := NewPacer(r.ph.AttackPPS)
	var order [3]uint8
	var scratch [slotBytes]byte
	nAttack := 0

	retries := 0
	retry := func(seq int64, op *Op) {
		id, ok := r.table.NewID(seq)
		if !ok {
			return
		}
		r.legitTx.Commit(r.buildLegit(r.legitTx.Slot(), id, op), op.Src)
		retries++
		if op.Window >= 0 && op.Tries == 2 {
			r.windows[op.Window].Retried++
		}
	}
	fail := func(seq int64, op *Op) {
		if op.Window >= 0 {
			r.windows[op.Window].Failed++
		}
	}

	for k := int64(0); ; k++ {
		tTick := TickTime(k)
		SleepUntil(r.start, tTick)
		now := int64(time.Since(r.start))
		stopAt := r.stop.Load()
		stopping := stopAt != 0 && tTick >= stopAt

		// Replies first, so an answer that is already here is not retried.
		followUps := 0
		for {
			n, err := rx.Recv(false)
			if err != nil {
				r.err = err
				return
			}
			for i := 0; i < n; i++ {
				at := rx.Stamp(i) - r.wall0
				if at <= 0 || at > now {
					at = now // no usable kernel timestamp: fall back to the drain time
				}
				if r.handle(rx, i, at, scratch[:0]) {
					followUps++
				}
			}
			if n < batchMax {
				break
			}
		}
		if stopping && (r.table.Outstanding == 0 || now > stopAt+int64(FailAfter)+int64(100*time.Millisecond)) {
			return
		}

		w := r.window(tTick)
		wi := r.windowIndex(tTick)
		errsBefore := r.legitTx.Errors + attackTx.Errors
		sentLegit, sentAttack := followUps, 0
		retries = 0
		r.table.Expire(now, retry, fail)
		sentLegit += retries
		if !stopping {
			for n := legitPace.Due(k); n > 0; n-- {
				if r.startOp(tTick, wi) {
					sentLegit++
					w.Started++
				}
			}
			for n := attackPace.Due(k); n > 0; n-- {
				if nAttack%3 == 0 {
					order = [3]uint8{0, 1, 2}
					i := g.rng.Intn(3)
					order[0], order[i] = order[i], order[0]
					if g.rng.Uint64()&1 == 1 {
						order[1], order[2] = order[2], order[1]
					}
				}
				r.buildAttack(attackTx, order[nAttack%3])
				nAttack++
				sentAttack++
			}
		}
		r.legitTx.Flush()
		attackTx.Flush()

		w.Backlog = r.table.Outstanding
		if sentLegit+sentAttack > 0 {
			w.Lateness.Add(Lateness(tTick, now))
		}
		w.LegitSent += sentLegit
		w.Offered += sentLegit + sentAttack
		w.SendErrs += r.legitTx.Errors + attackTx.Errors - errsBefore
	}
}

// startOp creates the next legitimate operation due at t0 and queues its
// first datagram.
func (r *Running) startOp(t0 int64, window int32) bool {
	g := r.g
	var src uint32
	var label [LabelLen]byte
	stage := StageAnswer
	switch g.cfg.Kind {
	case KindSession:
		src = churnBase + uint32(g.churn.Next())
		stage = StageGrant
	default:
		i := r.opSeq % len(g.srcs)
		src, label = g.srcs[i], g.labels[i]
	}
	r.opSeq++
	seq, id, ok := r.table.Start(t0, src, uint8(g.rng.Intn(Children)), stage, window)
	if !ok {
		return false
	}
	op := r.table.Get(seq)
	op.Label = label
	r.legitTx.Commit(r.buildLegit(r.legitTx.Slot(), id, op), src)
	return true
}

// buildAttack queues one spoofed datagram from a source never used before:
// kind 0 is a well-formed cookie name with a forged label, kind 1 a
// cookie-less newcomer query, kind 2 a query with a forged TXT cookie.
func (r *Running) buildAttack(tx *Sender, kind uint8) {
	g := r.g
	src := spoofBase + uint32(g.spoof.Next())
	v := g.rng.Uint64()
	id, k := uint16(v), int(v>>16)%Children
	switch kind {
	case 0:
		const hexdigits = "0123456789abcdef"
		label := [LabelLen]byte{'p', 'r'}
		for i := 2; i < LabelLen; i++ {
			label[i] = hexdigits[(v>>(24+4*uint(i)))&0xF]
		}
		tx.Commit(AppendQuery(tx.Slot(), id, label[:], k), src)
	case 1:
		tx.Commit(AppendQuery(tx.Slot(), id, nil, k), src)
	default:
		var c [16]byte
		a, b := g.rng.Uint64(), g.rng.Uint64()|1 // never the all-zero "send me a cookie" request
		for i := 0; i < 8; i++ {
			c[i], c[8+i] = byte(a>>(8*uint(i))), byte(b>>(8*uint(i)))
		}
		tx.Commit(AppendTXTQuery(tx.Slot(), id, k, &c), src)
	}
}

// handle judges datagram i of the last Recv, which reached the socket at
// offset at, and reports whether it queued a session's second-stage query.
func (r *Running) handle(rx *Receiver, i int, at int64, scratch []byte) (queued bool) {
	g := r.g
	w := r.window(at)
	p := rx.Payload(i)
	if len(p) < 12 {
		w.Invalid++
		return false
	}
	id := uint16(p[0])<<8 | uint16(p[1])
	seq, op := r.table.Lookup(id)
	if op == nil {
		return false // a reply for an operation already finished: late, not wrong
	}
	to, ok := rx.To(i)
	if !ok || to != op.Src || rx.From(i) != g.cfg.Target {
		w.Invalid++
		return false
	}
	k := int(op.Child)
	plainQ := func() []byte { return Question(AppendQuery(scratch, id, nil, k)) }
	switch {
	case op.Stage == StageGrant:
		label, ok := ParseGrant(p, id, plainQ(), k)
		if !ok {
			w.Invalid++
			return false
		}
		op.Label, op.Stage = label, StageAnswer
		id2, ok := r.table.NewID(seq)
		if !ok {
			return false
		}
		r.legitTx.Commit(r.buildLegit(r.legitTx.Slot(), id2, op), op.Src)
		return true
	case g.cfg.Kind == KindPlain:
		ok = CheckReferral(p, id, plainQ(), Glue(k))
	default:
		ok = CheckAnswer(p, id, Question(AppendQuery(scratch, id, op.Label[:], k)), Glue(k))
		if !ok && g.cfg.Kind == KindSession {
			// A retried first stage earns a second grant after the session
			// moved on: late, not wrong.
			if _, dup := ParseGrant(p, id, plainQ(), k); dup {
				return false
			}
		}
	}
	if !ok {
		w.Invalid++
		return false
	}
	w.Answers++
	w.Latency.Add(at - op.T0)
	r.table.Finish(seq)
	return false
}
