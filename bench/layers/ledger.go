package layers

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"sort"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/engine"
	"dnsguard/internal/guard"
	"dnsguard/internal/ratelimit"
)

// The ledger answers "where does a packet's guard CPU go" from outside the
// guard: it replays a workload's packet mix through the layers' public
// functions in the order the guard calls them, one span per call, and sets
// the sum of the layers' self time beside the CPU per packet the real
// daemon was measured at. Whatever the layers do not explain — the guard's
// own glue, the pending table, runtime scheduling, netpoll, GC — is the
// residual, reported even when it is the larger term.

// Class is one packet shape the guard handles.
type Class int

const (
	ClassVerified    Class = iota // cookie query from a source in the verified cache
	ClassForgedNS                 // well-formed cookie name, forged label
	ClassNewcomer                 // cookie-less query: mint and grant
	ClassForgedTXT                // forged TXT cookie
	ClassFirstVerify              // valid cookie query from a source not yet cached
	ClassPassthrough              // guard inactive: raw relay
)

// Share is a class's share of the packets offered to the public socket.
type Share struct {
	Class Class
	Share float64
}

// Span is one timed call. Spans of one packet share Pkt; a layer call's
// Parent is its packet's span.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a packet span
	Pkt    int    `json:"pkt"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type recorder struct {
	t0    time.Time
	spans []Span
}

func (r *recorder) begin(name string, pkt, parent int) int {
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Pkt: pkt, Name: name})
	r.spans[id].Start = int64(time.Since(r.t0))
	return id
}

func (r *recorder) end(id int) { r.spans[id].End = int64(time.Since(r.t0)) }

// LayerCost is one layer function's line in the ledger.
type LayerCost struct {
	Name        string
	CallsPerPkt float64
	SelfNS      float64 // median self time of one call
	USPerPkt    float64
}

// Ledger is the per-workload result.
type Ledger struct {
	Lines       []LayerCost
	LayersUS    float64 // Σ lines, guard CPU µs per offered packet the layers explain
	SpanCostNS  float64 // what recording one empty span costs, already subtracted
	Packets     int
	Spans       []Span
	PktsPerRead float64
}

// replayPackets is how many packets of the mix the ledger replays.
const replayPackets = 4096

// keepSpanPackets bounds the span file to the first packets of the replay.
const keepSpanPackets = 512

// BuildLedger replays mix and prices it. pktsPerRead is the batch size the
// real guard's ingest was observed at; I/O is priced from the realnet
// timers at that batch size, because a span around a socket call here would
// time this process's socket, not the daemon's.
func (s *Suite) BuildLedger(mix []Share, pktsPerRead float64) (*Ledger, error) {
	eng, err := newCacheEngine()
	if err != nil {
		return nil, err
	}
	for i, src := range s.srcs {
		eng.MarkVerifiedOn(0, src, "ns:"+s.labels[i])
	}
	st := &replay{
		s:    s,
		eng:  eng,
		rl1:  ratelimit.NewLimiter1(ratelimit.DefaultLimiter1Config(), 0),
		rl2:  ratelimit.NewLimiter2(ratelimit.DefaultLimiter2Config(), 0),
		bv:   cookie.NewBatchVerifier(),
		rate: ratelimit.NewRateEstimator(10, 100*time.Millisecond),
		rec:  &recorder{t0: time.Now(), spans: make([]Span, 0, replayPackets*14)},
		cred: append(make([]byte, 0, 16), "ns:"...),
	}
	st.bv.Reset(s.auth)

	// What an empty span costs: two clock reads and an append.
	cal := &recorder{t0: time.Now(), spans: make([]Span, 0, 4096)}
	costs := make([]float64, 0, 4096)
	for i := 0; i < 4096; i++ {
		id := cal.begin("", i, -1)
		cal.end(id)
		costs = append(costs, float64(cal.spans[id].End-cal.spans[id].Start))
	}
	sort.Float64s(costs)
	spanCost := costs[len(costs)/2]

	// Deal the classes out by their shares, evenly interleaved.
	acc := make([]float64, len(mix))
	for pkt := 0; pkt < replayPackets; pkt++ {
		best := 0
		for i := range mix {
			acc[i] += mix[i].Share
			if acc[i] > acc[best] {
				best = i
			}
		}
		acc[best]--
		st.packet(pkt, mix[best].Class)
	}

	// Self time of a layer call is its span less the recording cost (layer
	// spans have no children; a packet span's own time is this replay's
	// glue, not the guard's, and is left out).
	byName := map[string][]float64{}
	for _, sp := range st.rec.spans {
		if sp.Parent < 0 {
			continue
		}
		d := float64(sp.End-sp.Start) - spanCost
		if d < 0 {
			d = 0
		}
		byName[sp.Name] = append(byName[sp.Name], d)
	}
	l := &Ledger{SpanCostNS: spanCost, Packets: replayPackets, PktsPerRead: pktsPerRead}
	for name, ds := range byName {
		sort.Float64s(ds)
		med := ds[len(ds)/2]
		calls := float64(len(ds)) / replayPackets
		l.Lines = append(l.Lines, LayerCost{Name: name, CallsPerPkt: calls, SelfNS: med, USPerPkt: calls * med / 1000})
	}
	l.Lines = append(l.Lines, s.ioLines(mix, pktsPerRead)...)
	sort.Slice(l.Lines, func(i, j int) bool { return l.Lines[i].USPerPkt > l.Lines[j].USPerPkt })
	for _, ln := range l.Lines {
		l.LayersUS += ln.USPerPkt
	}
	for _, sp := range st.rec.spans {
		if sp.Pkt >= keepSpanPackets {
			break
		}
		l.Spans = append(l.Spans, sp)
	}
	return l, nil
}

// perDatagram prices one datagram of a batch of x from the batch-1 and
// batch-32 timers: a fixed cost per call shared by the batch, plus a cost
// per datagram.
func perDatagram(b1, b32, x float64) float64 {
	if x < 1 {
		x = 1
	}
	if x > 32 {
		x = 32
	}
	fixed := (b1 - b32) * 32 / 31
	if fixed < 0 {
		fixed = 0
	}
	return b1 - fixed + fixed/x
}

// ioLines prices the socket calls each class makes: every packet is read
// from the public socket at the observed batch size; a forwarded packet is
// written upstream alone, its answer read back (assumed to batch like the
// ingress — the daemon exports no upstream read counter) and the reply
// written alone by the upstream loop; a grant leaves in the worker's
// end-of-batch flush with the other grants of its batch.
func (s *Suite) ioLines(mix []Share, p float64) []LayerCost {
	r1, r32 := s.Get("realnet.read_b1_ns"), s.Get("realnet.read_b32_ns")
	w1, w32 := s.Get("realnet.write_b1_ns"), s.Get("realnet.write_b32_ns")
	var forwarded, granted float64
	for _, m := range mix {
		switch m.Class {
		case ClassVerified, ClassFirstVerify, ClassPassthrough:
			forwarded += m.Share
		case ClassNewcomer:
			granted += m.Share
		}
	}
	line := func(name string, calls, ns float64) LayerCost {
		return LayerCost{Name: name, CallsPerPkt: calls, SelfNS: ns, USPerPkt: calls * ns / 1000}
	}
	return []LayerCost{
		line("realnet.read (public)", 1, perDatagram(r1, r32, p)),
		line("realnet.write (upstream)", forwarded, w1),
		line("realnet.read (upstream)", forwarded, perDatagram(r1, r32, p)),
		line("realnet.write (reply)", forwarded, w1),
		line("realnet.write (grant flush)", granted, perDatagram(w1, w32, p*granted)),
	}
}

// WriteSpans writes the kept spans as JSON.
func (l *Ledger) WriteSpans(path string) error {
	b, err := json.Marshal(l.Spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// replay is the state the replayed layers work on: the same tables the
// guard keeps, at the same sizes.
type replay struct {
	s    *Suite
	eng  *engine.Engine
	rl1  *ratelimit.Limiter1
	rl2  *ratelimit.Limiter2
	bv   *cookie.BatchVerifier
	rate *ratelimit.RateEstimator
	rec  *recorder
	now  time.Duration
	cred []byte
}

// call records one layer call under the packet span.
func (st *replay) call(name string, pkt, parent int, fn func()) {
	id := st.rec.begin(name, pkt, parent)
	fn()
	st.rec.end(id)
}

// packet replays one packet of class c.
func (st *replay) packet(pkt int, c Class) {
	s := st.s
	i := pkt % nSources
	st.now += 25 * time.Microsecond
	now := st.now
	if pkt%32 == 0 {
		st.bv.Reset(s.auth)
	}
	root := st.rec.begin("guard.packet", pkt, -1)
	defer st.rec.end(root)
	call := func(name string, fn func()) { st.call(name, pkt, root, fn) }

	var msg *dnswire.Message
	unpack := func(wire []byte) {
		call("dnswire.Unpack", func() { msg, _ = dnswire.Unpack(wire) })
	}
	view := func(wire []byte) {
		call("dnswire.ParseView", func() {
			v, _ := dnswire.ParseView(wire)
			sink += v.End()
		})
	}
	match := func(src netip.Addr, label string) {
		cred := append(st.cred[:3], label...)
		call("engine.VerifiedCredMatchOn", func() {
			if st.eng.VerifiedCredMatchOn(0, src, cred) {
				sink++
			}
		})
	}
	probe := func(src netip.Addr) {
		call("engine.VerifiedCredOn", func() {
			if _, ok := st.eng.VerifiedCredOn(0, src); ok {
				sink++
			}
		})
	}
	var label string
	parseFab := func() {
		call("guard.ParseFabricatedName", func() { label, _, _ = guard.ParseFabricatedName(s.nsc, msg.Question().Name) })
	}
	// upstream is the response half of a forwarded query: the view bails
	// on a message with records, the referral is materialized, the reply
	// packed.
	upstream := func(reply *dnswire.Message) {
		ref := s.referral[s.child[i]]
		view(ref)
		unpack(ref)
		if reply == nil {
			reply = msg // passthrough repacks the referral itself
		}
		call("dnswire.Message.PackUDP", func() {
			w, _ := reply.PackUDP(dnswire.MaxUDPSize)
			sink += len(w)
		})
	}

	switch c {
	case ClassVerified:
		view(s.cookieQ[i])
		match(s.srcs[i], s.labels[i])
		call("ratelimit.Limiter2.AllowRequest", func() { st.rl2.AllowRequest(s.srcs[i], now) })
		upstream(s.fabA[i])

	case ClassForgedNS:
		src := s.freshSrc()
		view(s.forgedQ[i])
		match(src, s.labels[i])
		unpack(s.forgedQ[i])
		parseFab()
		probe(src)
		call("cookie.BatchVerifier.VerifyLabel", func() { st.bv.VerifyLabel(s.nsc, src, label) })

	case ClassNewcomer:
		src := s.freshSrc()
		view(s.plainQ[i])
		unpack(s.plainQ[i])
		parseFab()
		call("ratelimit.Limiter1.AllowResponse", func() { st.rl1.AllowResponse(src, now) })
		var ck cookie.Cookie
		call("cookie.BatchVerifier.Mint", func() { ck = st.bv.Mint(src) })
		child, _ := msg.Question().Name.ChildOf(s.apex)
		call("guard.FabricateNSName", func() {
			n, _ := guard.FabricateNSName(s.nsc, ck, child)
			sink += len(n)
		})
		call("dnswire.Message.PackUDP", func() {
			w, _ := s.grant[i].PackUDP(dnswire.MaxUDPSize)
			sink += len(w)
		})

	case ClassForgedTXT:
		src := s.freshSrc()
		view(s.txtQ[i])
		unpack(s.txtQ[i])
		var ck cookie.Cookie
		call("guard.FindCookie", func() { ck, _, _, _ = guard.FindCookie(msg) })
		probe(src)
		call("cookie.BatchVerifier.Verify", func() { st.bv.Verify(src, ck) })

	case ClassFirstVerify:
		src := s.freshSrc()
		valid := s.nsc.EncodeLabel(s.auth.Mint(src))
		wire := append([]byte(nil), s.cookieQ[i]...)
		copy(wire[13:13+len(valid)], valid)
		view(wire)
		match(src, valid)
		unpack(wire)
		parseFab()
		probe(src)
		call("cookie.BatchVerifier.VerifyLabel", func() { st.bv.VerifyLabel(s.nsc, src, label) })
		call("engine.MarkVerifiedOn", func() { st.eng.MarkVerifiedOn(0, src, "ns:"+label) })
		call("ratelimit.Limiter2.AllowRequest", func() { st.rl2.AllowRequest(src, now) })
		fwd := dnswire.NewQuery(uint16(pkt), dnswire.MustName(fmt.Sprintf("c%d.foo.com", s.child[i])), dnswire.TypeA)
		call("dnswire.Message.PackUDP", func() {
			w, _ := fwd.PackUDP(dnswire.MaxUDPSize)
			sink += len(w)
		})
		upstream(s.fabA[i])

	case ClassPassthrough:
		call("ratelimit.RateEstimator", func() {
			st.rate.Observe(now)
			if st.rate.Rate(now) > 1e6 {
				sink++
			}
		})
		view(s.plainQ[i])
		upstream(nil)
	}
}
