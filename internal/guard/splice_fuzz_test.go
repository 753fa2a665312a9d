package guard

import (
	"bytes"
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/metrics"
	"dnsguard/internal/ratelimit"
)

// The oracles: what the pipeline did with a query, and with an answer for a
// rewritten cookie query, when each was a Message — Unpack, the handler body
// of the last commit that built one (1f736d1 for the newcomer and message 6,
// 90e9534 for the modified scheme and for queries with records), PackUDP —
// with the rule the wire handlers brought: a datagram the view or the record
// walk refuses is malformed, so only one of one question, not compressed, is
// read. FuzzSpliceAgreement holds the handlers, which read and write only
// wire, to them, byte for byte and counter for counter: what the codec would
// write, on every shape the guard accepts.

// questionsWire packs qs as Pack writes a message's question section.
func questionsWire(qs []dnswire.Question) []byte {
	wire, err := (&dnswire.Message{Questions: qs}).Pack()
	if err != nil {
		return nil
	}
	return wire[12:]
}

// stripCookie removes the cookie extension from m.
func stripCookie(m *dnswire.Message) {
	if _, _, i, ok := FindCookie(m); ok {
		m.Additional = append(m.Additional[:i], m.Additional[i+1:]...)
	}
}

// oracleReply queues msg, packed, for the batch's flush.
func oracleReply(s *remoteShard, from, to netip.AddrPort, msg *dnswire.Message) {
	if wire, err := msg.PackUDP(dnswire.MaxUDPSize); err == nil {
		s.queueReply(from, to, wire)
	}
}

// oracleForward forwards msg, packed.
func oracleForward(s *remoteShard, entry pendEntry, msg *dnswire.Message) {
	if wire, err := msg.PackUDP(dnswire.MaxUDPSize); err == nil {
		s.forward(entry, wire, nil)
	}
}

// accepted is the rule the oracles judge a datagram by: the codec takes it,
// and the view takes it with one question, of which the walk then vouches
// for the rest (TestRecordWalk).
func accepted(b []byte) (*dnswire.Message, bool) {
	msg, err := dnswire.Unpack(b)
	_, viewable := dnswire.ParseView(b)
	return msg, len(b) <= dnswire.MaxDatagram && viewable && err == nil && len(msg.Questions) == 1
}

// oracleSketch is nameSketch.observe as it hashed a canonical Name.
func oracleSketch(n *nameSketch, name dnswire.Name) {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = fnv1a(h, name[i])
	}
	w := &n.words[h&1023>>6]
	w.Store(w.Load() | 1<<(h&63)) // one goroutine: no CAS needed
}

// oracleModified is handleModified as 90e9534 had it: the query, message 3
// and the forward all Messages.
func oracleModified(s *remoteShard, pkt Packet, msg *dnswire.Message, c cookie.Cookie) {
	g := s.g
	if c.IsZero() {
		if !s.rl1.AllowResponse(pkt.Src.Addr(), g.now()) {
			atomic.AddUint64(&g.Stats.RL1Dropped, 1)
			return
		}
		atomic.AddUint64(&s.work.Grants, 1)
		atomic.AddUint64(&g.Stats.NewcomerGrants, 1)
		resp := msg.Response()
		AttachCookie(resp, s.bv.Mint(pkt.Src.Addr()), nsTTL)
		oracleReply(s, pkt.Dst, pkt.Src, resp)
		return
	}
	atomic.AddUint64(&s.work.Checks, 1)
	if !s.bv.Verify(pkt.Src.Addr(), c) {
		atomic.AddUint64(&g.Stats.CookieInvalid, 1)
		return
	}
	atomic.AddUint64(&g.Stats.CookieValid, 1)
	if !s.rl2.AllowRequest(pkt.Src.Addr(), g.now()) {
		atomic.AddUint64(&g.Stats.RL2Dropped, 1)
		return
	}
	atomic.AddUint64(&s.work.Rewrites, 1)
	fwd := *msg
	fwd.Additional = append([]dnswire.RR(nil), msg.Additional...)
	stripCookie(&fwd)
	oracleForward(s, pendEntry{kind: pendRelay, clientSrc: pkt.Src, replyFrom: pkt.Dst, origID: msg.ID}, &fwd)
}

// oracleIngress is handle for a datagram to the public address of an active
// guard, with every query unpacked before it is judged and the newcomer's
// reply a Message.
func oracleIngress(s *remoteShard, pkt Packet) {
	g := s.g
	msg, ok := accepted(pkt.Payload)
	if !ok || msg.Flags.QR {
		atomic.AddUint64(&g.Stats.Malformed, 1)
		return
	}
	if c, _, _, ok := FindCookie(msg); ok {
		oracleModified(s, pkt, msg, c)
		return
	}
	if label, ok := nsLabel(g, msg.Question().Name.FirstLabel()); ok {
		s.handleNSCookie(pkt, questionsWire(msg.Questions), []byte(label))
		return
	}
	if g.drainGate() {
		atomic.AddUint64(&g.lc.DrainDropped, 1)
		return
	}
	qname := msg.Question().Name
	if g.cfg.Mitigation.Enabled {
		oracleSketch(&g.mit.sketch, qname)
	}
	if !s.rl1.AllowResponse(pkt.Src.Addr(), g.now()) {
		atomic.AddUint64(&g.Stats.RL1Dropped, 1)
		return
	}
	child, hasChild := qname.ChildOf(g.cfg.Zone)
	useTCP := g.effectiveFallback() == SchemeTCP || !hasChild || g.isTCPClient(pkt.Src.Addr())
	if !qname.IsSubdomainOf(g.cfg.Zone) && qname != g.cfg.Zone {
		resp := msg.Response()
		resp.Flags.RCode = dnswire.RCodeRefused
		oracleReply(s, pkt.Dst, pkt.Src, resp)
		return
	}
	if useTCP {
		atomic.AddUint64(&s.work.TCReplies, 1)
		atomic.AddUint64(&g.Stats.NewcomerGrants, 1)
		atomic.AddUint64(&g.Stats.TCRedirects, 1)
		resp := msg.Response()
		resp.Flags.TC = true
		oracleReply(s, pkt.Dst, pkt.Src, resp)
		return
	}
	c := s.bv.Mint(pkt.Src.Addr())
	fabName, err := FabricateNSName(g.nsc, c, child)
	if err != nil {
		// A label too long to carry a cookie: a TC reply, the grant for
		// that, and no cookie minted into it.
		atomic.AddUint64(&s.work.TCReplies, 1)
		atomic.AddUint64(&g.Stats.NewcomerGrants, 1)
		atomic.AddUint64(&g.Stats.TCRedirects, 1)
		resp := msg.Response()
		resp.Flags.TC = true
		oracleReply(s, pkt.Dst, pkt.Src, resp)
		return
	}
	atomic.AddUint64(&s.work.Grants, 1)
	atomic.AddUint64(&g.Stats.NewcomerGrants, 1)
	resp := msg.Response()
	resp.Authority = []dnswire.RR{
		dnswire.NewRR(child, nsTTL, &dnswire.NSData{Host: fabName}),
	}
	oracleReply(s, pkt.Dst, pkt.Src, resp)
}

// oracleUpstream is handleUpstream for a datagram from the configured ANS
// with every response unpacked and message 6 always oracleAnswerChild's
// Message.
func oracleUpstream(s *remoteShard, payload []byte) {
	g := s.g
	atomic.AddUint64(&s.upWork.Read, 1)
	resp, ok := accepted(payload)
	if !ok || !resp.Flags.QR {
		atomic.AddUint64(&g.Stats.UpstreamMalformed, 1)
		return
	}
	id := uint16(payload[0])<<8 | uint16(payload[1])
	entry := s.pend.lookup(id)
	if entry == nil {
		atomic.AddUint64(&g.Stats.UpstreamStrays, 1)
		return
	}
	if !echoes(questionsWire(resp.Questions), entry.fwdWire) {
		atomic.AddUint64(&g.Stats.UpstreamSpoofed, 1)
		return
	}
	s.pend.take(id)
	if entry.kind == pendChild {
		oracleAnswerChild(s, entry, dnswire.RCode(payload[3]&0xF), resp)
	}
	s.pend.release(id)
}

// oracleAnswerChild is message 6 as 1f736d1 built it, a Message from the
// ANS's answer to the restored child query (message 5). What it kept of an
// answer for message 7 is not compared: the twins send no message 7.
func oracleAnswerChild(s *remoteShard, entry *pendEntry, rcode dnswire.RCode, resp *dnswire.Message) {
	g := s.g
	question, _, _ := dnswire.UnpackQuestion(entry.qwire)
	out := &dnswire.Message{
		ID:        entry.origID,
		Flags:     dnswire.Flags{QR: true, AA: true},
		Questions: []dnswire.Question{question},
	}
	hasNS := false
	for _, rr := range resp.Authority {
		hasNS = hasNS || rr.Type == dnswire.TypeNS
	}
	switch {
	case rcode == dnswire.RCodeNXDomain:
		out.Flags.RCode = dnswire.RCodeNXDomain
		out.Authority = resp.Authority
	case len(resp.Answers) == 0 && hasNS:
		for _, rr := range resp.Additional {
			if rr.Type == dnswire.TypeA {
				out.Answers = append(out.Answers, dnswire.NewRR(question.Name, rr.TTL, rr.Data))
			}
		}
		if len(out.Answers) == 0 {
			out.Flags.RCode = dnswire.RCodeServFail
		}
	case len(resp.Answers) > 0 && g.cfg.Subnet.IsValid():
		atomic.AddUint64(&s.upWork.Checks, 1)
		addr, err := g.ipc.Encode(g.cfg.Auth.Mint(entry.clientSrc.Addr()))
		if err != nil {
			out.Flags.RCode = dnswire.RCodeServFail
			break
		}
		out.Answers = []dnswire.RR{dnswire.NewRR(question.Name, nsTTL, &dnswire.AData{Addr: addr})}
	default:
		out.Flags.RCode = dnswire.RCodeServFail
	}
	if wire, err := out.PackUDP(dnswire.MaxUDPSize); err == nil {
		s.replyWire(entry.replyFrom, entry.clientSrc, wire)
	}
}

// spliceTwin is a guard under test and its oracle, fed the same packets.
type spliceTwin struct {
	t          testing.TB
	got, want  *shardHarness
	query, fwd []byte
}

func newSpliceTwin(t testing.TB) *spliceTwin {
	cfg := func(cfg *RemoteConfig) {
		cfg.Zone = dnswire.MustName("foo.com")
		cfg.Subnet = shapeSubnet
		cfg.TCPClients = []netip.Prefix{netip.MustParsePrefix("10.1.0.0/24")}
		cfg.Mitigation.Enabled = true
		// The harness clock stands still. Rate-Limiter1 keeps its per-source
		// burst, so a source that keeps asking is dropped on both sides.
		cfg.RL1 = ratelimit.DefaultLimiter1Config()
		cfg.RL1.GlobalRate, cfg.RL1.GlobalBurst = 1e12, 1e12
		cfg.RL2 = ratelimit.Limiter2Config{PerSourceRate: 1, PerSourceBurst: 1e12, TrackedSources: 16}
	}
	tw := &spliceTwin{t: t, got: newShardHarness(t, cfg), want: newShardHarness(t, cfg)}
	for _, h := range []*shardHarness{tw.got, tw.want} {
		h.g.mit.layer.Store(int32(LayerCookies))
	}
	return tw
}

// compare requires the twins to have emitted the same bytes and to hold the
// same counters, NAT table and sketch.
func (tw *spliceTwin) compare(what string, input []byte) {
	tw.t.Helper()
	state := func(h *shardHarness) string {
		var words [16]uint64
		for i := range words {
			words[i] = h.g.mit.sketch.words[i].Load()
		}
		worker, upstream := h.g.Work(0)
		return fmt.Sprintf("replies %d, last %v->%v %x\nforwards %d, last %x\nstats %+v drain-dropped %d\nwork %+v %+v\nrl2 sources %d\npending %v\nsketch %x",
			h.io.wrote, h.io.from, h.io.to, h.io.buf[:h.io.n], h.up.wrote, h.up.buf[:h.up.n],
			h.g.Stats.Load(), atomic.LoadUint64(&h.g.lc.DrainDropped), metrics.SnapshotUint64(worker), metrics.SnapshotUint64(upstream),
			h.s.rl2.Sources(), pendingDump(h.s), words)
	}
	if got, want := state(tw.got), state(tw.want); got != want {
		tw.t.Fatalf("%s %x: the span-writing handler\n%s\nthe Message-building one\n%s", what, input, got, want)
	}
}

// ingress feeds both twins data as a query from a source its ID picks
// (10.1.0.x is configured for TCP). No mutation forges a MAC, so a cookie
// record whose cookie opens with an odd byte gets the source's own written
// over it: valid cookies are reached beside forged ones, whatever else the
// query carries.
func (tw *spliceTwin) ingress(data []byte) {
	src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 1, 0, 0}), 5353)
	if len(data) >= 2 {
		src = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 1, data[0], data[1]}), 5353)
	}
	if msg, err := dnswire.Unpack(data); err == nil {
		if c, _, _, ok := FindCookie(msg); ok && c[0]&1 == 1 {
			valid := tw.want.g.cfg.Auth.Mint(src.Addr())
			data = bytes.Replace(data, c[:], valid[:], 1)
		}
	}
	pkt := Packet{Src: src, Dst: tw.want.g.cfg.PublicAddr}
	pkt.Payload = append([]byte(nil), data...)
	tw.want.s.BeginBatch(1)
	oracleIngress(tw.want.s, pkt)
	tw.want.s.EndBatch()
	atomic.AddUint64(&tw.want.g.Stats.Received, 1)
	atomic.AddUint64(&tw.want.s.work.Read, 1)
	pkt.Payload = append([]byte(nil), data...)
	tw.got.handle(pkt)
	tw.compare("query", data)
}

// upstream leaves each twin one pending rewritten cookie query — for the name
// data asks about with the client's cookie before it, where that makes a
// name, for www.foo.com otherwise — and answers it with data under the ID
// the guard forwarded with.
func (tw *spliceTwin) upstream(data []byte) {
	client := shapeClient
	name, qtype := []byte("\x03www\x03foo\x03com\x00"), []byte{0, 1}
	if v, ok := dnswire.ParseView(data); ok && len(v.FirstLabel()) > 0 {
		if qw := v.QuestionWire(); len(v.FirstLabel())+tw.got.g.nsPrefixLen <= dnswire.MaxLabelLen && len(qw)-4+tw.got.g.nsPrefixLen <= dnswire.MaxNameWireLen {
			name, qtype = qw[:len(qw)-4], qw[len(qw)-4:][:2]
		}
	}
	q := append(tw.query[:0], 0x12, 0x34, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, name[0]+byte(tw.got.g.nsPrefixLen))
	q = tw.got.g.nsc.AppendLabel(q, tw.got.g.cfg.Auth.Mint(client.Addr()))
	q = append(append(append(q, name[1:]...), qtype...), 0, 1)
	tw.query = q
	for _, h := range []*shardHarness{tw.got, tw.want} {
		h.s.emptyPending()
		h.handle(Packet{Src: client, Dst: h.g.cfg.PublicAddr, Payload: append([]byte(nil), q...)})
	}
	tw.compare("cookie query", q)
	if tw.got.g.PendingEntries() != 1 {
		return // a name the guard would not forward: nothing to answer
	}
	tw.fwd = append(tw.fwd[:0], data...)
	if len(tw.fwd) >= 2 {
		copy(tw.fwd, tw.got.up.buf[:2])
	}
	oracleUpstream(tw.want.s, append([]byte(nil), tw.fwd...))
	tw.got.s.handleUpstream(append([]byte(nil), tw.fwd...), tw.got.g.cfg.ANSAddr)
	tw.compare("upstream response", tw.fwd)
}

// FuzzSpliceAgreement: on arbitrary queries, and arbitrary upstream datagrams
// against a pending rewritten cookie query, the handlers that judge, forward
// and reply from spans emit the bytes, and leave the counters, verified cache
// and NAT table, of the handlers that built a Message. The seeds are every
// datagram the shape table feeds the pipeline, the referral
// bench/testdata/bench.zone gives for c5.foo.com, and the TXT-cookie query
// bench/gen writes for it, forged and (first byte odd) valid.
func FuzzSpliceAgreement(f *testing.F) {
	for _, row := range shapeRows() {
		runShapeRow(f, row, func(upstream bool, wire []byte) { f.Add(upstream, wire) })
	}
	f.Add(true, []byte("\x0c\x05\x80\x00\x00\x01\x00\x00\x00\x01\x00\x01\x02c5\x03foo\x03com\x00\x00\x01\x00\x01"+
		"\xc0\x0c\x00\x02\x00\x01\x00\x00\x0e\x10\x00\x05\x02ns\xc0\x0c\xc0\x28\x00\x01\x00\x01\x00\x00\x0e\x10\x00\x04\xc6\x33\x64\x06"))
	for _, first := range []string{"\x40", "\x41"} {
		f.Add(false, []byte("\x0c\x06\x00\x00\x00\x01\x00\x00\x00\x00\x00\x01\x02c5\x03foo\x03com\x00\x00\x01\x00\x01"+
			"\x00\x00\x10\x00\x01\x00\x00\x00\x00\x00\x11\x10"+first+"ABCDEFGHIJKLMNO"))
	}
	tw := newSpliceTwin(f)
	f.Fuzz(func(t *testing.T, upstream bool, data []byte) {
		tw.t = t
		if upstream {
			tw.upstream(data)
		} else {
			tw.ingress(data)
		}
	})
}
