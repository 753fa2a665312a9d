package guard

import (
	"bytes"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
	"dnsguard/internal/ratelimit"
)

// The shape table: every packet shape the pipeline distinguishes, driven
// through one shard with stub I/O, with the bytes it forwards, the bytes it
// replies, its counters and its NAT table written out per row. The expected
// text, testdata/pipeline_shapes.txt, was recorded from the materializing
// handlers (Unpack → Message → PackUDP, FastPathTTL 0) of the last commit
// that had them, 6962bd0, beside a wire fast path (the referral and newcomer
// rows at the end of the table: 1f736d1, the last commit that built message 6
// and the newcomer's reply as Messages); it is not regenerated when the
// pipeline changes, only when a row is added. When the guard came to read and
// write only wire, the rows whose datagrams the view or the record walk
// refuses were re-recorded on purpose, each naming its reason: RFC 9619 (a
// count of questions other than one), question-less, or UpstreamMalformed (a
// response refused is now counted). When message 7 came to be forwarded
// always, the ip-cookie/message-7 row was re-recorded: its first message 7
// is the ANS's to answer now, not an answer table's. When the guard stopped
// keeping verified credentials, the per-TTL lines of their counters left the
// recording, no other line moving.

const shapesFile = "testdata/pipeline_shapes.txt"

// shapeSeedsFile is every datagram the rows feed the shard, one in hex per
// line: dnswire's fuzz targets seed from it, beside their own captures.
const shapeSeedsFile = "../dnswire/testdata/guard_shapes.hex"

// updateShapes is its own flag, apart from -update: the recording is a
// reference, rewritten only to add a row, never to follow a handler change.
var updateShapes = flag.Bool("update-shapes", false, "rewrite "+shapesFile)

// skewEnv is an Env whose clock a test can move forward by hand, from any
// goroutine.
type skewEnv struct {
	netapi.Env
	skew *atomic.Int64
}

func (e skewEnv) Now() time.Duration { return e.Env.Now() + time.Duration(e.skew.Load()) }

// shapeRun is one row's harness and transcript. seen, when set, is shown
// every datagram the row feeds the shard (the fuzz targets seed from it).
type shapeRun struct {
	t    testing.TB
	name string
	h    *shardHarness
	skew atomic.Int64
	out  strings.Builder
	seen func(upstream bool, wire []byte)
}

// step records what one call into the shard emitted: at most one forward
// and one reply.
func (r *shapeRun) step(label string, call func()) {
	up, io := r.h.up.wrote, r.h.io.wrote
	call()
	fmt.Fprintf(&r.out, "  %s:", label)
	if r.h.up.wrote != up {
		fmt.Fprintf(&r.out, " fwd to=%v %x", r.h.up.dst, r.h.up.buf[:r.h.up.n])
	}
	if r.h.io.wrote != io {
		fmt.Fprintf(&r.out, " reply %v->%v %x", r.h.io.from, r.h.io.to, r.h.io.buf[:r.h.io.n])
	}
	if r.h.up.wrote == up && r.h.io.wrote == io {
		r.out.WriteString(" nothing")
	}
	r.out.WriteByte('\n')
}

func (r *shapeRun) query(label string, src netip.AddrPort, dst netip.AddrPort, wire []byte) {
	if r.seen != nil {
		r.seen(false, wire)
	}
	r.step(label, func() { r.h.handle(Packet{Src: src, Dst: dst, Payload: append([]byte(nil), wire...)}) })
}

// upstream feeds the shard one datagram from the ANS side and checks that it
// moved exactly one of the upstream outcomes, or none if it answered a health
// probe.
func (r *shapeRun) upstream(label string, from netip.AddrPort, wire []byte) {
	if r.seen != nil {
		r.seen(true, wire)
	}
	probe := false
	r.h.s.inFlight(func(id uint16, e *pendEntry) {
		probe = probe || len(wire) >= 2 && id == uint16(wire[0])<<8|uint16(wire[1]) && e.kind == pendProbe
	})
	before := r.h.g.Stats()
	r.step(label, func() { r.h.s.handleUpstream(append([]byte(nil), wire...), from) })
	after := r.h.g.Stats()
	moved := after.RepliesToClient - before.RepliesToClient + after.PendingDropped - before.PendingDropped +
		after.UpstreamStrays - before.UpstreamStrays + after.UpstreamSpoofed - before.UpstreamSpoofed +
		after.UpstreamMalformed - before.UpstreamMalformed
	if moved != 1 && !(probe && moved == 0) {
		r.t.Errorf("%s: upstream datagram %q moved %d outcomes, want exactly one: %+v", r.name, label, moved, after)
	}
}

// forwarded decodes the last datagram sent upstream.
func (r *shapeRun) forwarded() *dnswire.Message {
	r.t.Helper()
	m, err := dnswire.Unpack(r.h.up.buf[:r.h.up.n])
	if err != nil {
		r.t.Fatalf("last forward does not parse: %v", err)
	}
	return m
}

// echo is the last forward turned into a record-less response.
func (r *shapeRun) echo(rcode dnswire.RCode) []byte {
	b := append([]byte(nil), r.h.up.buf[:r.h.up.n]...)
	b[2] |= 0x80
	b[3] = b[3]&0xF0 | byte(rcode)
	return b
}

func mustPack(t testing.TB, m *dnswire.Message) []byte {
	t.Helper()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// upperName uppercases the letters of the first question's name in place.
func upperName(wire []byte) []byte {
	v, ok := dnswire.ParseView(wire)
	if !ok {
		panic("upperName: not viewable")
	}
	q := v.QuestionWire()
	name := q[:len(q)-4]
	for i, c := range name {
		if c >= 'a' && c <= 'z' {
			name[i] = c - ('a' - 'A')
		}
	}
	return wire
}

// note adds a line to the row's transcript: state the counters do not show.
func (r *shapeRun) note(format string, args ...any) {
	fmt.Fprintf(&r.out, "  "+format+"\n", args...)
}

// rawRR is one record as bytes, for shapes Pack does not emit: owner is a
// wire name or a pointer, written as given, and rdlength is whatever rdlen
// says (-1: the length of rdata).
func rawRR(owner string, typ dnswire.Type, class uint16, ttl uint32, rdlen int, rdata string) []byte {
	if rdlen < 0 {
		rdlen = len(rdata)
	}
	b := append([]byte(owner), byte(typ>>8), byte(typ), byte(class>>8), byte(class),
		byte(ttl>>24), byte(ttl>>16), byte(ttl>>8), byte(ttl), byte(rdlen>>8), byte(rdlen))
	return append(b, rdata...)
}

// withRecords is a copy of wire, a message that ends with its questions,
// carrying the given records, counted per section as an, ns and ar say.
func withRecords(wire []byte, an, ns, ar int, records ...[]byte) []byte {
	b := append([]byte(nil), wire...)
	b[7], b[9], b[11] = byte(an), byte(ns), byte(ar)
	for _, rec := range records {
		b = append(b, rec...)
	}
	return b
}

// rawResponse is the last forward turned into a response carrying the given
// records.
func (r *shapeRun) rawResponse(rcode dnswire.RCode, an, ns, ar int, records ...[]byte) []byte {
	return withRecords(r.echo(rcode), an, ns, ar, records...)
}

// txtRR is the modified scheme's cookie record as a client writes it: owner
// the single octet 00, TXT, class IN, TTL 0, one 16-byte string. optRR is a
// bare EDNS0 OPT the same way, advertising 4096 bytes.
func txtRR(c cookie.Cookie) []byte {
	return rawRR("\x00", dnswire.TypeTXT, 1, 0, -1, "\x10"+string(c[:]))
}

var optRR = rawRR("\x00", dnswire.TypeOPT, 4096, 0, -1, "")

// optOptions is an OPT with the DO bit set and one option in its rdata.
var optOptions = rawRR("\x00", dnswire.TypeOPT, 1232, 0x8000, -1, "\x00\x0a\x00\x08\x01\x02\x03\x04\x05\x06\x07\x08")

// mint is the shape client's cookie under the row's keys.
func mint(r *shapeRun) cookie.Cookie { return r.h.g.cfg.Auth.Mint(shapeClient.Addr()) }

// pendingDump renders the shard's NAT table in a form that does not depend
// on how an entry stores its questions.
func pendingDump(s *remoteShard) []string {
	var out []string
	s.inFlight(func(id uint16, e *pendEntry) {
		var fwdQ, q dnswire.Question
		if len(e.fwdWire) > 0 {
			fwdQ, _, _ = dnswire.UnpackQuestion(e.fwdWire)
		}
		if e.kind == pendChild { // only message 6 is built from the client's question
			q, _, _ = dnswire.UnpackQuestion(e.qwire)
		}
		out = append(out, fmt.Sprintf("id=%d kind=%d client=%v from=%v orig=%#04x up=%v expires=%v fwd=%v client-q=%v",
			id, e.kind, e.clientSrc, e.replyFrom, e.origID, e.upstream, e.expires, fwdQ, q))
	})
	sort.Strings(out)
	return out
}

// nonZero renders the non-zero fields of a counter struct.
func nonZero(v any) string {
	rv := reflect.ValueOf(v)
	var parts []string
	for i := 0; i < rv.NumField(); i++ {
		if name := rv.Type().Field(i).Name; rv.Field(i).Uint() != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", name, rv.Field(i).Uint()))
		}
	}
	return strings.Join(parts, " ")
}

type shapeRow struct {
	name string
	cfg  func(*RemoteConfig)
	run  func(r *shapeRun)
}

var (
	shapeClient = mustAP("10.0.0.53:4444")
	shapeOther  = mustAP("10.0.0.54:4445")
	shapeANS2   = mustAP("10.99.0.3:53")
	shapeSubnet = netip.MustParsePrefix("203.0.113.0/24")
)

func relayOnly(cfg *RemoteConfig) { cfg.ActivationThreshold = 1e12 }
func inFooCom(cfg *RemoteConfig)  { cfg.Zone = dnswire.MustName("foo.com") }

func shapeRows() []shapeRow {
	nsQuery := func(r *shapeRun, src netip.Addr, child string, id uint16) []byte {
		return r.h.nsQueryWire(r.t, src, child, id)
	}
	plain := func(r *shapeRun, name string, id uint16) []byte {
		return mustPack(r.t, dnswire.NewQuery(id, dnswire.MustName(name), dnswire.TypeA))
	}
	pub := func(r *shapeRun) netip.AddrPort { return r.h.g.cfg.PublicAddr }
	ans := func(r *shapeRun) netip.AddrPort { return r.h.g.cfg.ANSAddr }
	// verifiedForward runs message 3 for the client and leaves its forward pending.
	verifiedForward := func(r *shapeRun, child string) {
		r.query("cookie query", shapeClient, pub(r), nsQuery(r, shapeClient.Addr(), child, 0x1234))
	}
	referral := func(r *shapeRun) []byte {
		fwd := r.forwarded()
		resp := fwd.Response()
		ns1, ns2 := dnswire.MustName("ns1.foo.com"), dnswire.MustName("ns2.foo.com")
		resp.Authority = []dnswire.RR{
			dnswire.NewRR(fwd.Questions[0].Name, 3600, &dnswire.NSData{Host: ns1}),
			dnswire.NewRR(fwd.Questions[0].Name, 3600, &dnswire.NSData{Host: ns2}),
		}
		resp.Additional = []dnswire.RR{
			dnswire.NewRR(ns1, 600, &dnswire.AData{Addr: mustAddr("198.51.100.7")}),
			dnswire.NewRR(ns2, 900, &dnswire.AData{Addr: mustAddr("198.51.100.8")}),
			dnswire.NewRR(ns2, 900, &dnswire.AAAAData{Addr: mustAddr("2001:db8::8")}),
		}
		return mustPack(r.t, resp)
	}
	answer := func(r *shapeRun) []byte {
		fwd := r.forwarded()
		resp := fwd.Response()
		resp.Flags.AA = true
		resp.Answers = []dnswire.RR{
			dnswire.NewRR(fwd.Questions[0].Name, 300, &dnswire.AData{Addr: mustAddr("198.51.100.10")}),
			dnswire.NewRR(fwd.Questions[0].Name, 86400, &dnswire.AData{Addr: mustAddr("198.51.100.11")}),
		}
		return mustPack(r.t, resp)
	}
	withSubnet := func(cfg *RemoteConfig) { cfg.Subnet = shapeSubnet }

	return []shapeRow{
		// Ingress, guard active: the NS-cookie query (message 3).
		{"ns-cookie/cache-miss", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
		}},
		{"ns-cookie/cache-hit", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			r.upstream("nxdomain", ans(r), r.echo(dnswire.RCodeNXDomain))
			r.query("repeat", shapeClient, pub(r), nsQuery(r, shapeClient.Addr(), "mail.foo.com", 0x1235))
			r.query("repeat, other type", shapeClient, pub(r), func() []byte {
				q := nsQuery(r, shapeClient.Addr(), "mail.foo.com", 0x1236)
				q[len(q)-3] = byte(dnswire.TypeMX) // qtype low octet
				return q
			}())
		}},
		{"ns-cookie/cached-source-other-label", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			// A live entry and a credential that is not the cached one: the
			// other source's cookie, presented from the cached source.
			r.query("other cookie", shapeClient, pub(r), nsQuery(r, shapeOther.Addr(), "www.foo.com", 0x1237))
		}},
		{"ns-cookie/forged-label", nil, func(r *shapeRun) {
			r.query("forged", shapeOther, pub(r), nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x2222))
		}},
		{"ns-cookie/rl2-dropped", func(cfg *RemoteConfig) {
			cfg.RL2 = ratelimit.Limiter2Config{PerSourceRate: 1, PerSourceBurst: 1, TrackedSources: 16}
		}, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			r.query("over the rate", shapeClient, pub(r), nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x1238))
		}},
		{"ns-cookie/mixed-case", nil, func(r *shapeRun) {
			r.query("upper", shapeClient, pub(r), upperName(nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x1239)))
			r.upstream("nxdomain", ans(r), r.echo(dnswire.RCodeNXDomain))
			r.query("upper again", shapeClient, pub(r), upperName(nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x123a)))
			r.upstream("servfail", ans(r), r.echo(dnswire.RCodeServFail))
		}},
		{"ns-cookie/class-chaos", nil, func(r *shapeRun) {
			q := nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x123b)
			q[len(q)-1] = 3 // class CH: forwarded as IN, echoed to the client as sent
			r.query("class CH", shapeClient, pub(r), q)
			r.upstream("nxdomain", ans(r), r.echo(dnswire.RCodeNXDomain))
		}},
		{"ns-cookie/with-opt", nil, func(r *shapeRun) {
			withOPT := func(id uint16) []byte {
				m, err := dnswire.Unpack(nsQuery(r, shapeClient.Addr(), "www.foo.com", id))
				if err != nil {
					r.t.Fatal(err)
				}
				m.Additional = []dnswire.RR{{Name: dnswire.Root, Type: dnswire.TypeOPT, Class: 4096, Data: &dnswire.Raw{}}}
				return mustPack(r.t, m)
			}
			r.query("opt", shapeClient, pub(r), withOPT(0x123c))
			r.upstream("nxdomain", ans(r), r.echo(dnswire.RCodeNXDomain))
			r.query("opt again", shapeClient, pub(r), withOPT(0x123d))
		}},
		{"ns-cookie/non-ascii-label", nil, func(r *shapeRun) {
			// A byte ≥ 0x80 after the cookie: an octet of the label, kept as it
			// came (RFC 4343 §3).
			q := nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x123e)
			q[len(q)-4-len("\x03foo\x03com\x00")-1] = 0xE9
			r.query("latin-1 byte", shapeClient, pub(r), q)
			r.upstream("nxdomain", ans(r), r.echo(dnswire.RCodeNXDomain))
		}},
		{"ns-cookie/two-questions", nil, func(r *shapeRun) {
			// Re-recorded, RFC 9619: a count of questions other than one is a
			// format error, dropped as malformed.
			m, err := dnswire.Unpack(nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x123f))
			if err != nil {
				r.t.Fatal(err)
			}
			m.Questions = append(m.Questions, dnswire.Question{Name: dnswire.MustName("second.foo.com"), Type: dnswire.TypeA, Class: dnswire.ClassINET})
			r.query("qdcount 2", shapeClient, pub(r), mustPack(r.t, m))
		}},
		{"ingress/malformed", nil, func(r *shapeRun) {
			r.query("garbage", shapeClient, pub(r), []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
			resp := plain(r, "www.foo.com", 0x3001)
			resp[2] |= 0x80
			r.query("a response", shapeClient, pub(r), resp)
			cookieResp := nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x3002)
			cookieResp[2] |= 0x80
			r.query("a cookie-named response", shapeClient, pub(r), cookieResp)
			short := nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x3003)
			r.query("question cut short", shapeClient, pub(r), short[:len(short)-1])
			trail := append(nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x3004), 0)
			r.query("trailing byte", shapeClient, pub(r), trail)
			r.query("other port", shapeClient, netip.AddrPortFrom(pub(r).Addr(), 5353), plain(r, "www.foo.com", 0x3005))
		}},
		{"newcomer/grant", nil, func(r *shapeRun) {
			r.query("first contact", shapeClient, pub(r), plain(r, "www.foo.com", 0x3010))
			r.query("mixed case", shapeClient, pub(r), upperName(plain(r, "www.foo.com", 0x3011)))
		}},
		{"modified/txt-cookie", nil, func(r *shapeRun) {
			m := dnswire.NewQuery(0x3020, dnswire.MustName("www.foo.com"), dnswire.TypeA)
			AttachCookie(m, r.h.g.cfg.Auth.Mint(shapeClient.Addr()), 0)
			r.query("valid", shapeClient, pub(r), mustPack(r.t, m))
			r.upstream("answer", ans(r), answer(r))
			r.query("valid again", shapeClient, pub(r), mustPack(r.t, m))
			r.upstream("record-less", ans(r), r.echo(dnswire.RCodeNoError))
			r.query("forged", shapeOther, pub(r), mustPack(r.t, m))
		}},
		{"ip-cookie/message-7", withSubnet, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			r.upstream("answer", ans(r), answer(r))
			reply, err := dnswire.Unpack(r.h.io.buf[:r.h.io.n])
			if err != nil || len(reply.Answers) != 1 {
				r.t.Fatalf("no IP cookie in message 6: %v %v", reply, err)
			}
			cookieIP := netip.AddrPortFrom(reply.Answers[0].Data.(*dnswire.AData).Addr, 53)
			r.query("to the cookie address", shapeClient, cookieIP, plain(r, "www.foo.com", 0x3030))
			r.upstream("answer", ans(r), answer(r))
			r.query("to the cookie address, other name", shapeClient, cookieIP, plain(r, "ftp.foo.com", 0x3031))
			r.upstream("answer", ans(r), answer(r))
			r.query("to a wrong address", shapeClient, netip.AddrPortFrom(mustAddr("203.0.113.200"), 53), plain(r, "www.foo.com", 0x3032))
			// A cookie-shaped name sent to a cookie address is still message 7.
			r.query("cookie name to the cookie address", shapeClient, cookieIP, nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x3033))
		}},

		// Ingress, guard inactive: relay.
		{"passthrough/canonical", relayOnly, func(r *shapeRun) {
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xBEEF))
			r.upstream("record-less", ans(r), r.echo(dnswire.RCodeNoError))
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xBEF0))
			r.upstream("answer", ans(r), answer(r))
		}},
		{"passthrough/mixed-case", relayOnly, func(r *shapeRun) {
			r.query("query", shapeClient, pub(r), upperName(plain(r, "www.foo.com", 0xBEF1)))
			r.upstream("record-less", ans(r), r.echo(dnswire.RCodeNoError))
		}},
		{"passthrough/z-bit", relayOnly, func(r *shapeRun) {
			q := plain(r, "www.foo.com", 0xBEF2)
			q[3] |= 0x40
			r.query("query", shapeClient, pub(r), q)
			resp := r.echo(dnswire.RCodeNoError)
			resp[3] |= 0x20
			r.upstream("record-less, z bit", ans(r), resp)
		}},
		{"passthrough/question-less", relayOnly, func(r *shapeRun) {
			// Re-recorded when the guard came to read only wire: a query with
			// no question is malformed, not relayed, for no echo of its answer
			// could pass. The answer to the forward it once had, under ID 1,
			// is malformed too.
			r.query("query", shapeClient, pub(r), mustPack(r.t, &dnswire.Message{ID: 0xBEF3}))
			r.upstream("echo", ans(r), mustPack(r.t, &dnswire.Message{ID: 1, Flags: dnswire.Flags{QR: true}}))
		}},
		{"passthrough/with-opt", relayOnly, func(r *shapeRun) {
			m := dnswire.NewQuery(0xBEF4, dnswire.MustName("www.foo.com"), dnswire.TypeA)
			m.Additional = []dnswire.RR{{Name: dnswire.Root, Type: dnswire.TypeOPT, Class: 4096, Data: &dnswire.Raw{}}}
			r.query("query", shapeClient, pub(r), mustPack(r.t, m))
			r.upstream("referral", ans(r), referral(r))
		}},
		{"passthrough/non-ascii-name", relayOnly, func(r *shapeRun) {
			q := plain(r, "www.foo.com", 0xBEF7)
			q[13] = 0xE9
			r.query("latin-1 byte", shapeClient, pub(r), q)
			r.upstream("record-less", ans(r), r.echo(dnswire.RCodeNoError))
		}},
		{"passthrough/malformed", relayOnly, func(r *shapeRun) {
			r.query("garbage", shapeClient, pub(r), []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3})
			resp := plain(r, "www.foo.com", 0xBEF5)
			resp[2] |= 0x80
			r.query("a response", shapeClient, pub(r), resp)
		}},

		// The upstream half.
		{"upstream/nxdomain", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			r.upstream("nxdomain", ans(r), r.echo(dnswire.RCodeNXDomain))
		}},
		{"upstream/servfail", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			r.upstream("servfail", ans(r), r.echo(dnswire.RCodeServFail))
		}},
		{"upstream/noerror-nodata", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			r.upstream("record-less noerror", ans(r), r.echo(dnswire.RCodeNoError))
		}},
		{"upstream/nxdomain-with-soa", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			resp := r.forwarded().Response()
			resp.Flags.RCode = dnswire.RCodeNXDomain
			resp.Authority = []dnswire.RR{dnswire.NewRR(dnswire.MustName("foo.com"), 60, &dnswire.SOAData{
				MName: dnswire.MustName("ns1.foo.com"), RName: dnswire.MustName("host.foo.com"), Serial: 7, Minimum: 60})}
			r.upstream("nxdomain + soa", ans(r), mustPack(r.t, resp))
		}},
		{"upstream/nodata-with-soa", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			resp := r.forwarded().Response()
			resp.Authority = []dnswire.RR{dnswire.NewRR(dnswire.MustName("foo.com"), 60, &dnswire.SOAData{
				MName: dnswire.MustName("ns1.foo.com"), RName: dnswire.MustName("host.foo.com"), Serial: 7, Minimum: 60})}
			r.upstream("nodata + soa", ans(r), mustPack(r.t, resp))
		}},
		{"upstream/referral-with-glue", nil, func(r *shapeRun) {
			r.query("cookie query", shapeClient, pub(r), upperName(nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x1234)))
			r.upstream("referral", ans(r), referral(r))
		}},
		{"upstream/referral-without-glue", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			resp := r.forwarded().Response()
			resp.Authority = []dnswire.RR{dnswire.NewRR(resp.Questions[0].Name, 3600, &dnswire.NSData{Host: dnswire.MustName("ns.elsewhere.net")})}
			r.upstream("referral", ans(r), mustPack(r.t, resp))
		}},
		{"upstream/answer-ip-cookie", withSubnet, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			r.upstream("answer", ans(r), answer(r))
			// The same from a source the cache knows, in another case.
			r.query("repeat", shapeClient, pub(r), upperName(nsQuery(r, shapeClient.Addr(), "ftp.foo.com", 0x1242)))
			r.upstream("answer", ans(r), answer(r))
		}},
		{"ns-cookie/other-destination", withSubnet, func(r *shapeRun) {
			// Not the public address and not in the cookie subnet: still message 3.
			r.query("cookie query", shapeClient, mustAP("198.41.0.9:53"), nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x1243))
			r.upstream("nxdomain", ans(r), r.echo(dnswire.RCodeNXDomain))
		}},
		{"upstream/answer-no-subnet", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			r.upstream("answer", ans(r), answer(r))
		}},
		{"upstream/mixed-case-echo", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			r.upstream("nxdomain, upper echo", ans(r), upperName(r.echo(dnswire.RCodeNXDomain)))
			verifiedForward(r, "www.foo.com")
			r.upstream("referral, upper echo", ans(r), upperName(referral(r)))
		}},
		{"upstream/mixed-case-echo-relay", relayOnly, func(r *shapeRun) {
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xBEF6))
			r.upstream("record-less, upper echo", ans(r), upperName(r.echo(dnswire.RCodeNoError)))
		}},
		{"upstream/kelvin-echo", nil, func(r *shapeRun) {
			// U+212A KELVIN SIGN is three octets, not a 'k': names fold case
			// in ASCII only (RFC 4343 §3), so this is no echo of the question
			// asked and the entry stays pending.
			verifiedForward(r, "kkk.foo.com")
			e := r.echo(dnswire.RCodeNXDomain)
			kelvin := append(append(append([]byte(nil), e[:12]...), 5, 'k', 0xE2, 0x84, 0xAA, 'k'), e[16:]...)
			r.upstream("kelvin sign for k", ans(r), kelvin)
		}},
		{"upstream/wrong-question", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			other := r.echo(dnswire.RCodeNXDomain)
			other[13]++ // another first letter
			r.upstream("other name", ans(r), other)
			qtype := r.echo(dnswire.RCodeNXDomain)
			qtype[len(qtype)-3] = byte(dnswire.TypeMX)
			r.upstream("other type", ans(r), qtype)
			// Case folding is for names: 0x0041 is not 0x0061.
			folded := r.echo(dnswire.RCodeNXDomain)
			folded[len(folded)-3] = 0x21
			r.upstream("type differing by 0x20", ans(r), folded)
			// Re-recorded, UpstreamMalformed: a response with no question is
			// one the view refuses.
			noQ := r.echo(dnswire.RCodeNXDomain)[:12]
			noQ[5] = 0
			r.upstream("no question", ans(r), noQ)
			withRecords := r.forwarded().Response()
			withRecords.Questions[0].Name = dnswire.MustName("evil.foo.com")
			withRecords.Answers = []dnswire.RR{dnswire.NewRR(withRecords.Questions[0].Name, 300, &dnswire.AData{Addr: mustAddr("192.0.2.66")})}
			r.upstream("other name, with records", ans(r), mustPack(r.t, withRecords))
			r.upstream("the genuine one", ans(r), r.echo(dnswire.RCodeNXDomain))
		}},
		{"upstream/wrong-source", func(cfg *RemoteConfig) {
			cfg.ANSFallbacks = []netip.AddrPort{shapeANS2}
		}, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			r.upstream("off-path", mustAP("192.0.2.99:53"), r.echo(dnswire.RCodeNXDomain))
			r.upstream("the other configured upstream", shapeANS2, r.echo(dnswire.RCodeNXDomain))
			r.upstream("the other one, with records", shapeANS2, referral(r))
			r.upstream("the genuine one", ans(r), r.echo(dnswire.RCodeNXDomain))
		}},
		{"upstream/expired", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			resp := r.echo(dnswire.RCodeNXDomain)
			r.skew.Add(int64(r.h.g.cfg.pendingTimeout))
			r.upstream("after the timeout", ans(r), resp)
			r.upstream("again", ans(r), resp)
			verifiedForward(r, "www.foo.com")
			ref := referral(r)
			r.skew.Add(int64(r.h.g.cfg.pendingTimeout))
			r.upstream("referral after the timeout", ans(r), ref)
		}},
		{"upstream/stray-id", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			stray := r.echo(dnswire.RCodeNXDomain)
			stray[1] ^= 0x40
			r.upstream("unknown id", ans(r), stray)
			ref := referral(r)
			ref[1] ^= 0x40
			r.upstream("unknown id, with records", ans(r), ref)
			// Re-recorded, UpstreamMalformed: these four the view or the walk
			// refuse, and they are now counted.
			r.upstream("garbage", ans(r), []byte{1, 2, 3})
			q := r.echo(dnswire.RCodeNXDomain)
			q[2] &^= 0x80
			r.upstream("a query", ans(r), q)
			ref = referral(r)
			r.upstream("truncated referral", ans(r), ref[:len(ref)-8])
			r.upstream("referral with a trailing byte", ans(r), append(referral(r), 0xff))
		}},
		{"upstream/fail-closed", func(cfg *RemoteConfig) {
			cfg.Health = HealthConfig{enabled: true, threshold: 1}
		}, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			r.skew.Add(int64(r.h.g.cfg.pendingTimeout))
			r.step("sweep", func() { r.h.s.healthTick(r.h.g.now()) })
			r.query("breaker open", shapeClient, pub(r), nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x1240))
			r.skew.Add(int64(breakerCooldown))
			r.step("probe", func() { r.h.s.healthTick(r.h.g.now()) })
			r.upstream("probe answered", ans(r), r.echo(dnswire.RCodeNoError))
			r.query("breaker closed", shapeClient, pub(r), nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x1241))
		}},
		// Recorded at 1f736d1, the last commit whose message 6 and newcomer
		// replies were all built as Messages. The forward for www.foo.com puts
		// the question at 12 (c00c), foo.com at 16 (c010), com at 20 (c014),
		// and the first record at 29.
		{"upstream/referral-aaaa-only", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			resp := r.forwarded().Response()
			ns1 := dnswire.MustName("ns1.foo.com")
			resp.Authority = []dnswire.RR{dnswire.NewRR(resp.Questions[0].Name, 3600, &dnswire.NSData{Host: ns1})}
			resp.Additional = []dnswire.RR{dnswire.NewRR(ns1, 600, &dnswire.AAAAData{Addr: mustAddr("2001:db8::7")})}
			r.upstream("referral", ans(r), mustPack(r.t, resp))
		}},
		{"upstream/referral-with-opt", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			resp, err := dnswire.Unpack(referral(r))
			if err != nil {
				r.t.Fatal(err)
			}
			opt := dnswire.RR{Name: dnswire.Root, Type: dnswire.TypeOPT, Class: 4096, Data: &dnswire.Raw{}}
			resp.Additional = append([]dnswire.RR{opt}, resp.Additional...)
			r.upstream("opt first", ans(r), mustPack(r.t, resp))
			verifiedForward(r, "www.foo.com")
			resp.Additional = append(resp.Additional[1:], opt)
			r.upstream("opt last", ans(r), mustPack(r.t, resp))
		}},
		{"upstream/referral-crossing-512", nil, func(r *shapeRun) {
			// Message 6 here is 39 bytes and 16 per address: 29 fit, 30 do not.
			glue := func(n int) []byte {
				resp := r.forwarded().Response()
				ns1 := dnswire.MustName("ns1.foo.com")
				resp.Authority = []dnswire.RR{dnswire.NewRR(resp.Questions[0].Name, 3600, &dnswire.NSData{Host: ns1})}
				for i := 0; i < n; i++ {
					resp.Additional = append(resp.Additional, dnswire.NewRR(ns1, uint32(100+i),
						&dnswire.AData{Addr: netip.AddrFrom4([4]byte{198, 51, 100, byte(i)})}))
				}
				return mustPack(r.t, resp)
			}
			verifiedForward(r, "www.foo.com")
			r.upstream("29 addresses", ans(r), glue(29))
			verifiedForward(r, "www.foo.com")
			r.upstream("30 addresses", ans(r), glue(30))
		}},
		{"upstream/referral-class-ch-glue", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			resp, err := dnswire.Unpack(referral(r))
			if err != nil {
				r.t.Fatal(err)
			}
			resp.Additional[0].Class = 3
			resp.Authority[0].Class = 3
			r.upstream("referral", ans(r), mustPack(r.t, resp))
		}},
		{"upstream/referral-upper-case-records", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			r.upstream("referral", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 1,
				rawRR("\x03WWW\x03FOO\x03COM\x00", dnswire.TypeNS, 1, 3600, -1, "\x03NS1\xc0\x10"),
				rawRR("\x03NS1\x03Foo\x03cOM\x00", dnswire.TypeA, 1, 600, -1, "\xc6\x33\x64\x07")))
		}},
		{"upstream/referral-owner-into-rdata", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			// The NS target sits at 41 (0x29), in the NS record's rdata; the
			// first address, 1.97.0.9 at 59 (0x3b), reads as the name "a".
			r.upstream("referral", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 2,
				rawRR("\xc0\x0c", dnswire.TypeNS, 1, 3600, -1, "\x03ns1\xc0\x10"),
				rawRR("\xc0\x29", dnswire.TypeA, 1, 600, -1, "\x01a\x00\x09"),
				rawRR("\xc0\x3b", dnswire.TypeA, 1, 700, -1, "\xc6\x33\x64\x08")))
		}},
		{"upstream/referral-bad-rdlength", nil, func(r *shapeRun) {
			// Re-recorded, UpstreamMalformed: all but the genuine one are
			// responses the walk refuses, now counted.
			verifiedForward(r, "www.foo.com")
			glue := rawRR("\xc0\x29", dnswire.TypeA, 1, 600, -1, "\xc6\x33\x64\x07")
			ns := func(rdlen int, rdata string) []byte {
				return rawRR("\xc0\x0c", dnswire.TypeNS, 1, 3600, rdlen, rdata)
			}
			r.upstream("ns rdlength one short", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 1, ns(5, "\x03ns1\xc0\x10"), glue))
			r.upstream("ns rdlength one long", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 1, ns(7, "\x03ns1\xc0\x10"), glue))
			r.upstream("ns target, then a spare byte", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 1, ns(7, "\x03ns1\xc0\x10\x00"), glue))
			r.upstream("a rdlength 5", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 1, ns(-1, "\x03ns1\xc0\x10"),
				rawRR("\xc0\x29", dnswire.TypeA, 1, 600, 5, "\xc6\x33\x64\x07\x00")))
			r.upstream("a rdlength 3", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 1, ns(-1, "\x03ns1\xc0\x10"),
				rawRR("\xc0\x29", dnswire.TypeA, 1, 600, 3, "\xc6\x33\x64")))
			r.upstream("arcount one over", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 2, ns(-1, "\x03ns1\xc0\x10"), glue))
			r.upstream("arcount one under", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 0, ns(-1, "\x03ns1\xc0\x10"), glue))
			r.upstream("the genuine one", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 1, ns(-1, "\x03ns1\xc0\x10"), glue))
		}},
		{"upstream/referral-bad-pointers", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			ns := rawRR("\xc0\x0c", dnswire.TypeNS, 1, 3600, -1, "\x03ns1\xc0\x10")
			glue := func(owner string) []byte { return rawRR(owner, dnswire.TypeA, 1, 600, -1, "\xc6\x33\x64\x07") }
			// The glue record starts at 47 (0x2f). Re-recorded,
			// UpstreamMalformed: the first five are refused, now counted.
			r.upstream("forward pointer", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 1, ns, glue("\xc0\x40")))
			r.upstream("pointer at itself", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 1, ns, glue("\xc0\x2f")))
			r.upstream("pointer loop", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 1, ns, glue("\x01a\xc0\x2f")))
			r.upstream("pointer past the end", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 1, ns, glue("\xff\xff")))
			r.upstream("reserved label type", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 1, ns, glue("\x41a\x00")))
			r.upstream("pointer into the header", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 1, ns, glue("\xc0\x05")))
			verifiedForward(r, "www.foo.com")
			r.upstream("the genuine one", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 1, ns, glue("\xc0\x29")))
		}},
		{"upstream/referral-names-only-unpack-reads", nil, func(r *shapeRun) {
			// Re-recorded, UpstreamMalformed and RFC 9619: the dotted owner is
			// refused, now counted, and so is the response of two questions,
			// which the walk refuses.
			verifiedForward(r, "www.foo.com")
			ns := rawRR("\xc0\x0c", dnswire.TypeNS, 1, 3600, -1, "\x03ns1\xc0\x10")
			r.upstream("latin-1 glue owner", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 1, ns,
				rawRR("\x03n\xe9s\xc0\x10", dnswire.TypeA, 1, 600, -1, "\xc6\x33\x64\x07")))
			verifiedForward(r, "www.foo.com")
			r.upstream("dotted glue owner", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 1, ns,
				rawRR("\x03n.s\xc0\x10", dnswire.TypeA, 1, 600, -1, "\xc6\x33\x64\x07")))
			resp, err := dnswire.Unpack(referral(r))
			if err != nil {
				r.t.Fatal(err)
			}
			resp.Questions = append(resp.Questions, dnswire.Question{Name: dnswire.MustName("second.foo.com"), Type: dnswire.TypeA, Class: dnswire.ClassINET})
			r.upstream("two questions", ans(r), mustPack(r.t, resp))
		}},
		{"upstream/nxdomain-with-ns", nil, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			resp, err := dnswire.Unpack(referral(r))
			if err != nil {
				r.t.Fatal(err)
			}
			resp.Flags.RCode = dnswire.RCodeNXDomain
			r.upstream("nxdomain, referral records", ans(r), mustPack(r.t, resp))
		}},
		{"upstream/referral-other-rcodes", withSubnet, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			resp, err := dnswire.Unpack(referral(r))
			if err != nil {
				r.t.Fatal(err)
			}
			resp.Flags.RCode = dnswire.RCodeServFail
			resp.Flags.TC, resp.Flags.RA, resp.Flags.AA = true, true, true
			r.upstream("servfail and flags, referral records", ans(r), mustPack(r.t, resp))
			verifiedForward(r, "www.foo.com")
			resp.Answers = []dnswire.RR{dnswire.NewRR(resp.Questions[0].Name, 300, &dnswire.AData{Addr: mustAddr("198.51.100.10")})}
			r.upstream("answer and referral records", ans(r), mustPack(r.t, resp))
			verifiedForward(r, "www.foo.com")
			resp.Answers, resp.Authority = nil, nil
			r.upstream("glue and no ns", ans(r), mustPack(r.t, resp))
			verifiedForward(r, "www.foo.com")
			resp.Answers = []dnswire.RR{dnswire.NewRR(resp.Questions[0].Name, 300, &dnswire.NSData{Host: dnswire.MustName("ns1.foo.com")})}
			r.upstream("ns in the answer section", ans(r), mustPack(r.t, resp))
		}},
		{"upstream/referral-relayed", relayOnly, func(r *shapeRun) {
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xBEF8))
			r.upstream("upper-case records", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 1,
				rawRR("\x03WWW\x03FOO\x03COM\x00", dnswire.TypeNS, 1, 3600, -1, "\x03NS1\xc0\x10"),
				rawRR("\x03NS1\x03Foo\x03cOM\x00", dnswire.TypeA, 1, 600, -1, "\xc6\x33\x64\x07")))
		}},

		// Newcomers, zone foo.com unless the row says otherwise.
		{"newcomer/child-two-labels-up", inFooCom, func(r *shapeRun) {
			r.query("a.b.c5.foo.com", shapeClient, pub(r), plain(r, "a.b.c5.foo.com", 0x3100))
			r.query("mixed case", shapeClient, pub(r), upperName(plain(r, "a.b.c5.foo.com", 0x3101)))
			r.query("the child itself", shapeClient, pub(r), plain(r, "c5.foo.com", 0x3102))
			r.query("another source", shapeOther, pub(r), plain(r, "a.b.c5.foo.com", 0x3103))
		}},
		{"newcomer/apex", inFooCom, func(r *shapeRun) {
			r.query("foo.com", shapeClient, pub(r), plain(r, "foo.com", 0x3110))
			r.query("mixed case", shapeClient, pub(r), upperName(plain(r, "foo.com", 0x3111)))
		}},
		{"newcomer/out-of-zone", inFooCom, func(r *shapeRun) {
			r.query("www.bar.com", shapeClient, pub(r), plain(r, "www.bar.com", 0x3120))
			r.query("a suffix off the label boundary", shapeClient, pub(r), plain(r, "www.xfoo.com", 0x3121))
			r.query("a label that reads as the zone's tail", shapeClient, pub(r), plain(r, "a\x03foo\x03com", 0x3122))
			r.query("above the zone", shapeClient, pub(r), plain(r, "com", 0x3123))
			r.query("the root", shapeClient, pub(r), plain(r, ".", 0x3124))
			r.query("mixed case", shapeClient, pub(r), upperName(plain(r, "www.bar.com", 0x3125)))
		}},
		{"newcomer/tcp-client", func(cfg *RemoteConfig) {
			inFooCom(cfg)
			cfg.TCPClients = []netip.Prefix{netip.PrefixFrom(shapeClient.Addr(), 32)}
		}, func(r *shapeRun) {
			r.query("configured for tcp", shapeClient, pub(r), plain(r, "www.foo.com", 0x3130))
			r.query("not configured", shapeOther, pub(r), plain(r, "www.foo.com", 0x3131))
			r.query("configured, out of zone", shapeClient, pub(r), plain(r, "www.bar.com", 0x3132))
		}},
		{"newcomer/tcp-fallback", func(cfg *RemoteConfig) {
			inFooCom(cfg)
			cfg.Fallback = SchemeTCP
		}, func(r *shapeRun) {
			r.query("first contact", shapeClient, pub(r), plain(r, "www.foo.com", 0x3140))
		}},
		{"newcomer/child-label-too-long", inFooCom, func(r *shapeRun) {
			r.query("53 bytes and the cookie fit", shapeClient, pub(r), plain(r, "www."+strings.Repeat("x", 53)+".foo.com", 0x3150))
			r.query("54 do not", shapeClient, pub(r), plain(r, "www."+strings.Repeat("x", 54)+".foo.com", 0x3151))
			r.query("nor 63", shapeClient, pub(r), plain(r, strings.Repeat("x", 63)+".foo.com", 0x3152))
		}},
		{"newcomer/fabricated-name-too-long", func(cfg *RemoteConfig) {
			cfg.Zone = dnswire.MustName(strings.Repeat(strings.Repeat("z", 59)+".", 3) + strings.Repeat("z", 59))
		}, func(r *shapeRun) {
			zone := string(r.h.g.cfg.Zone) // 241 bytes on the wire: a 3-byte child label and the cookie fit in 255, 4 do not
			r.query("3-byte child label", shapeClient, pub(r), plain(r, "abc."+zone, 0x3160))
			r.query("4-byte child label", shapeClient, pub(r), plain(r, "abcd."+zone, 0x3161))
		}},
		{"newcomer/header-bits", inFooCom, func(r *shapeRun) {
			q := plain(r, "www.foo.com", 0x3170)
			q[2] &^= 0x01
			r.query("rd clear", shapeClient, pub(r), q)
			q = plain(r, "www.foo.com", 0x3171)
			q[2] |= 0x10
			r.query("opcode 2", shapeClient, pub(r), q)
			q = plain(r, "www.foo.com", 0x3172)
			q[2], q[3] = 0x7e, 0xff
			r.query("every bit but qr and rd", shapeClient, pub(r), q)
			q = plain(r, "www.bar.com", 0x3173)
			q[2], q[3] = 0x7f, 0xff
			r.query("every bit but qr, out of zone", shapeClient, pub(r), q)
			q = plain(r, "foo.com", 0x3174)
			q[2], q[3] = 0x7e, 0xff
			r.query("every bit but qr and rd, apex", shapeClient, pub(r), q)
		}},
		{"newcomer/class-and-type", inFooCom, func(r *shapeRun) {
			q := plain(r, "www.foo.com", 0x3180)
			q[len(q)-1] = 3
			r.query("class CH", shapeClient, pub(r), q)
			q = plain(r, "www.foo.com", 0x3181)
			q[len(q)-4], q[len(q)-3], q[len(q)-2], q[len(q)-1] = 0x41, 0x5a, 0x41, 0x5a // letters, were they in a name
			r.query("type and class 0x415a", shapeClient, pub(r), q)
		}},
		{"newcomer/two-questions", inFooCom, func(r *shapeRun) {
			// Re-recorded, RFC 9619: dropped as malformed, not granted.
			two := func(id uint16, first, second string) []byte {
				m := dnswire.NewQuery(id, dnswire.MustName(first), dnswire.TypeA)
				m.Questions = append(m.Questions, dnswire.Question{Name: dnswire.MustName(second), Type: dnswire.TypeMX, Class: dnswire.ClassINET})
				return mustPack(r.t, m)
			}
			r.query("grant", shapeClient, pub(r), two(0x3190, "www.c5.foo.com", "second.c5.foo.com"))
			r.query("apex", shapeClient, pub(r), two(0x3191, "foo.com", "www.foo.com"))
			r.query("out of zone", shapeClient, pub(r), two(0x3192, "www.bar.com", "www.foo.com"))
			r.query("the same twice", shapeClient, pub(r), two(0x3193, "www.c5.foo.com", "www.c5.foo.com"))
		}},
		{"newcomer/with-opt", inFooCom, func(r *shapeRun) {
			withOPT := func(id uint16, name string) []byte {
				m := dnswire.NewQuery(id, dnswire.MustName(name), dnswire.TypeA)
				m.Additional = []dnswire.RR{{Name: dnswire.Root, Type: dnswire.TypeOPT, Class: 4096, Data: &dnswire.Raw{}}}
				return mustPack(r.t, m)
			}
			r.query("grant", shapeClient, pub(r), withOPT(0x31a0, "www.foo.com"))
			r.query("apex", shapeClient, pub(r), withOPT(0x31a1, "foo.com"))
			r.query("out of zone", shapeClient, pub(r), withOPT(0x31a2, "www.bar.com"))
		}},
		{"newcomer/non-ascii-name", inFooCom, func(r *shapeRun) {
			q := plain(r, "www.c5.foo.com", 0x31b0)
			q[14] = 0xE9
			r.query("latin-1 byte", shapeClient, pub(r), q)
			q = plain(r, "www.c5.foo.com", 0x31b1)
			q[17], q[18] = 0xC3, 0x89 // É in the child label: kept, not folded to é
			r.query("upper-case e acute for the child label", shapeClient, pub(r), q)
			q = plain(r, "www.c5.foo.com", 0x31b2)
			copy(q[12:], "\xc0\x0c") // a name that points at itself
			r.query("compressed question", shapeClient, pub(r), q[:18])
		}},
		{"newcomer/draining", inFooCom, func(r *shapeRun) {
			r.h.g.setLifecycle(LifecycleDraining)
			r.query("first contact", shapeClient, pub(r), plain(r, "www.foo.com", 0x31c0))
			r.query("with opt", shapeClient, pub(r), func() []byte {
				m := dnswire.NewQuery(0x31c1, dnswire.MustName("www.foo.com"), dnswire.TypeA)
				m.Additional = []dnswire.RR{{Name: dnswire.Root, Type: dnswire.TypeOPT, Class: 4096, Data: &dnswire.Raw{}}}
				return mustPack(r.t, m)
			}())
			r.query("a verified source still gets through", shapeClient, pub(r), nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x31c2))
			r.note("drain-dropped: %d", r.h.g.LifecycleStats().DrainDropped)
			r.h.g.setLifecycle(LifecycleWarming)
			r.query("warming", shapeClient, pub(r), plain(r, "www.foo.com", 0x31c3))
		}},
		{"newcomer/rl1-dropped", func(cfg *RemoteConfig) {
			inFooCom(cfg)
			cfg.RL1 = ratelimit.DefaultLimiter1Config()
			cfg.RL1.PerSourceRate, cfg.RL1.PerSourceBurst = 1, 2
		}, func(r *shapeRun) {
			for i, name := range []string{"www.foo.com", "foo.com", "www.bar.com", "www.foo.com"} {
				r.query(name, shapeClient, pub(r), plain(r, name, uint16(0x31d0+i)))
			}
			r.query("another source", shapeOther, pub(r), plain(r, "www.foo.com", 0x31d4))
		}},
		{"newcomer/mitigation-sketch", func(cfg *RemoteConfig) {
			inFooCom(cfg)
			cfg.Mitigation.Enabled = true
		}, func(r *shapeRun) {
			sketch := func() {
				var words []string
				for i := range r.h.s.names.words {
					if w := r.h.s.names.words[i].Load(); w != 0 {
						words = append(words, fmt.Sprintf("%d:%016x", i, w))
					}
				}
				r.note("sketch: %s", strings.Join(words, " "))
			}
			r.query("ladder bottom: relayed", shapeClient, pub(r), plain(r, "www.foo.com", 0x31e0))
			sketch()
			r.h.g.mit.layer.Store(int32(LayerCookies))
			r.query("www.foo.com", shapeClient, pub(r), plain(r, "www.foo.com", 0x31e1))
			sketch()
			r.query("the same in upper case", shapeClient, pub(r), upperName(plain(r, "www.foo.com", 0x31e2)))
			sketch()
			r.query("out of zone", shapeClient, pub(r), plain(r, "www.bar.com", 0x31e3))
			r.query("the root", shapeClient, pub(r), plain(r, ".", 0x31e4))
			r.query("latin-1 byte", shapeClient, pub(r), func() []byte {
				q := plain(r, "www.c5.foo.com", 0x31e5)
				q[14] = 0xE9
				return q
			}())
			sketch()
			r.h.g.setLifecycle(LifecycleDraining)
			r.query("draining: not observed", shapeClient, pub(r), plain(r, "ftp.foo.com", 0x31e6))
			sketch()
		}},
		{"newcomer/root-zone", func(cfg *RemoteConfig) { cfg.Zone = dnswire.Root }, func(r *shapeRun) {
			r.query("www.foo.com", shapeClient, pub(r), plain(r, "www.foo.com", 0x31f0))
			r.query("a top-level name", shapeClient, pub(r), plain(r, "com", 0x31f1))
			r.query("the root", shapeClient, pub(r), plain(r, ".", 0x31f2))
		}},

		// Recorded at 90e9534, the last commit that unpacked every query with a
		// record after its question before judging it. The query for
		// www.foo.com ends its name at 24 (c018 points at the root) and its
		// question at 29, where the first record starts.
		{"modified/mixed-case-and-opts", nil, func(r *shapeRun) {
			ck := txtRR(mint(r))
			q := func(id uint16, recs ...[]byte) []byte {
				return withRecords(upperName(plain(r, "www.foo.com", id)), 0, 0, len(recs), recs...)
			}
			r.query("valid, mixed case", shapeClient, pub(r), q(0x4000, ck))
			r.upstream("record-less", ans(r), r.echo(dnswire.RCodeNoError))
			r.query("valid again", shapeClient, pub(r), q(0x4001, ck))
			r.query("forged", shapeOther, pub(r), q(0x4002, ck))
			r.query("opt before", shapeClient, pub(r), q(0x4003, optRR, ck))
			r.query("opt after", shapeClient, pub(r), q(0x4004, ck, optRR))
			r.query("opts around it, forged", shapeOther, pub(r), q(0x4005, optRR, ck, optOptions))
			r.query("opts around it", shapeClient, pub(r), q(0x4006, optRR, ck, optOptions))
			r.query("opts in the other sections", shapeClient, pub(r),
				withRecords(plain(r, "www.foo.com", 0x4007), 1, 1, 1, optRR, optOptions, ck))
		}},
		{"modified/cookie-owner", nil, func(r *shapeRun) {
			c := mint(r)
			owned := func(id uint16, owner string) []byte {
				return withRecords(plain(r, "www.foo.com", id), 0, 0, 1, rawRR(owner, dnswire.TypeTXT, 1, 0, -1, "\x10"+string(c[:])))
			}
			r.query("a pointer to a 00 octet", shapeClient, pub(r), owned(0x4010, "\xc0\x18"))
			r.query("the same, forged", shapeOther, pub(r), owned(0x4011, "\xc0\x18"))
			r.query("a pointer to the question's name", shapeClient, pub(r), owned(0x4012, "\xc0\x0c"))
			r.query("a one-label name", shapeClient, pub(r), owned(0x4013, "\x01a\x00"))
			r.query("a pointer-owned txt, then the cookie", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4014), 0, 0, 2,
				rawRR("\xc0\x0c", dnswire.TypeTXT, 1, 0, -1, "\x10"+string(c[:])), txtRR(c)))
			r.query("the cookie, then a pointer-owned txt", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4015), 0, 0, 2,
				txtRR(c), rawRR("\xc0\x18", dnswire.TypeTXT, 1, 0, -1, "\x10"+string(c[:]))))
		}},
		{"modified/cookie-rdata", nil, func(r *shapeRun) {
			c := mint(r)
			txt := func(id uint16, class uint16, ttl uint32, rdata string) []byte {
				return withRecords(plain(r, "www.foo.com", id), 0, 0, 1, rawRR("\x00", dnswire.TypeTXT, class, ttl, -1, rdata))
			}
			r.query("15-byte string", shapeClient, pub(r), txt(0x4020, 1, 0, "\x0f"+string(c[:15])))
			r.query("17-byte string", shapeClient, pub(r), txt(0x4021, 1, 0, "\x11"+string(c[:])+"x"))
			r.query("empty rdata", shapeClient, pub(r), txt(0x4022, 1, 0, ""))
			r.query("an empty string, then the cookie", shapeClient, pub(r), txt(0x4023, 1, 0, "\x00\x10"+string(c[:])))
			r.query("two strings", shapeClient, pub(r), txt(0x4024, 1, 0, "\x10"+string(c[:])+"\x03abc"))
			r.query("two strings, forged", shapeOther, pub(r), txt(0x4025, 1, 0, "\x10"+string(c[:])+"\x03abc"))
			r.query("class CH, a ttl", shapeClient, pub(r), txt(0x4026, 3, 86400, "\x10"+string(c[:])))
		}},
		{"modified/cookie-elsewhere", nil, func(r *shapeRun) {
			c, other := mint(r), r.h.g.cfg.Auth.Mint(shapeOther.Addr())
			r.query("in the answer section", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4030), 1, 0, 0, txtRR(c)))
			r.query("in the authority section", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4031), 0, 1, 0, txtRR(c)))
			r.query("in the answer section, on a cookie name", shapeClient, pub(r),
				withRecords(nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x4032), 1, 0, 0, txtRR(c)))
			r.query("two cookies, the first valid", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4033), 0, 0, 2, txtRR(c), txtRR(other)))
			r.query("two cookies, the second valid", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4034), 0, 0, 2, txtRR(other), txtRR(c)))
			r.query("a 15-byte txt, then the cookie", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4035), 0, 0, 2,
				rawRR("\x00", dnswire.TypeTXT, 1, 0, -1, "\x0f"+string(c[:15])), txtRR(c)))
			r.query("an address beside it", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4036), 0, 0, 2,
				txtRR(c), rawRR("\x00", dnswire.TypeA, 1, 60, -1, "\xc6\x33\x64\x07")))
			r.query("the same, forged", shapeOther, pub(r), withRecords(plain(r, "www.foo.com", 0x4037), 0, 0, 2,
				txtRR(c), rawRR("\x00", dnswire.TypeA, 1, 60, -1, "\xc6\x33\x64\x07")))
			r.query("an opt owned by a name beside it", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4038), 0, 0, 2,
				rawRR("\x03FOO\xc0\x14", dnswire.TypeOPT, 4096, 0, -1, ""), txtRR(c)))
			r.query("an opt owned by a pointer to 00 beside it", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4039), 0, 0, 2,
				txtRR(c), rawRR("\xc0\x18", dnswire.TypeOPT, 4096, 0, -1, "")))
		}},
		{"modified/malformed", nil, func(r *shapeRun) {
			c := mint(r)
			q := func(id uint16) []byte { return withRecords(plain(r, "www.foo.com", id), 0, 0, 1, txtRR(c)) }
			resp := q(0x4040)
			resp[2] |= 0x80
			r.query("qr set", shapeClient, pub(r), resp)
			r.query("a trailing byte", shapeClient, pub(r), append(q(0x4041), 0))
			r.query("cut short", shapeClient, pub(r), q(0x4042)[:29+27])
			short, long := q(0x4043), q(0x4044)
			short[29+10]--
			long[29+10]++
			r.query("rdlength one short", shapeClient, pub(r), short)
			r.query("rdlength one long", shapeClient, pub(r), long)
			r.query("a string past the rdata", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4045), 0, 0, 1,
				rawRR("\x00", dnswire.TypeTXT, 1, 0, -1, "\x11"+string(c[:]))))
			r.query("arcount one over", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4046), 0, 0, 2, txtRR(c)))
			r.query("arcount one under", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4047), 0, 0, 0, txtRR(c)))
			r.query("the genuine one", shapeClient, pub(r), q(0x4048))
		}},
		{"modified/two-questions", nil, func(r *shapeRun) {
			// Re-recorded, RFC 9619: dropped as malformed, valid or not.
			two := func(id uint16, c cookie.Cookie) []byte {
				m := dnswire.NewQuery(id, dnswire.MustName("www.foo.com"), dnswire.TypeA)
				m.Questions = append(m.Questions, dnswire.Question{Name: dnswire.MustName("second.foo.com"), Type: dnswire.TypeMX, Class: dnswire.ClassINET})
				return withRecords(mustPack(r.t, m), 0, 0, 1, txtRR(c))
			}
			r.query("valid", shapeClient, pub(r), two(0x4050, mint(r)))
			r.query("forged", shapeOther, pub(r), two(0x4051, mint(r)))
			r.query("cookie request", shapeOther, pub(r), two(0x4052, cookie.Cookie{}))
		}},
		{"modified/rl2-dropped", func(cfg *RemoteConfig) {
			cfg.RL2 = ratelimit.Limiter2Config{PerSourceRate: 1, PerSourceBurst: 1, TrackedSources: 16}
		}, func(r *shapeRun) {
			r.query("valid", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4060), 0, 0, 1, txtRR(mint(r))))
			r.query("over the rate", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4061), 0, 0, 1, txtRR(mint(r))))
		}},
		{"modified/header-bits", nil, func(r *shapeRun) {
			q := withRecords(plain(r, "www.foo.com", 0x4070), 0, 0, 2, txtRR(mint(r)), optRR)
			q[3] |= 0x70
			r.query("z, ad and cd set", shapeClient, pub(r), q)
			q = withRecords(plain(r, "www.foo.com", 0x4071), 0, 0, 1, txtRR(mint(r)))
			q[2], q[3] = 0x7e, 0xff
			r.query("every bit but qr and rd", shapeClient, pub(r), q)
			q = withRecords(plain(r, "www.foo.com", 0x4072), 0, 0, 1, txtRR(cookie.Cookie{}))
			q[2], q[3] = 0x7e, 0xff
			r.query("cookie request, every bit but qr and rd", shapeClient, pub(r), q)
		}},
		{"modified/on-a-cookie-name", nil, func(r *shapeRun) {
			// The TXT cookie wins over the label: the name is forwarded as sent.
			r.query("both valid", shapeClient, pub(r), withRecords(nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x4080), 0, 0, 1, txtRR(mint(r))))
			r.query("valid label, forged txt", shapeClient, pub(r),
				withRecords(nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x4081), 0, 0, 1, txtRR(r.h.g.cfg.Auth.Mint(shapeOther.Addr()))))
			r.query("cookie request", shapeOther, pub(r), withRecords(nsQuery(r, shapeOther.Addr(), "www.foo.com", 0x4082), 0, 0, 1, txtRR(cookie.Cookie{})))
		}},
		{"modified/to-a-cookie-ip", withSubnet, func(r *shapeRun) {
			addr, err := r.h.g.ipc.Encode(mint(r))
			if err != nil {
				r.t.Fatal(err)
			}
			// The address is the credential there; the record is not looked at.
			r.query("forged txt to the cookie address", shapeClient, netip.AddrPortFrom(addr, 53),
				withRecords(plain(r, "www.foo.com", 0x4090), 0, 0, 1, txtRR(r.h.g.cfg.Auth.Mint(shapeOther.Addr()))))
			r.query("valid txt to a wrong address", shapeClient, netip.AddrPortFrom(mustAddr("203.0.113.200"), 53),
				withRecords(plain(r, "www.foo.com", 0x4091), 0, 0, 1, txtRR(mint(r))))
		}},
		{"modified/crossing-512", nil, func(r *shapeRun) {
			// 29 bytes of query and 11 of OPT: 472 of options make 512.
			big := func(n int) []byte { return rawRR("\x00", dnswire.TypeOPT, 4096, 0, -1, strings.Repeat("o", n)) }
			r.query("512 bytes without the cookie", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x40a0), 0, 0, 2, txtRR(mint(r)), big(472)))
			r.query("513", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x40a1), 0, 0, 2, txtRR(mint(r)), big(473)))
			r.query("513, forged", shapeOther, pub(r), withRecords(plain(r, "www.foo.com", 0x40a2), 0, 0, 2, txtRR(mint(r)), big(473)))
		}},
		{"cookie-request/grant", nil, func(r *shapeRun) {
			zero := txtRR(cookie.Cookie{})
			r.query("message 2", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4100), 0, 0, 1, zero))
			r.query("mixed case, from another source", shapeOther, pub(r), withRecords(upperName(plain(r, "www.foo.com", 0x4101)), 0, 0, 1, zero))
			r.query("with opts", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4102), 0, 0, 3, optRR, zero, optOptions))
			q := withRecords(plain(r, "www.foo.com", 0x4103), 0, 0, 1, zero)
			q[2] &^= 1
			q[27], q[28] = 0, 3
			r.query("rd clear, class CH", shapeClient, pub(r), q)
			r.query("out of zone", shapeClient, pub(r), withRecords(plain(r, "www.foo.org", 0x4104), 0, 0, 1, zero))
			r.query("the root", shapeClient, pub(r), withRecords(plain(r, ".", 0x4105), 0, 0, 1, zero))
			r.query("class CH, a ttl, a second string", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4106), 0, 0, 1,
				rawRR("\x00", dnswire.TypeTXT, 3, 7, -1, "\x10"+string(make([]byte, 16))+"\x01x")))
		}},
		{"cookie-request/rl1-dropped", func(cfg *RemoteConfig) {
			cfg.RL1 = ratelimit.DefaultLimiter1Config()
			cfg.RL1.PerSourceRate, cfg.RL1.PerSourceBurst = 1, 2
		}, func(r *shapeRun) {
			for i := 0; i < 3; i++ {
				r.query(fmt.Sprintf("message 2, #%d", i+1), shapeClient, pub(r), withRecords(plain(r, "www.foo.com", uint16(0x4110+i)), 0, 0, 1, txtRR(cookie.Cookie{})))
			}
			r.query("another source", shapeOther, pub(r), withRecords(plain(r, "www.foo.com", 0x4113), 0, 0, 1, txtRR(cookie.Cookie{})))
		}},
		{"cookie-request/draining", nil, func(r *shapeRun) {
			// Message 2 is not drain-gated, unlike the newcomer's grant.
			r.h.g.setLifecycle(LifecycleDraining)
			r.query("message 2", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4120), 0, 0, 1, txtRR(cookie.Cookie{})))
			r.query("valid cookie", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0x4121), 0, 0, 1, txtRR(mint(r))))
			r.note("drain-dropped: %d", r.h.g.LifecycleStats().DrainDropped)
		}},
		{"cookie-request/questions-crossing-512", nil, func(r *shapeRun) {
			// Each name is 241 bytes on the wire: two questions are 502 bytes of
			// message, 530 with the cookie record; three are over on their own.
			// Re-recorded, RFC 9619: two and three are dropped as malformed.
			long := func(c string) dnswire.Question {
				return dnswire.Question{Name: dnswire.MustName(strings.Repeat(strings.Repeat(c, 59)+".", 3) + strings.Repeat(c, 59)), Type: dnswire.TypeA, Class: dnswire.ClassINET}
			}
			req := func(id uint16, qs ...dnswire.Question) []byte {
				return withRecords(mustPack(r.t, &dnswire.Message{ID: id, Flags: dnswire.Flags{RD: true}, Questions: qs}), 0, 0, 1, txtRR(cookie.Cookie{}))
			}
			r.query("one long name", shapeClient, pub(r), req(0x4130, long("a")))
			r.query("two", shapeClient, pub(r), req(0x4131, long("a"), long("b")))
			r.query("three", shapeClient, pub(r), req(0x4132, long("a"), long("b"), long("c")))
		}},
		{"ns-cookie/opt-shapes", nil, func(r *shapeRun) {
			q := func(src netip.Addr, id uint16, recs ...[]byte) []byte {
				return withRecords(nsQuery(r, src, "www.foo.com", id), 0, 0, len(recs), recs...)
			}
			r.query("forged, with opt", shapeOther, pub(r), q(shapeClient.Addr(), 0x4200, optRR))
			r.query("mixed case, opt with options", shapeClient, pub(r), upperName(q(shapeClient.Addr(), 0x4201, optOptions)))
			r.upstream("nxdomain", ans(r), r.echo(dnswire.RCodeNXDomain))
			r.query("two opts", shapeClient, pub(r), q(shapeClient.Addr(), 0x4202, optRR, optOptions))
			r.query("an address after the question", shapeClient, pub(r), q(shapeClient.Addr(), 0x4203, rawRR("\xc0\x0c", dnswire.TypeA, 1, 60, -1, "\xc6\x33\x64\x07")))
			r.query("a trailing byte", shapeClient, pub(r), append(q(shapeClient.Addr(), 0x4204, optRR), 0))
		}},
		{"newcomer/opt-shapes", inFooCom, func(r *shapeRun) {
			q := func(name string, id uint16, recs ...[]byte) []byte {
				return withRecords(plain(r, name, id), 0, 0, len(recs), recs...)
			}
			r.query("mixed case, opt with options", shapeClient, pub(r), upperName(q("www.c5.foo.com", 0x4210, optOptions)))
			r.query("two opts", shapeOther, pub(r), q("www.c5.foo.com", 0x4211, optRR, optOptions))
			r.query("apex, mixed case", shapeClient, pub(r), upperName(q("foo.com", 0x4212, optRR)))
			r.query("out of zone, mixed case", shapeClient, pub(r), upperName(q("www.bar.com", 0x4213, optRR)))
			r.query("opt owned by a pointer", shapeOther, pub(r), q("www.c5.foo.com", 0x4214, rawRR("\xc0\x0c", dnswire.TypeOPT, 4096, 0, -1, "")))
			r.query("opt cut short", shapeOther, pub(r), q("www.c5.foo.com", 0x4215, optRR[:10]))
		}},
		{"passthrough/opt-shapes", relayOnly, func(r *shapeRun) {
			q := func(id uint16, recs ...[]byte) []byte {
				return withRecords(plain(r, "www.foo.com", id), 0, 0, len(recs), recs...)
			}
			big := func(n int) []byte { return rawRR("\x00", dnswire.TypeOPT, 4096, 0, -1, strings.Repeat("o", n)) }
			r.query("upper-case name, opt", shapeClient, pub(r), upperName(q(0xBF00, optRR)))
			r.query("opt owned by a pointer to 00", shapeClient, pub(r), q(0xBF01, rawRR("\xc0\x18", dnswire.TypeOPT, 4096, 0, -1, "")))
			r.query("opt owned by a name", shapeClient, pub(r), q(0xBF02, rawRR("\x03FOO\xc0\x14", dnswire.TypeOPT, 4096, 0, -1, "")))
			r.query("two opts, options", shapeClient, pub(r), q(0xBF03, optRR, optOptions))
			r.query("512 bytes", shapeClient, pub(r), q(0xBF04, big(472)))
			r.query("513 bytes", shapeClient, pub(r), q(0xBF05, big(473)))
			z := q(0xBF06, optRR)
			z[3] |= 0x10
			r.query("cd set, opt", shapeClient, pub(r), z)
			r.query("a root-owned address, not an opt", shapeClient, pub(r), q(0xBF07, rawRR("\x00", dnswire.TypeA, 1, 60, -1, "\xc6\x33\x64\x07")))
			r.query("opts in the answer and authority sections", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0xBF08), 1, 1, 0, optRR, optOptions))
			r.query("a trailing byte", shapeClient, pub(r), append(q(0xBF09, optRR), 0))
		}},
		{"upstream/at-max-datagram", relayOnly, func(r *shapeRun) {
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xBF10))
			// An opaque record pads the echo: 29 bytes of message, 11 of record.
			padded := func(size int) []byte {
				return r.rawResponse(dnswire.RCodeNoError, 0, 0, 1, rawRR("\x00", 99, 1, 0, -1, strings.Repeat("p", size-40)))
			}
			// Re-recorded, UpstreamMalformed: the datagram over the limit is
			// now counted.
			r.upstream("one byte over", ans(r), padded(dnswire.MaxDatagram+1))
			r.note("pending after it: %d", r.h.g.PendingEntries())
			r.upstream("at the limit", ans(r), padded(dnswire.MaxDatagram))
		}},

		// Recorded at 41964ee, the last commit that relayed a response with
		// records as a Message. The forward for www.foo.com puts the question
		// at 12 (c00c), foo.com at 16 (c010), com at 20 (c014), the name's end
		// at 24 (c018) and the first record at 29.
		{"relay/referral", relayOnly, func(r *shapeRun) {
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xC000))
			r.upstream("as ansd packs it", ans(r), referral(r))
			r.query("mixed-case query", shapeClient, pub(r), upperName(plain(r, "www.foo.com", 0xC001)))
			r.upstream("mixed case, nothing compressed", ans(r), upperName(r.rawResponse(dnswire.RCodeNoError, 0, 2, 3,
				rawRR("\x03WWW\x03foo\x03COM\x00", dnswire.TypeNS, 1, 3600, -1, "\x03ns1\x03FOO\x03com\x00"),
				rawRR("\x03www\x03foo\x03com\x00", dnswire.TypeNS, 1, 3600, -1, "\x03NS2\x03foo\x03com\x00"),
				rawRR("\x03Ns1\x03foo\x03com\x00", dnswire.TypeA, 1, 600, -1, "\xc6\x33\x64\x07"),
				rawRR("\x03nS2\x03foo\x03com\x00", dnswire.TypeA, 1, 900, -1, "\xc6\x33\x64\x08"),
				rawRR("\x03ns2\x03foo\x03CoM\x00", dnswire.TypeAAAA, 1, 900, -1, "\x20\x01\x0d\xb8\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x08"))))
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xC002))
			// The first NS owner is spelled out again at 29 (foo.com at 33); its
			// target, ns1 at 52, points at that second foo.com, and the pointer
			// itself sits at 56. The second record's owner points at the second
			// www.foo.com, its target, ns2 at 70, at the pointer at 56.
			r.upstream("another encoder's compression", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 2, 2,
				rawRR("\x03www\x03foo\x03com\x00", dnswire.TypeNS, 1, 3600, -1, "\x03ns1\xc0\x21"),
				rawRR("\xc0\x1d", dnswire.TypeNS, 1, 3600, -1, "\x03ns2\xc0\x38"),
				rawRR("\xc0\x34", dnswire.TypeA, 1, 600, -1, "\xc6\x33\x64\x07"),
				rawRR("\xc0\x46", dnswire.TypeA, 1, 900, -1, "\xc6\x33\x64\x08")))
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xC003))
			z := referral(r)
			z[3] |= 0x70
			r.upstream("z, ad and cd set", ans(r), z)
		}},
		{"relay/nxdomain-with-soa", relayOnly, func(r *shapeRun) {
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xC010))
			resp := r.forwarded().Response()
			resp.Flags.AA, resp.Flags.RCode = true, dnswire.RCodeNXDomain
			resp.Authority = []dnswire.RR{dnswire.NewRR(dnswire.MustName("foo.com"), 60, &dnswire.SOAData{
				MName: dnswire.MustName("ns1.foo.com"), RName: dnswire.MustName("host.foo.com"), Serial: 7, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 60})}
			r.upstream("as ansd packs it", ans(r), mustPack(r.t, resp))
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xC011))
			soa := r.rawResponse(dnswire.RCodeNXDomain, 0, 1, 0, rawRR("\x03FOO\x03com\x00", dnswire.TypeSOA, 1, 60, -1,
				"\x03ns1\x03foo\x03COM\x00\x04HOST\x03foo\x03com\x00\x00\x00\x00\x07\x00\x00\x0e\x10\x00\x00\x02\x58\x00\x01\x51\x80\x00\x00\x00\x3c"))
			soa[2] |= 0x04
			r.upstream("mixed case, nothing compressed", ans(r), soa)
		}},
		{"relay/direct-cname-and-address", withSubnet, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			r.upstream("answer", ans(r), answer(r))
			reply, err := dnswire.Unpack(r.h.io.buf[:r.h.io.n])
			if err != nil || len(reply.Answers) != 1 {
				r.t.Fatalf("no IP cookie in message 6: %v %v", reply, err)
			}
			cookieIP := netip.AddrPortFrom(reply.Answers[0].Data.(*dnswire.AData).Addr, 53)
			r.query("message 7", shapeClient, cookieIP, plain(r, "ftp.foo.com", 0xC020))
			resp := r.forwarded().Response()
			resp.Flags.AA = true
			web := dnswire.MustName("web.foo.com")
			resp.Answers = []dnswire.RR{
				dnswire.NewRR(resp.Questions[0].Name, 300, &dnswire.CNAMEData{Target: web}),
				dnswire.NewRR(web, 300, &dnswire.AData{Addr: mustAddr("198.51.100.10")}),
			}
			r.upstream("cname and address, as ansd packs them", ans(r), mustPack(r.t, resp))
			r.query("message 7 again", shapeClient, cookieIP, upperName(plain(r, "ftp.foo.com", 0xC021)))
			direct := r.rawResponse(dnswire.RCodeNoError, 2, 0, 0,
				rawRR("\xc0\x0c", dnswire.TypeCNAME, 1, 300, -1, "\x03WEB\x03Foo\xc0\x14"),
				rawRR("\x03web\x03foo\x03com\x00", dnswire.TypeA, 1, 300, -1, "\xc6\x33\x64\x0a"))
			direct[2] |= 0x04
			r.upstream("mixed case, half compressed", ans(r), direct)
		}},
		{"relay/crossing-512", relayOnly, func(r *shapeRun) {
			// 29 bytes of message; the NS record packs into 18, spelled out it is
			// 36; an opaque record of 11 and its rdata pads: 454 make 512 packed.
			padded := func(n int) []byte {
				return r.rawResponse(dnswire.RCodeNoError, 0, 1, 1,
					rawRR("\x03www\x03foo\x03com\x00", dnswire.TypeNS, 1, 3600, -1, "\x03ns1\x03foo\x03com\x00"),
					rawRR("\x00", 99, 1, 0, -1, strings.Repeat("p", n)))
			}
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xC030))
			r.upstream("530 bytes that pack into 512", ans(r), padded(454))
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xC031))
			r.upstream("531 that pack into 513", ans(r), padded(455))
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xC032))
			r.upstream("512 as they lie", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 0, 1, rawRR("\x00", 99, 1, 0, -1, strings.Repeat("p", 472))))
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xC033))
			r.upstream("513 as they lie", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 0, 1, rawRR("\x00", 99, 1, 0, -1, strings.Repeat("p", 473))))
		}},
		{"relay/opt-and-other-types", relayOnly, func(r *shapeRun) {
			r.query("query with opt", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0xC040), 0, 0, 1, optRR))
			resp, err := dnswire.Unpack(referral(r))
			if err != nil {
				r.t.Fatal(err)
			}
			resp.Additional = append(resp.Additional, dnswire.RR{Name: dnswire.Root, Type: dnswire.TypeOPT, Class: 4096, Data: &dnswire.Raw{}})
			r.upstream("referral, opt last", ans(r), mustPack(r.t, resp))
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xC041))
			r.upstream("opt with options first, owned by a pointer to 00", ans(r), r.rawResponse(dnswire.RCodeNoError, 0, 1, 2,
				rawRR("\xc0\x0c", dnswire.TypeNS, 1, 3600, -1, "\x03ns1\xc0\x10"),
				rawRR("\xc0\x18", dnswire.TypeOPT, 1232, 0x8000, -1, "\x00\x0a\x00\x08\x01\x02\x03\x04\x05\x06\x07\x08"),
				rawRR("\xc0\x29", dnswire.TypeA, 1, 600, -1, "\xc6\x33\x64\x07")))
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xC042))
			// The MX target, mail at 43, is the TXT record's owner; type 99 is
			// opaque, and the letters in its rdata are not a name's.
			r.upstream("mx, txt, ptr, an unknown type", ans(r), r.rawResponse(dnswire.RCodeNoError, 4, 0, 0,
				rawRR("\xc0\x0c", dnswire.TypeMX, 1, 300, -1, "\x00\x0a\x04MAIL\xc0\x10"),
				rawRR("\xc0\x2b", dnswire.TypeTXT, 1, 300, -1, "\x05Hello\x00\x03FOO"),
				rawRR("\x04MAIL\x03foo\x03com\x00", dnswire.TypePTR, 1, 300, -1, "\x03WWW\xc0\x10"),
				rawRR("\x03FOO\xc0\x14", 99, 1, 300, -1, "\x03WWW\xc0\x10")))
		}},
		{"passthrough/records-with-names", relayOnly, func(r *shapeRun) {
			// A query is relayed whatever it carries: the names in its records
			// are folded and compressed like a response's.
			r.query("mixed case, nothing compressed", shapeClient, pub(r), withRecords(upperName(plain(r, "www.foo.com", 0xC050)), 1, 1, 1,
				rawRR("\x03www\x03FOO\x03com\x00", dnswire.TypeCNAME, 1, 300, -1, "\x03WEB\x03foo\x03com\x00"),
				rawRR("\x03foo\x03com\x00", dnswire.TypeNS, 1, 300, -1, "\x03ns1\x03foo\x03com\x00"),
				rawRR("\x03FOO\xc0\x14", dnswire.TypeOPT, 4096, 0, -1, "")))
			r.query("a pointer onto a pointer", shapeClient, pub(r), withRecords(plain(r, "www.foo.com", 0xC051), 0, 2, 0,
				rawRR("\xc0\x10", dnswire.TypeNS, 1, 300, -1, "\x03ns1\xc0\x1d"),
				rawRR("\xc0\x1d", dnswire.TypeNS, 1, 300, -1, "\x03ns2\xc0\x2d")))
		}},
		{"relay/ipv4-mapped-aaaa", relayOnly, func(r *shapeRun) {
			// ::ffff:198.51.100.7 is sixteen octets like any other: Unpack reads
			// them and Pack writes them, so the walk's re-encode and the codec's
			// (the second answer is over 512 bytes as it lies) both relay it.
			// Recorded on the handlers that first did, with this row.
			const mapped = "\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xff\xff\xc6\x33\x64\x07"
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xC060))
			r.upstream("answer", ans(r), r.rawResponse(dnswire.RCodeNoError, 1, 0, 0, rawRR("\xc0\x0c", dnswire.TypeAAAA, 1, 300, -1, mapped)))
			r.query("query", shapeClient, pub(r), plain(r, "www.foo.com", 0xC061))
			r.upstream("answer the codec truncates", ans(r), r.rawResponse(dnswire.RCodeNoError, 1, 0, 1,
				rawRR("\x03WWW\x03foo\x03com\x00", dnswire.TypeAAAA, 1, 300, -1, mapped),
				rawRR("\x00", 99, 1, 0, -1, strings.Repeat("p", 500))))
		}},
	}
}

// renderShapes runs every row and returns, per row, its transcript.
func renderShapes(t *testing.T, seen func(upstream bool, wire []byte)) (bodies []string) {
	for _, row := range shapeRows() {
		r := runShapeRow(t, row, seen)
		fmt.Fprintf(&r.out, "  stats: %s\n", nonZero(r.h.g.Stats()))
		pend := pendingDump(r.h.s)
		fmt.Fprintf(&r.out, "  pending: %d\n", len(pend))
		for _, p := range pend {
			fmt.Fprintf(&r.out, "    %s\n", p)
		}
		bodies = append(bodies, r.out.String())
	}
	return bodies
}

// runShapeRow drives one row through a fresh shard.
func runShapeRow(t testing.TB, row shapeRow, seen func(upstream bool, wire []byte)) *shapeRun {
	r := &shapeRun{t: t, name: row.name, seen: seen}
	r.h = newShardHarness(t, func(cfg *RemoteConfig) {
		cfg.Env = skewEnv{cfg.Env, &r.skew}
		cfg.Zone = dnswire.MustName("com")
		if row.cfg != nil {
			row.cfg(cfg)
		}
	})
	row.run(r)
	return r
}

func TestPipelineShapes(t *testing.T) {
	fed := map[string]bool{}
	bodies := renderShapes(t, func(_ bool, wire []byte) { fed[fmt.Sprintf("%x\n", wire)] = true })
	lines := make([]string, 0, len(fed))
	for l := range fed {
		lines = append(lines, l)
	}
	sort.Strings(lines)
	seeds := []byte(strings.Join(lines, ""))
	var got bytes.Buffer
	for i, row := range shapeRows() {
		fmt.Fprintf(&got, "== %s\n%s", row.name, bodies[i])
	}
	if *updateShapes {
		if err := os.WriteFile(shapesFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shapeSeedsFile, seeds, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if have, err := os.ReadFile(shapeSeedsFile); err != nil || !bytes.Equal(have, seeds) {
		t.Errorf("%s is not what the rows feed the shard (%v): rewrite it with -update-shapes", shapeSeedsFile, err)
	}
	want, err := os.ReadFile(shapesFile)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	row := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			row = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d differs from the recording (%s):\ngot  %s\nwant %s", shapesFile, i+1, row, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, recording has %d", shapesFile, len(gl), len(wl))
}

// TestUpstreamAnswerReachesOnlyItsClient: an upstream answer is spliced into
// the message 6 of the client whose query it answers, and goes no further.
// Client A's message 3 is answered by a forgery that passes the ID and echo
// checks, with a planted address; client B's message 7 for the same name is
// then forwarded like any verified query, and B gets the ANS's answer.
func TestUpstreamAnswerReachesOnlyItsClient(t *testing.T) {
	h := newShardHarness(t, func(cfg *RemoteConfig) { cfg.Subnet = shapeSubnet })
	a, b := mustAP("10.0.0.1:4444"), mustAP("10.0.0.2:4444")
	planted := []byte{192, 0, 2, 66}

	h.handle(Packet{Src: a, Dst: h.g.cfg.PublicAddr, Payload: h.nsQueryWire(t, a.Addr(), "www.foo.com", 0x51)})
	forged := appendAnswer(nil, h.up.buf[:h.up.n])
	copy(forged[len(forged)-4:], planted)
	h.s.handleUpstream(forged, h.g.cfg.ANSAddr)
	if h.io.to != a || h.io.buf[7] != 1 {
		t.Fatalf("A's message 6: to %v with %d answers, want %v with its IP cookie", h.io.to, h.io.buf[7], a)
	}

	cookieAddr, err := h.g.ipc.Encode(h.g.cfg.Auth.Mint(b.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	before := h.g.Stats()
	h.handle(Packet{Src: b, Dst: netip.AddrPortFrom(cookieAddr, 53), Payload: mustPack(t, dnswire.NewQuery(0x52, dnswire.MustName("www.foo.com"), dnswire.TypeA))})
	if st := h.g.Stats(); st.ForwardedToANS != before.ForwardedToANS+1 || st.RepliesToClient != before.RepliesToClient {
		t.Fatalf("B's message 7: forwarded %d, replied %d; want it forwarded and not answered",
			st.ForwardedToANS-before.ForwardedToANS, st.RepliesToClient-before.RepliesToClient)
	}
	h.s.handleUpstream(appendAnswer(nil, h.up.buf[:h.up.n]), h.g.cfg.ANSAddr)
	reply, err := dnswire.Unpack(h.io.buf[:h.io.n])
	if err != nil || h.io.to != b || reply.ID != 0x52 || len(reply.Answers) != 1 {
		t.Fatalf("B's message 10: to %v, %v, %v", h.io.to, reply, err)
	}
	if got := reply.Answers[0].Data.(*dnswire.AData).Addr; got != mustAddr("198.51.100.10") {
		t.Errorf("B was answered %v, want the ANS's 198.51.100.10", got)
	}
}
