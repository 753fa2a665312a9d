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

	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
	"dnsguard/internal/ratelimit"
)

// The shape table: every packet shape the pipeline distinguishes, driven
// through one shard with stub I/O, with the bytes it forwards, the bytes it
// replies, its counters and its NAT table written out per row. The expected
// text, testdata/pipeline_shapes.txt, was recorded from the materializing
// handlers (Unpack → Message → PackUDP, FastPathTTL 0) of the last commit
// that had them, 6962bd0, beside a wire fast path; it is not regenerated when
// the pipeline changes, only when a row is added. The verified cache must not
// change a byte of it: the table is replayed with the cache off and with a
// one-minute TTL. Only the cache's own counters differ, recorded per TTL.

const shapesFile = "testdata/pipeline_shapes.txt"

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

// shapeRun is one row's harness and transcript.
type shapeRun struct {
	t    *testing.T
	h    *shardHarness
	skew atomic.Int64
	out  strings.Builder
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
	r.step(label, func() { r.h.handle(Packet{Src: src, Dst: dst, Payload: append([]byte(nil), wire...)}) })
}

func (r *shapeRun) upstream(label string, from netip.AddrPort, wire []byte) {
	r.step(label, func() { r.h.s.handleUpstream(append([]byte(nil), wire...), from) })
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

func mustPack(t *testing.T, m *dnswire.Message) []byte {
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
	name := v.QNameWire()
	for i, c := range name {
		if c >= 'a' && c <= 'z' {
			name[i] = c - ('a' - 'A')
		}
	}
	return wire
}

// pendingDump renders the shard's NAT table in a form that does not depend
// on how an entry stores its questions.
func pendingDump(s *remoteShard) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for id, e := range s.pending {
		var fwdQ, q dnswire.Question
		if len(e.fwdWire) > 0 {
			fwdQ, _, _ = dnswire.UnpackQuestion(e.fwdWire)
		}
		if e.kind == pendChild { // only message 6 is built from the client's question
			q, _, _ = dnswire.UnpackQuestion(e.qwire)
		}
		out = append(out, fmt.Sprintf("id=%d kind=%d client=%v from=%v orig=%#04x up=%v expires=%v fwd=%v client-q=%v",
			id, e.kind, e.clientSrc, e.replyFrom, e.origID, e.upstream, e.expires, fwdQ, q))
	}
	sort.Strings(out)
	return out
}

// nonZero renders the non-zero fields of a counter struct, minus skip.
func nonZero(v any, skip string) string {
	rv := reflect.ValueOf(v)
	var parts []string
	for i := 0; i < rv.NumField(); i++ {
		if name := rv.Type().Field(i).Name; name != skip && rv.Field(i).Uint() != 0 {
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
			// A first label the view refuses (a byte ≥ 0x80 after the cookie).
			q := nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x123e)
			q[len(q)-4-len("\x03foo\x03com\x00")-1] = 0xE9
			r.query("latin-1 byte", shapeClient, pub(r), q)
			r.upstream("nxdomain", ans(r), r.echo(dnswire.RCodeNXDomain))
		}},
		{"ns-cookie/two-questions", nil, func(r *shapeRun) {
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
			r.query("to the cookie address, cached answer", shapeClient, cookieIP, plain(r, "www.foo.com", 0x3030))
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
			r.query("query", shapeClient, pub(r), mustPack(r.t, &dnswire.Message{ID: 0xBEF3}))
			r.upstream("echo", ans(r), r.echo(dnswire.RCodeNoError))
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
			// Unpack lowercases names as Unicode: U+212A KELVIN SIGN is a 'k'.
			// The echo compare is on decoded questions wherever the bytes are
			// not plain ASCII, so this echo is accepted as it always was.
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
			r.skew.Add(int64(r.h.g.cfg.PendingTimeout))
			r.upstream("after the timeout", ans(r), resp)
			r.upstream("again", ans(r), resp)
			verifiedForward(r, "www.foo.com")
			ref := referral(r)
			r.skew.Add(int64(r.h.g.cfg.PendingTimeout))
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
			r.upstream("garbage", ans(r), []byte{1, 2, 3})
			q := r.echo(dnswire.RCodeNXDomain)
			q[2] &^= 0x80
			r.upstream("a query", ans(r), q)
			ref = referral(r)
			r.upstream("truncated referral", ans(r), ref[:len(ref)-8])
			r.upstream("referral with a trailing byte", ans(r), append(referral(r), 0xff))
		}},
		{"upstream/fail-closed", func(cfg *RemoteConfig) {
			cfg.Health = HealthConfig{Enabled: true, TimeoutThreshold: 1}
		}, func(r *shapeRun) {
			verifiedForward(r, "www.foo.com")
			r.skew.Add(int64(r.h.g.cfg.PendingTimeout))
			r.step("sweep", func() { r.h.s.healthTick(r.h.g.now()) })
			r.query("breaker open", shapeClient, pub(r), nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x1240))
			r.skew.Add(int64(r.h.g.cfg.Health.Cooldown))
			r.step("probe", func() { r.h.s.healthTick(r.h.g.now()) })
			r.upstream("probe answered", ans(r), r.echo(dnswire.RCodeNoError))
			r.query("breaker closed", shapeClient, pub(r), nsQuery(r, shapeClient.Addr(), "www.foo.com", 0x1241))
		}},
	}
}

// renderShapes runs every row at the given cache TTL and returns, per row,
// the transcript that must not depend on the TTL and the cache's counters.
func renderShapes(t *testing.T, ttl time.Duration) (bodies, caches []string) {
	for _, row := range shapeRows() {
		r := &shapeRun{t: t}
		r.h = newShardHarness(t, func(cfg *RemoteConfig) {
			cfg.Env = skewEnv{cfg.Env, &r.skew}
			cfg.Zone = dnswire.MustName("com")
			cfg.FastPathTTL = ttl
			if row.cfg != nil {
				row.cfg(cfg)
			}
		})
		row.run(r)
		st := r.h.g.Stats.Load()
		fmt.Fprintf(&r.out, "  stats: %s\n", nonZero(st, "FastPathHits"))
		pend := pendingDump(r.h.s)
		fmt.Fprintf(&r.out, "  pending: %d\n", len(pend))
		for _, p := range pend {
			fmt.Fprintf(&r.out, "    %s\n", p)
		}
		bodies = append(bodies, r.out.String())
		caches = append(caches, strings.TrimSpace(fmt.Sprintf("FastPathHits=%d %s", st.FastPathHits, nonZero(r.h.g.eng.FastPath(), ""))))
	}
	return bodies, caches
}

func TestPipelineShapes(t *testing.T) {
	ttls := []time.Duration{0, time.Minute}
	var bodies, caches [][]string
	for _, ttl := range ttls {
		b, c := renderShapes(t, ttl)
		bodies, caches = append(bodies, b), append(caches, c)
	}
	var got bytes.Buffer
	for i, row := range shapeRows() {
		fmt.Fprintf(&got, "== %s\n%s", row.name, bodies[0][i])
		if bodies[1][i] != bodies[0][i] {
			t.Errorf("%s: the verified cache changes what the pipeline does:\nFastPathTTL %v:\n%s\nFastPathTTL %v:\n%s",
				row.name, ttls[0], bodies[0][i], ttls[1], bodies[1][i])
		}
		for k, ttl := range ttls {
			fmt.Fprintf(&got, "  cache@%v: %s\n", ttl, caches[k][i])
		}
	}
	if *updateShapes {
		if err := os.WriteFile(shapesFile, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
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
