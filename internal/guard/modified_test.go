package guard

import (
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netapi/netapitest"
)

// requester is the LRS half of the modified scheme (§III-D), as the simulated
// requester in internal/workload runs it: the cookie exchange (message 2
// carries the all-zero cookie, message 3 the requester's own), then queries
// stamped with that cookie. It asks the guard at 192.0.2.1 from one socket on
// the fixture's LRS host.
type requester struct {
	conn netapi.UDPConn
	now  func() time.Duration
	c    cookie.Cookie
	id   uint16
}

func newRequester(t *testing.T, f *degradedFixture) *requester {
	t.Helper()
	conn, err := f.lrs.ListenUDP(netip.AddrPort{})
	if err != nil {
		t.Fatal(err)
	}
	return &requester{conn: conn, now: f.sched.Now}
}

// ask sends name's query carrying c up to six times, 500 ms apart, and
// returns the first answer under its ID.
func (r *requester) ask(name dnswire.Name, c cookie.Cookie) (*dnswire.Message, error) {
	r.id++
	q := dnswire.NewQuery(r.id, name, dnswire.TypeA)
	AttachCookie(q, c, 0)
	wire, err := q.PackUDP(dnswire.MaxUDPSize)
	if err != nil {
		return nil, err
	}
	for range 6 {
		if err := r.conn.WriteTo(wire, mustAP("192.0.2.1:53")); err != nil {
			return nil, err
		}
		for deadline := r.now() + 500*time.Millisecond; r.now() < deadline; {
			payload, _, err := netapitest.Recv(r.conn, deadline-r.now())
			if err != nil {
				break
			}
			if resp, err := dnswire.Unpack(payload); err == nil && resp.ID == r.id && resp.Flags.QR {
				return resp, nil
			}
		}
	}
	return nil, netapi.ErrTimeout
}

// lookup makes up to tries attempts to have name's stamped query answered
// with want, running the exchange first when it holds no cookie. A stamped
// query that goes unanswered, or is answered without want, drops the cookie:
// the next attempt starts with a fresh exchange.
func (r *requester) lookup(name dnswire.Name, want netip.Addr, tries int) (*dnswire.Message, error) {
	lastErr := errors.New("no tries")
	for range tries {
		if r.c.IsZero() {
			resp, err := r.ask(name, cookie.Cookie{})
			if err != nil {
				lastErr = fmt.Errorf("cookie exchange: %w", err)
				continue
			}
			c, _, _, ok := FindCookie(resp)
			if !ok || c.IsZero() {
				lastErr = fmt.Errorf("no cookie in the exchange's answer (rcode %v)", resp.Flags.RCode)
				continue
			}
			r.c = c
		}
		resp, err := r.ask(name, r.c)
		if err != nil {
			r.c, lastErr = cookie.Cookie{}, fmt.Errorf("stamped query: %w", err)
			continue
		}
		for _, rr := range resp.Answers {
			if a, ok := rr.Data.(*dnswire.AData); ok && a.Addr == want {
				return resp, nil
			}
		}
		r.c, lastErr = cookie.Cookie{}, fmt.Errorf("stamped query answered %v: %v", resp.Flags.RCode, resp.Answers)
	}
	return nil, lastErr
}

// TestModifiedSchemeEndToEnd: one exchange and one stamped query reach the
// ANS as one query without the cookie record (message 5 strips it).
func TestModifiedSchemeEndToEnd(t *testing.T) {
	f := newDegradedModified(t, 44)
	r := newRequester(t, f)
	f.sched.Go("test", func() {
		if _, err := r.lookup(dnswire.MustName("www.foo.com"), mustAddr("198.51.100.10"), 1); err != nil {
			t.Errorf("lookup: %v (guard %+v)", err, f.guard.Stats())
		}
	})
	f.sched.Run(30 * time.Second)
	if f.guard.Stats().CookieValid != 1 || f.guard.Stats().NewcomerGrants != 1 {
		t.Errorf("guard stats = %+v, want one grant and one valid cookie", f.guard.Stats())
	}
	if f.fooNS.Stats.Malformed != 0 || f.fooNS.Stats.UDPQueries != 1 {
		t.Errorf("ANS saw %d queries, %d malformed, want 1 and 0", f.fooNS.Stats.UDPQueries, f.fooNS.Stats.Malformed)
	}
}

// TestModifiedSchemeCacheHitLatencyOneRTT: a stamped query with a cookie in
// hand costs one round trip (Table II: 10.8 ms at RTT 10.9 ms, the best of
// all schemes). Ours: 10 ms RTT + 0.2 ms between the guard and the ANS.
func TestModifiedSchemeCacheHitLatencyOneRTT(t *testing.T) {
	f := newDegradedModified(t, 44)
	r := newRequester(t, f)
	var lat time.Duration
	f.sched.Go("test", func() {
		if _, err := r.lookup(dnswire.MustName("www.foo.com"), mustAddr("198.51.100.10"), 1); err != nil {
			t.Errorf("first: %v", err)
			return
		}
		start := f.sched.Now()
		if _, err := r.lookup(dnswire.MustName("mail.foo.com"), mustAddr("198.51.100.11"), 1); err != nil {
			t.Errorf("second: %v", err)
			return
		}
		lat = f.sched.Now() - start
	})
	f.sched.Run(30 * time.Second)
	if lat != 10200*time.Microsecond {
		t.Fatalf("cache-hit latency = %v, want 10.2ms (1 RTT)", lat)
	}
}

// TestModifiedSchemeSpoofedCookiesDropped: queries carrying forged cookies
// from spoofed sources are counted invalid and none reaches the ANS, while
// the requester's own stamped query still does.
func TestModifiedSchemeSpoofedCookiesDropped(t *testing.T) {
	f := newDegradedModified(t, 44)
	r := newRequester(t, f)
	f.sched.Go("test", func() {
		for i := 0; i < 200; i++ {
			q := dnswire.NewQuery(uint16(i), dnswire.MustName("www.foo.com"), dnswire.TypeA)
			AttachCookie(q, cookie.Cookie{0: byte(i), 15: 0xFF}, 0)
			src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{172, 16, 0, byte(i)}), 1234)
			_ = f.attacker.SendRaw(src, mustAP("192.0.2.1:53"), mustPack(t, q))
		}
		f.sched.Sleep(time.Second)
		if _, err := r.lookup(dnswire.MustName("www.foo.com"), mustAddr("198.51.100.10"), 1); err != nil {
			t.Errorf("legit lookup under a forged-cookie attack: %v", err)
		}
	})
	f.sched.Run(30 * time.Second)
	if f.guard.Stats().CookieInvalid != 200 {
		t.Errorf("invalid = %d, want 200", f.guard.Stats().CookieInvalid)
	}
	if f.fooNS.Stats.UDPQueries != 1 {
		t.Errorf("ANS queries = %d, want 1 (forged cookies filtered)", f.fooNS.Stats.UDPQueries)
	}
}
