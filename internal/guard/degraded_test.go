package guard

import (
	"fmt"
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netsim"
	"dnsguard/internal/resolver"
	"dnsguard/internal/tcpproxy"
	"dnsguard/internal/tcpsim"
	"dnsguard/internal/vclock"
	"dnsguard/internal/zone"
)

// Degraded-network torture suite: every guard scheme (DNS-cookie,
// TCP-fallback, modified-DNS) must keep resolving — and keep spoofed traffic
// off the ANS — while the WAN reorders, duplicates, corrupts, jitters, and
// drops packets. The paper's testbed only modelled clean loss; operational
// studies (Whac-A-Mole, root-DDoS layered defenses) show these richer
// delivery anomalies dominate during real attacks.

// tortureFaults is the acceptance-criteria policy: 10% loss + reordering +
// duplication + 2×RTT jitter, all at once. WAN RTT is 10 ms here.
func tortureFaults() netsim.Faults {
	return netsim.Faults{
		Loss:         0.10,
		Reorder:      0.10,
		ReorderDelay: 10 * time.Millisecond,
		Duplicate:    0.10,
		Jitter:       20 * time.Millisecond,
	}
}

// faultClasses are the individual fault dimensions, each exercised in
// isolation per scheme before the combined run.
var faultClasses = []struct {
	name string
	f    netsim.Faults
	// fwdOnly applies the policy only on the client→guard direction. Used
	// for corruption: a corrupted cookie reply is indistinguishable from a
	// differently-keyed valid one (MD5 output is opaque), so reverse-path
	// corruption poisons learned state — in reality the UDP checksum
	// discards those; forward corruption exercises the guard's own parser.
	fwdOnly bool
}{
	{name: "loss", f: netsim.Faults{Loss: 0.15}},
	{name: "reorder", f: netsim.Faults{Reorder: 0.5, ReorderDelay: 10 * time.Millisecond}},
	{name: "duplicate", f: netsim.Faults{Duplicate: 0.5}},
	{name: "corrupt", f: netsim.Faults{Corrupt: 0.2}, fwdOnly: true},
	{name: "jitter", f: netsim.Faults{Jitter: 20 * time.Millisecond}},
	{name: "combined", f: tortureFaults()},
}

// degradedFixture is one scheme's deployment with handles on the WAN-side
// hosts so fault policies can be installed on exactly the hostile path
// (guard↔ANS stays a clean LAN, as in the paper's Figure 5).
type degradedFixture struct {
	sched    *vclock.Scheduler
	net      *netsim.Network
	fooNS    *ans.Server
	guard    *Remote
	lrs      *netsim.Host
	attacker *netsim.Host
	res      *resolver.Resolver
	// lookup is the legitimate requester: tries attempts at www.foo.com,
	// nil when one of them is answered with its address.
	lookup func(tries int) error

	// wanPeers are the client-side hosts whose link to the guard crosses
	// the hostile WAN.
	wanPeers  []*netsim.Host
	guardHost *netsim.Host
}

// setWANFaults installs f on every client↔guard WAN direction (reverse
// direction skipped when fwdOnly).
func (f *degradedFixture) setWANFaults(pol netsim.Faults, fwdOnly bool) {
	for _, h := range append([]*netsim.Host{f.attacker}, f.wanPeers...) {
		f.net.SetFaults(h, f.guardHost, pol)
		if !fwdOnly {
			f.net.SetFaults(f.guardHost, h, pol)
		}
	}
}

// newDegradedDNS builds the DNS-cookie deployment (leaf guard, fabricated
// NS names + IP cookies).
func newDegradedDNS(t *testing.T, seed int64) *degradedFixture {
	t.Helper()
	sched := vclock.New(seed)
	network := netsim.New(sched, 5*time.Millisecond)
	f := &degradedFixture{sched: sched, net: network}

	ansHost := network.AddHost("foo-ans", mustAddr("10.99.0.2"))
	srv, err := ans.New(ans.Config{
		Env: ansHost, Addr: mustAP("10.99.0.2:53"),
		Zone: zone.MustParse(fooZoneText, dnswire.Root),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	f.fooNS = srv

	f.guardHost = network.AddHost("guard", mustAddr("10.99.0.1"))
	f.guardHost.ClaimPrefix(netip.MustParsePrefix("192.0.2.0/24"))
	network.SetLatency(f.guardHost, ansHost, 100*time.Microsecond)
	tap, err := f.guardHost.OpenTap()
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewRemote(RemoteConfig{
		Env:        f.guardHost,
		IOs:        []PacketIO{tap},
		PublicAddr: mustAP("192.0.2.1:53"),
		ANSAddr:    mustAP("10.99.0.2:53"),
		Zone:       dnswire.MustName("foo.com"),
		Subnet:     netip.MustParsePrefix("192.0.2.0/24"),
		Fallback:   SchemeDNS,
		Auth:       testAuth(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	f.guard = g

	f.lrs = network.AddHost("lrs", mustAddr("10.0.0.53"))
	f.wanPeers = []*netsim.Host{f.lrs}
	res, err := resolver.New(resolver.Config{
		Env:       f.lrs,
		RootHints: []netip.AddrPort{mustAP("192.0.2.1:53")},
		Timeout:   500 * time.Millisecond,
		Retries:   6,
		Backoff:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.res, f.lookup = res, f.resolveUnderFaults
	f.attacker = network.AddHost("attacker", mustAddr("203.0.113.66"))
	return f
}

// newDegradedTCP builds the TCP-fallback deployment (TC redirect + proxy
// with SYN cookies on the guard host).
func newDegradedTCP(t *testing.T, seed int64) *degradedFixture {
	t.Helper()
	sched := vclock.New(seed)
	network := netsim.New(sched, 5*time.Millisecond)
	f := &degradedFixture{sched: sched, net: network}

	ansHost := network.AddHost("foo-ans", mustAddr("10.99.0.2"))
	srv, err := ans.New(ans.Config{
		Env: ansHost, Addr: mustAP("10.99.0.2:53"),
		Zone: zone.MustParse(fooZoneText, dnswire.Root),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	f.fooNS = srv

	f.guardHost = network.AddHost("guard", mustAddr("10.99.0.1"))
	f.guardHost.ClaimAddr(mustAddr("192.0.2.1"))
	network.SetLatency(f.guardHost, ansHost, 100*time.Microsecond)
	tcpsim.Install(f.guardHost, tcpsim.Config{SYNCookies: true})
	tap, err := f.guardHost.OpenTap()
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewRemote(RemoteConfig{
		Env:        f.guardHost,
		IOs:        []PacketIO{tap},
		PublicAddr: mustAP("192.0.2.1:53"),
		ANSAddr:    mustAP("10.99.0.2:53"),
		Zone:       dnswire.MustName("foo.com"),
		Fallback:   SchemeTCP,
		Auth:       testAuth(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	f.guard = g

	// MaxDuration is raised from the 5×RTT default: under injected jitter
	// and retransmission a legitimate connection legitimately outlives
	// 50 ms. The 5×RTT cap itself is covered in internal/tcpproxy.
	p, err := tcpproxy.New(tcpproxy.Config{
		Env:         f.guardHost,
		Listen:      mustAP("192.0.2.1:53"),
		ANSAddr:     mustAP("10.99.0.2:53"),
		RTT:         10 * time.Millisecond,
		MaxDuration: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}

	f.lrs = network.AddHost("lrs", mustAddr("10.0.0.53"))
	tcpsim.Install(f.lrs, tcpsim.Config{})
	f.wanPeers = []*netsim.Host{f.lrs}
	res, err := resolver.New(resolver.Config{
		Env:       f.lrs,
		RootHints: []netip.AddrPort{mustAP("192.0.2.1:53")},
		Timeout:   1500 * time.Millisecond,
		Retries:   6,
		Backoff:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.res, f.lookup = res, f.resolveUnderFaults
	f.attacker = network.AddHost("attacker", mustAddr("203.0.113.66"))
	return f
}

// newDegradedModified builds the modified-DNS deployment of Figure 3: the
// remote guard in front of the ANS, with the DNS scheme (subnet included) as
// the fallback for queries that carry no cookie, and a requester on the LRS
// host running the scheme's other half.
func newDegradedModified(t *testing.T, seed int64) *degradedFixture {
	t.Helper()
	sched := vclock.New(seed)
	network := netsim.New(sched, 5*time.Millisecond)
	f := &degradedFixture{sched: sched, net: network}

	ansHost := network.AddHost("foo-ans", mustAddr("10.99.0.2"))
	srv, err := ans.New(ans.Config{
		Env: ansHost, Addr: mustAP("10.99.0.2:53"),
		Zone: zone.MustParse(fooZoneText, dnswire.Root),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	f.fooNS = srv

	f.guardHost = network.AddHost("remote-guard", mustAddr("10.99.0.1"))
	f.guardHost.ClaimPrefix(netip.MustParsePrefix("192.0.2.0/24"))
	network.SetLatency(f.guardHost, ansHost, 100*time.Microsecond)
	tap, err := f.guardHost.OpenTap()
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewRemote(RemoteConfig{
		Env:        f.guardHost,
		IOs:        []PacketIO{tap},
		PublicAddr: mustAP("192.0.2.1:53"),
		ANSAddr:    mustAP("10.99.0.2:53"),
		Zone:       dnswire.MustName("foo.com"),
		Subnet:     netip.MustParsePrefix("192.0.2.0/24"),
		Fallback:   SchemeDNS,
		Auth:       testAuth(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	f.guard = g

	f.lrs = network.AddHost("lrs", mustAddr("10.0.0.53"))
	f.wanPeers = []*netsim.Host{f.lrs}
	r := newRequester(t, f)
	f.lookup = func(tries int) error {
		_, err := r.lookup(dnswire.MustName("www.foo.com"), mustAddr("198.51.100.10"), tries)
		return err
	}
	f.attacker = network.AddHost("attacker", mustAddr("203.0.113.66"))
	return f
}

// spoofedFlood fires n spoofed queries at the guard's public address from
// distinct forged sources, spaced apart, from inside a proc.
func (f *degradedFixture) spoofedFlood(n int) {
	for i := 0; i < n; i++ {
		src := netip.AddrPortFrom(mustAddr(fmt.Sprintf("198.18.%d.%d", i/250, i%250+1)), 1024+uint16(i))
		q, err := dnswire.NewQuery(uint16(i+1), dnswire.MustName("www.foo.com"), dnswire.TypeA).Pack()
		if err != nil {
			panic(err)
		}
		_ = f.attacker.SendRaw(src, mustAP("192.0.2.1:53"), q)
		f.sched.Sleep(2 * time.Millisecond)
	}
}

// resolveUnderFaults attempts a resolution up to tries times and reports
// whether any attempt returned the expected A record.
func (f *degradedFixture) resolveUnderFaults(tries int) error {
	var lastErr error
	for i := 0; i < tries; i++ {
		res, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA)
		if err != nil {
			lastErr = err
			continue
		}
		for _, rr := range res.Answers {
			if a, ok := rr.Data.(*dnswire.AData); ok && a.Addr == mustAddr("198.51.100.10") {
				return nil
			}
		}
		lastErr = fmt.Errorf("wrong answers: %v", res.Answers)
	}
	return lastErr
}

// runDegraded executes one scheme × fault-class scenario: spoofed flood
// first (ANS must see zero queries), then legitimate resolution succeeds.
func runDegraded(t *testing.T, f *degradedFixture, pol netsim.Faults, fwdOnly bool) {
	t.Helper()
	f.setWANFaults(pol, fwdOnly)
	f.sched.Go("scenario", func() {
		f.spoofedFlood(200)
		f.sched.Sleep(2 * time.Second) // let stragglers (jitter, dups) land
		if got := f.fooNS.Stats.UDPQueries; got != 0 {
			t.Errorf("ANS saw %d UDP queries from a purely spoofed flood, want 0 (guard %+v)", got, f.guard.Stats())
		}
		if err := f.lookup(3); err != nil {
			t.Errorf("legit resolution failed under faults: %v (guard %+v)", err, f.guard.Stats())
		}
	})
	f.sched.Run(30 * time.Minute)
	if f.guard.Stats().Received == 0 {
		t.Error("guard saw no traffic — fixture is not routing through it")
	}
}

func TestDegradedDNSScheme(t *testing.T) {
	for i, fc := range faultClasses {
		t.Run(fc.name, func(t *testing.T) {
			runDegraded(t, newDegradedDNS(t, 1000+int64(i)), fc.f, fc.fwdOnly)
		})
	}
}

func TestDegradedTCPScheme(t *testing.T) {
	for i, fc := range faultClasses {
		t.Run(fc.name, func(t *testing.T) {
			runDegraded(t, newDegradedTCP(t, 2000+int64(i)), fc.f, fc.fwdOnly)
		})
	}
}

func TestDegradedModifiedScheme(t *testing.T) {
	for i, fc := range faultClasses {
		t.Run(fc.name, func(t *testing.T) {
			f := newDegradedModified(t, 3000+int64(i))
			runDegraded(t, f, fc.f, fc.fwdOnly)
			if f.guard.Stats().NewcomerGrants == 0 || f.guard.Stats().CookieValid == 0 {
				t.Errorf("no cookie granted and verified — the modified path was not taken (guard %+v)", f.guard.Stats())
			}
		})
	}
}

// TestDegradedPartitionRecovery covers the remaining fault class: a
// mid-resolution outage. A resolution started inside a 2-second partition
// must ride it out on the retry/backoff budget and complete right after the
// heal — no error surfaces to the client and no manual reset is needed.
func TestDegradedPartitionRecovery(t *testing.T) {
	f := newDegradedDNS(t, 4000)
	f.net.PartitionFor(f.lrs, f.guardHost, 100*time.Millisecond, 2*time.Second)
	f.sched.Go("scenario", func() {
		f.sched.Sleep(200 * time.Millisecond) // inside the outage
		start := f.sched.Now()
		if err := f.resolveUnderFaults(1); err != nil {
			t.Errorf("resolution did not survive the outage: %v (resolver %+v)", err, f.res.Stats)
			return
		}
		if waited := f.sched.Now() - start; waited < 1800*time.Millisecond {
			t.Errorf("resolved after %v, inside the outage window — partition not exercised", waited)
		}
	})
	f.sched.Run(30 * time.Minute)
	ls := f.net.LinkStats(f.lrs, f.guardHost)
	if ls.PartitionDrops == 0 {
		t.Error("partition never dropped anything — outage not exercised")
	}
	if f.res.Stats.Retries == 0 || f.res.Stats.Backoffs == 0 {
		t.Errorf("expected retries+backoffs to carry the query across the outage: %+v", f.res.Stats)
	}
}

// TestDegradedDuplicatedCookieReplies pins the handshake-tolerance claim
// directly: with every WAN datagram duplicated and heavily reordered, the
// DNS-cookie handshake must not double-spend state or confuse the guard —
// resolution succeeds and the guard discards the duplicate it did not use.
func TestDegradedDuplicatedCookieReplies(t *testing.T) {
	f := newDegradedDNS(t, 4100)
	f.setWANFaults(netsim.Faults{Duplicate: 1.0, Reorder: 0.5, ReorderDelay: 8 * time.Millisecond}, false)
	f.sched.Go("scenario", func() {
		if err := f.resolveUnderFaults(3); err != nil {
			t.Errorf("resolution failed with all datagrams duplicated: %v (guard %+v)", err, f.guard.Stats())
		}
	})
	f.sched.Run(30 * time.Minute)
	// Duplicated verified requests each get forwarded and answered — the
	// guard treats them independently (idempotent, like the real ANS), so
	// the duplicate surfaces as either a second forward or an upstream
	// stray, never as corrupted state.
	if f.guard.Stats().CookieValid == 0 {
		t.Error("no cookie ever verified — handshake did not complete")
	}
}
