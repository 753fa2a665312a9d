package guard

import (
	"net/netip"
	"testing"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi/netapitest"
	"dnsguard/internal/ratelimit"
)

// TestAmplificationBounds measures the traffic amplification of each
// guard response to an unverified request — §III-G: at most 50% (24 bytes)
// for the DNS-based scheme, none for TC redirects and cookie responses.
// An unprotected server can amplify 10×; the guard's whole point is that a
// spoofed request cannot extract a big response.
func TestAmplificationBounds(t *testing.T) {
	f := newLeafFixture(t, nil)
	attacker := f.net.AddHost("attacker", mustAddr("203.0.113.66"))

	type probe struct {
		name    string
		build   func() *dnswire.Message
		maxGain float64
	}
	probes := []probe{
		{
			name:    "dns-based newcomer (fabricated NS)",
			build:   func() *dnswire.Message { return dnswire.NewQuery(1, dnswire.MustName("www.foo.com"), dnswire.TypeA) },
			maxGain: 1.5,
		},
		{
			name: "modified-dns cookie request",
			build: func() *dnswire.Message {
				q := dnswire.NewQuery(2, dnswire.MustName("www.foo.com"), dnswire.TypeA)
				AttachCookie(q, cookie.Cookie{}, 0)
				return q
			},
			maxGain: 1.05, // "message 2 and message 3 have the same size"
		},
	}
	for _, p := range probes {
		req, err := p.build().PackUDP(512)
		if err != nil {
			t.Fatal(err)
		}
		var respLen int
		f.sched.Go("probe", func() {
			conn, err := attacker.ListenUDP(netip.AddrPort{})
			if err != nil {
				return
			}
			defer conn.Close()
			_ = conn.WriteTo(req, mustAP("192.0.2.1:53"))
			payload, _, err := netapitest.Recv(conn, time.Second)
			if err != nil {
				return
			}
			respLen = len(payload)
		})
		f.sched.Run(f.sched.Now() + 5*time.Second)
		if respLen == 0 {
			t.Errorf("%s: no response", p.name)
			continue
		}
		// The paper accounts amplification on IP packet sizes ("the
		// minimum size of a DNS request is around 50 bytes (IP packet
		// size)"): add the 28-byte IPv4+UDP header to both directions.
		const hdr = 28
		gain := float64(respLen+hdr) / float64(len(req)+hdr)
		t.Logf("%s: %dB request → %dB response (%.2fx on the wire)", p.name, len(req)+hdr, respLen+hdr, gain)
		if gain > p.maxGain {
			t.Errorf("%s: amplification %.2fx exceeds the paper's %.2fx bound", p.name, gain, p.maxGain)
		}
	}
}

// TestTCRedirectNoAmplification checks the TCP scheme's redirect is not
// larger than the request.
func TestTCRedirectNoAmplification(t *testing.T) {
	f := newLeafFixture(t, func(c *RemoteConfig) { c.Fallback = SchemeTCP })
	attacker := f.net.AddHost("attacker", mustAddr("203.0.113.66"))
	req, _ := dnswire.NewQuery(3, dnswire.MustName("www.foo.com"), dnswire.TypeA).PackUDP(512)
	var respLen int
	f.run(t, func() {
		conn, _ := attacker.ListenUDP(netip.AddrPort{})
		defer conn.Close()
		_ = conn.WriteTo(req, mustAP("192.0.2.1:53"))
		payload, _, err := netapitest.Recv(conn, time.Second)
		if err != nil {
			return
		}
		respLen = len(payload)
	})
	if respLen == 0 {
		t.Fatal("no TC response")
	}
	if respLen > len(req) {
		t.Fatalf("TC redirect %dB > request %dB (amplification)", respLen, len(req))
	}
}

// TestZombieWithRealAddressIsRateLimited models §III-G's "attacker using
// public or zombie computers": the zombie legitimately obtains a cookie,
// then floods verified requests — Rate-Limiter2 must throttle it to the
// nominal per-host rate without affecting other requesters.
func TestZombieWithRealAddressIsRateLimited(t *testing.T) {
	f := newLeafFixture(t, func(c *RemoteConfig) {
		c.RL2 = ratelimit.Limiter2Config{PerSourceRate: 100, PerSourceBurst: 10, TrackedSources: 1024}
	})
	zombie := f.net.AddHost("zombie", mustAddr("198.18.0.7"))
	auth := f.guard.cfg.Auth
	nc := cookie.NSCodec{}

	f.run(t, func() {
		// The zombie computes its own valid cookie name (it controls its
		// host, so it can always complete the handshake legitimately).
		fab, err := FabricateNSName(nc, auth.Mint(zombie.Addr()), dnswire.MustName("www.foo.com"))
		if err != nil {
			t.Errorf("fabricate: %v", err)
			return
		}
		conn, _ := zombie.ListenUDP(netip.AddrPort{})
		defer conn.Close()
		// Flood 5000 verified requests over one second.
		q, _ := dnswire.NewQuery(1, fab, dnswire.TypeA).PackUDP(512)
		for i := 0; i < 5000; i++ {
			_ = conn.WriteTo(q, mustAP("192.0.2.1:53"))
			f.sched.Sleep(200 * time.Microsecond)
		}
		f.sched.Sleep(time.Second)
		// A different legitimate LRS is unaffected.
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("legit resolve during zombie flood: %v", err)
		}
	})
	st := f.guard.Stats()
	if st.RL2Dropped < 4000 {
		t.Errorf("RL2 dropped %d of 5000 zombie requests, want most", st.RL2Dropped)
	}
	// The ANS saw only the nominal rate (~110 allowed + the legit LRS).
	if f.fooNS.Stats.UDPQueries > 250 {
		t.Errorf("ANS saw %d queries; zombie must be throttled to the nominal rate", f.fooNS.Stats.UDPQueries)
	}
}

// TestSubnetSprayFalseNegativeFloor quantifies §III-G's worst-case false
// negative for the fabricated-IP variant: spraying the whole /24 gets
// through with probability ~1/R_y per packet.
func TestSubnetSprayFalseNegativeFloor(t *testing.T) {
	f := newLeafFixture(t, nil)
	attacker := f.net.AddHost("attacker", mustAddr("203.0.113.66"))
	const rounds = 20
	f.run(t, func() {
		q, _ := dnswire.NewQuery(9, dnswire.MustName("www.foo.com"), dnswire.TypeA).PackUDP(512)
		for r := 0; r < rounds; r++ {
			src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{198, 18, 1, byte(r)}), 1234)
			for y := 2; y < 255; y++ { // skip the public .1
				dst := netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, byte(y)}), 53)
				_ = attacker.SendRaw(src, dst, q)
			}
			f.sched.Sleep(10 * time.Millisecond)
		}
		f.sched.Sleep(time.Second)
	})
	total := rounds * 253
	passed := f.guard.Stats().CookieValid
	// Expected pass rate ≈ 2/254 per spray round (current + previous key
	// generation encodings) → about 2 per round. Allow generous slack but
	// require the floor to be roughly 1/R_y, not a hole.
	if passed > uint64(rounds*4) {
		t.Errorf("spray passed %d of %d (%.2f%%), far above the 1/R_y floor",
			passed, total, 100*float64(passed)/float64(total))
	}
	if f.guard.Stats().CookieInvalid < uint64(total)-uint64(rounds*4) {
		t.Errorf("invalid = %d of %d", f.guard.Stats().CookieInvalid, total)
	}
}
