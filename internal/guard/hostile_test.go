package guard

import (
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi/netapitest"
)

// TestGuardSurvivesHostilePackets throws mutated, truncated, and garbage
// datagrams at the guard: nothing may panic, and nothing unverified may
// reach the ANS.
func TestGuardSurvivesHostilePackets(t *testing.T) {
	f := newLeafFixture(t, nil)
	attacker := f.net.AddHost("attacker", mustAddr("203.0.113.66"))
	rng := rand.New(rand.NewSource(99))

	base, _ := dnswire.NewQuery(7, dnswire.MustName("www.foo.com"), dnswire.TypeA).PackUDP(512)
	cookieQ, _ := dnswire.NewQuery(8, dnswire.MustName("pr0011223344www.foo.com"), dnswire.TypeA).PackUDP(512)

	f.run(t, func() {
		for i := 0; i < 500; i++ {
			var payload []byte
			switch i % 5 {
			case 0: // random garbage
				payload = make([]byte, rng.Intn(64))
				rng.Read(payload)
			case 1: // bit-flipped valid query
				payload = append([]byte(nil), base...)
				for j := 0; j < 1+rng.Intn(6); j++ {
					payload[rng.Intn(len(payload))] ^= byte(1 << rng.Intn(8))
				}
			case 2: // truncated valid query
				payload = base[:rng.Intn(len(base))]
			case 3: // forged cookie-name query, mutated
				payload = append([]byte(nil), cookieQ...)
				payload[rng.Intn(len(payload))] ^= 0xFF
			case 4: // response flag set (reflection bait)
				payload = append([]byte(nil), base...)
				payload[2] |= 0x80 // QR
			}
			src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{172, 16, byte(i >> 8), byte(i)}), 1234)
			dst := netip.AddrPortFrom(netip.AddrFrom4([4]byte{192, 0, 2, byte(1 + i%254)}), 53)
			_ = attacker.SendRaw(src, dst, payload)
		}
		f.sched.Sleep(time.Second)
		// A legitimate resolution must still work afterwards.
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("legit resolve after hostile barrage: %v", err)
		}
	})
	// The ANS saw only the one verified query path.
	if f.fooNS.Stats.UDPQueries > 2 {
		t.Errorf("ANS saw %d queries; hostile traffic leaked through", f.fooNS.Stats.UDPQueries)
	}
	if f.fooNS.Stats.Malformed != 0 {
		t.Errorf("ANS received %d malformed packets", f.fooNS.Stats.Malformed)
	}
}

// TestUpstreamQueryDroppedUnparsed: a datagram from the upstream address with
// QR clear is no response, whatever else it is — the pending question under
// the pending ID, a referral's worth of records, a name only Unpack reads,
// three bytes — and is dropped before a record is read: it counts as
// malformed and nothing else, the entry stays for the answer, and nothing is
// allocated.
func TestUpstreamQueryDroppedUnparsed(t *testing.T) {
	h := newShardHarness(t, func(cfg *RemoteConfig) { cfg.ActivationThreshold = 1e12 })
	query := mustPack(t, dnswire.NewQuery(0xBEEF, dnswire.MustName("www.foo.com"), dnswire.TypeA))
	h.handle(Packet{Src: mustAP("10.0.0.53:5555"), Dst: h.g.cfg.PublicAddr, Payload: query})
	fwd := append([]byte(nil), h.up.buf[:h.up.n]...)
	referral := appendReferral(nil, fwd)
	referral[2] &^= 0x80
	latin := append([]byte(nil), referral...)
	latin[13] = 0xE9
	for name, wire := range map[string][]byte{
		"the forward itself":       fwd,
		"a referral with qr clear": referral,
		"a name only unpack reads": latin,
		"three bytes":              fwd[:3],
	} {
		want := h.g.Stats()
		if n := testing.AllocsPerRun(10, func() { h.s.handleUpstream(wire, h.g.cfg.ANSAddr) }); n != 0 {
			t.Errorf("%s: dropping it allocates %.1f times, want 0", name, n)
		}
		want.UpstreamMalformed += 11 // AllocsPerRun's warm-up and its ten runs
		if st := h.g.Stats(); st != want || h.io.wrote != 0 || h.g.PendingEntries() != 1 {
			t.Errorf("%s: acted on, or not counted malformed: stats %+v, %d replies, %d pending", name, st, h.io.wrote, h.g.PendingEntries())
		}
	}
	h.s.handleUpstream(appendReferral(nil, fwd), h.g.cfg.ANSAddr)
	if h.io.wrote != 1 || h.g.PendingEntries() != 0 {
		t.Errorf("the response after them: %d replies, %d pending", h.io.wrote, h.g.PendingEntries())
	}
}

// TestGuardRestartRecovery kills the guard (losing all cookie and pending
// state) and brings up a replacement with a fresh key: clients recover by
// fetching new cookies, exactly the incremental-deployment property §V
// claims.
func TestGuardRestartRecovery(t *testing.T) {
	f := newLeafFixture(t, nil)
	f.run(t, func() {
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("first resolve: %v", err)
			return
		}
		// Kill the guard and replace it with one holding a different key.
		f.guard.Close()
		guardHost := f.net.AddHost("guard2", mustAddr("10.99.0.3"))
		guardHost.ClaimPrefix(netip.MustParsePrefix("192.0.2.0/24"))
		tap, err := guardHost.OpenTap()
		if err != nil {
			t.Errorf("tap: %v", err)
			return
		}
		var key [cookie.KeySize]byte
		key[0] = 0xEE
		g2, err := NewRemote(RemoteConfig{
			Env:        guardHost,
			IOs:        []PacketIO{tap},
			PublicAddr: mustAP("192.0.2.1:53"),
			ANSAddr:    mustAP("10.99.0.2:53"),
			Zone:       dnswire.MustName("foo.com"),
			Subnet:     netip.MustParsePrefix("192.0.2.0/24"),
			Fallback:   SchemeDNS,
			Auth:       mustOpen(cookie.Options{Key: &key}),
		})
		if err != nil {
			t.Errorf("NewRemote: %v", err)
			return
		}
		if err := g2.Start(); err != nil {
			t.Errorf("Start: %v", err)
			return
		}
		// The LRS's cached cookie addresses are now invalid; the stale
		// queries are dropped, the resolver times out, flushes, and the
		// new cookie dance succeeds.
		f.sched.Sleep(400 * time.Second) // expire the cached final answer
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err == nil {
			// Either the resolver recovered within its retries (fine)...
			return
		}
		// ...or its cache still points at the dead cookie: flush (a real
		// LRS's records expire) and retry.
		f.res.Cache().Flush()
		if _, err := f.res.Resolve(dnswire.MustName("www.foo.com"), dnswire.TypeA); err != nil {
			t.Errorf("resolve after guard restart: %v", err)
		}
	})
}

// TestGuardPendingTableBounded verifies the NAT table cannot be ballooned
// by a flood of valid-looking cookie queries that never complete.
func TestGuardPendingTableBounded(t *testing.T) {
	// Deliberately break the guard→ANS path so pending entries linger.
	f := newLeafFixture(t, func(c *RemoteConfig) {
		c.ANSAddr = mustAP("10.99.0.99:53") // nothing there
		c.pendingTimeout = 100 * time.Millisecond
	})
	auth := f.guard.cfg.Auth
	nc := cookie.NSCodec{}
	attacker := f.net.AddHost("zombies", mustAddr("203.0.113.80"))
	f.run(t, func() {
		// 6000 "verified" cookie queries from distinct real sources (a
		// zombie farm that did obtain cookies).
		for i := 0; i < 6000; i++ {
			src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{198, 18, byte(i >> 8), byte(i)}), 1234)
			fab, err := FabricateNSName(nc, auth.Mint(src.Addr()), dnswire.MustName("www.foo.com"))
			if err != nil {
				t.Errorf("fabricate: %v", err)
				return
			}
			q, _ := dnswire.NewQuery(uint16(i), fab, dnswire.TypeA).PackUDP(512)
			_ = attacker.SendRaw(src, mustAP("192.0.2.1:53"), q)
			f.sched.Sleep(20 * time.Microsecond)
		}
		f.sched.Sleep(time.Second)
	})
	if n := f.guard.PendingEntries(); n > 4096 {
		t.Errorf("pending table = %d entries, want bounded at 4096", n)
	}
	if f.guard.Stats().PendingDropped == 0 {
		t.Error("pending-table pressure never caused drops/reaping")
	}
}

// TestAutomaticKeyRotation runs the guard with a short rotation period and
// verifies that (a) rotations happen, (b) a cookie minted in generation g
// still verifies during generation g+1 and is rejected in g+2 — the
// paper's weekly schedule in miniature: every query pays its MAC, so no
// earlier verification carries a cookie past the ring, with the ignored
// FastPathTTL at 0 and at the rotation period.
func TestAutomaticKeyRotation(t *testing.T) {
	for _, ttl := range []time.Duration{0, 30 * time.Second} {
		t.Run(fmt.Sprintf("FastPathTTL=%v", ttl), func(t *testing.T) { automaticKeyRotation(t, ttl) })
	}
}

func automaticKeyRotation(t *testing.T, fastPathTTL time.Duration) {
	f := newLeafFixture(t, func(c *RemoteConfig) {
		c.KeyRotation, c.FastPathTTL = 30*time.Second, fastPathTTL
	})
	auth := f.guard.cfg.Auth
	nc := cookie.NSCodec{}
	client := f.net.AddHost("client", mustAddr("198.18.0.9"))

	query := func(fab dnswire.Name) bool {
		ok := false
		f.sched.Go("q", func() {
			conn, err := client.ListenUDP(netip.AddrPort{})
			if err != nil {
				return
			}
			defer conn.Close()
			wire, _ := dnswire.NewQuery(1, fab, dnswire.TypeA).PackUDP(512)
			_ = conn.WriteTo(wire, mustAP("192.0.2.1:53"))
			if _, _, err := netapitest.Recv(conn, 200*time.Millisecond); err == nil {
				ok = true
			}
		})
		f.sched.Run(f.sched.Now() + time.Second)
		return ok
	}

	// Mint in generation 0.
	fab, err := FabricateNSName(nc, auth.Mint(client.Addr()), dnswire.MustName("www.foo.com"))
	if err != nil {
		t.Fatal(err)
	}
	if !query(fab) {
		t.Fatal("generation-0 cookie rejected in generation 0")
	}
	// Advance one rotation: still valid.
	f.sched.Run(f.sched.Now() + 35*time.Second)
	if f.guard.Stats().KeyRotations == 0 {
		t.Fatal("no rotation happened")
	}
	if !query(fab) {
		t.Fatal("generation-0 cookie rejected in generation 1 (grace period)")
	}
	// Advance a second rotation: stale.
	f.sched.Run(f.sched.Now() + 35*time.Second)
	if query(fab) {
		t.Fatal("generation-0 cookie accepted in generation 2")
	}
	if f.guard.Stats().CookieInvalid == 0 {
		t.Fatal("stale cookie not counted invalid")
	}
}

// TestRotationDuringBatchVerify: key changes race batch brackets. One
// goroutine changes the guard's keys 300 times, by Rotate and by AdoptKeys
// in turn (the fleet controller rotating the shared ring and pushing it),
// while the shard's worker runs brackets that present the client's cookie of
// every recent epoch, as a TXT record and as a name's label. BeginBatch
// snapshots the ring once, so within a bracket every verdict on an epoch's
// cookie is the same, whichever form carries it and however the rotations
// fall; a cookie minted under the snapshot's epoch or the one
// before verifies, and no other does. The worker cannot see which ring a
// bracket took, only the epochs before and after BeginBatch that bound it, so
// the last two claims are checked for the epochs that bound decides. Run with
// -race -cpu 1,2,4.
func TestRotationDuringBatchVerify(t *testing.T) {
	h := newShardHarness(t, func(cfg *RemoteConfig) {
		cfg.RL2.PerSourceRate, cfg.RL2.PerSourceBurst, cfg.RL2.TrackedSources = 1, 1e12, 16
	})
	g, s, auth := h.g, h.s, h.g.cfg.Auth
	plain := mustPack(t, dnswire.NewQuery(9, dnswire.MustName("www.foo.com"), dnswire.TypeA))
	// minted[e] is the client's cookie of epoch e in both forms. The rotator
	// holds mu from before a key change until its cookie is recorded: whoever
	// saw epoch e published finds minted[e] once it has mu.
	var mu sync.Mutex
	minted := map[uint64][2][]byte{}
	record := func() {
		st := auth.State()
		c := mustOpen(cookie.Options{State: &st}).Mint(shapeClient.Addr())
		fab, err := FabricateNSName(g.nsc, c, dnswire.MustName("www.foo.com"))
		if err != nil {
			t.Error(err)
			return
		}
		named, err := dnswire.NewQuery(9, fab, dnswire.TypeA).Pack()
		if err != nil {
			t.Error(err)
			return
		}
		minted[st.Epoch] = [2][]byte{withRecords(plain, 0, 0, 1, txtRR(c)), named}
	}
	rotate := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		if i%2 == 0 {
			if err := auth.Rotate(); err != nil {
				t.Error(err)
			}
		} else {
			st := auth.State()
			ctl := mustOpen(cookie.Options{State: &st})
			if err := ctl.Rotate(); err != nil || !g.AdoptKeys(ctl.State()) {
				t.Errorf("adopting epoch %d: %v", ctl.Epoch(), err)
			}
		}
		record()
	}
	record()
	for i := 0; i < 3; i++ {
		rotate(i) // epochs 0 to 3: the checks below look three epochs back
	}
	// The worker paces the rotator, one key change a tick, so the 300 spread
	// over its brackets whatever the scheduler does; they still run beside it.
	tick, done := make(chan struct{}, 1), make(chan struct{})
	go func() {
		defer close(done)
		for i := 3; i < 303; i++ {
			<-tick
			rotate(i)
		}
	}()
	nudge := func() {
		select {
		case tick <- struct{}{}:
		default:
		}
		runtime.Gosched()
	}
	valid := func(wire []byte) bool {
		before := g.Stats().CookieValid
		s.HandlePacket(Packet{Src: shapeClient, Dst: g.cfg.PublicAddr, Payload: append([]byte(nil), wire...)})
		return g.Stats().CookieValid != before
	}
	brackets, decided, raced := 0, 0, 0
	for running := true; running; brackets++ {
		select {
		case <-done:
			running = false // one more bracket, against the last ring
		default:
		}
		nudge()
		e0 := auth.Epoch()
		s.BeginBatch(8)
		e1 := auth.Epoch()
		mu.Lock()
		var epochs [][2][]byte
		for e := e0 - 3; e <= e1; e++ {
			epochs = append(epochs, minted[e])
		}
		mu.Unlock()
		for i, forms := range epochs {
			e := e0 - 3 + uint64(i)
			verdict := valid(forms[0])
			nudge()
			if byLabel, again := valid(forms[1]), valid(forms[0]); byLabel != verdict || again != verdict {
				t.Fatalf("bracket begun between epochs %d and %d: epoch %d's cookie verifies %v as a record, %v as a label, %v as a record again",
					e0, e1, e, verdict, byLabel, again)
			}
			// The bracket's ring has an epoch in [e0, e1] and honours it and
			// the one before.
			switch {
			case e+1 >= e1 && e <= e0:
				decided++
				if !verdict {
					t.Fatalf("bracket begun between epochs %d and %d refuses epoch %d's cookie", e0, e1, e)
				}
			case e+1 < e0:
				decided++
				if verdict {
					t.Fatalf("bracket begun between epochs %d and %d honours epoch %d's cookie", e0, e1, e)
				}
			}
		}
		s.EndBatch()
		if auth.Epoch() != e0 {
			raced++
		}
		s.emptyPending() // nobody answers: make room for the next bracket's forwards
	}
	if st := g.Stats(); st.KeyRotations != 151 || auth.Epoch() != 303 || st.Malformed+st.RL2Dropped != 0 || st.PendingDropped != st.ForwardedToANS {
		t.Errorf("after 303 key changes, 151 of them adopted: epoch %d, %+v", auth.Epoch(), st)
	}
	t.Logf("%d brackets, %d with a key change inside, %d verdicts decided by the epochs around them", brackets, raced, decided)
	if raced == 0 {
		t.Error("no key change landed inside a bracket: nothing raced")
	}
}
