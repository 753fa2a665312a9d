package guard

import (
	"bytes"
	"flag"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netsim"
	"dnsguard/internal/vclock"
	"dnsguard/internal/zone"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens")

const inlineGoldenPath = "testdata/inline_counters.golden"

// TestInlineDataplaneCounterGolden pins the shards=1/batch=1 inline dataplane
// byte-for-byte: it replays a fixed mixed-scheme netsim scenario and checks
// the guard's metrics export — every guard_remote_*, guard_engine_* and
// mitigation series — against a golden captured from the
// PRE-affine-ingest dataplane (before the per-shard counter restructuring).
// Every golden line must appear in the export with exactly its recorded
// value, so any change to admission order, counter placement, or metrics
// naming shows up as a diff; series added since the capture are reported but
// allowed (the pin is counter equality, not export immutability).
// Regenerate deliberately with `go test ./internal/guard -run Golden -update`.
func TestInlineDataplaneCounterGolden(t *testing.T) {
	sched := vclock.New(20260808)
	network := netsim.New(sched, 5*time.Millisecond)

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

	guardHost := network.AddHost("guard", mustAddr("10.99.0.1"))
	guardHost.ClaimPrefix(netip.MustParsePrefix("192.0.2.0/24"))
	network.SetLatency(guardHost, ansHost, 100*time.Microsecond)
	tap, err := guardHost.OpenTap()
	if err != nil {
		t.Fatal(err)
	}

	g, err := NewRemote(RemoteConfig{
		Env:           guardHost,
		IOs:           []PacketIO{tap},
		Shards:        1,
		Batch:         1,
		ShardHashSeed: 1,
		PublicAddr:    mustAP("192.0.2.1:53"),
		ANSAddr:       mustAP("10.99.0.2:53"),
		Zone:          dnswire.MustName("foo.com"),
		Subnet:        netip.MustParsePrefix("192.0.2.0/24"),
		Fallback:      SchemeDNS,
		Auth:          testAuth(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	client := network.AddHost("lrs-farm", mustAddr("203.0.113.50"))

	auth := g.cfg.Auth
	nc := cookie.NSCodec{}
	ipc := cookie.IPCodec{Subnet: netip.MustParsePrefix("192.0.2.0/24")}
	public := mustAP("192.0.2.1:53")
	www := dnswire.MustName("www.foo.com")
	rng := rand.New(rand.NewSource(42))

	const sources = 48
	sched.Go("replay", func() {
		for round := 0; round < 3; round++ {
			for i := 0; i < sources; i++ {
				src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{198, 18, 0, byte(10 + i)}), uint16(3000+i))
				var wire []byte
				var dst netip.AddrPort
				switch i % 4 {
				case 0: // DNS-based scheme: query the fabricated NS name.
					fab, err := FabricateNSName(nc, auth.Mint(src.Addr()), www)
					if err != nil {
						t.Errorf("fabricate: %v", err)
						return
					}
					wire, _ = dnswire.NewQuery(uint16(round*sources+i), fab, dnswire.TypeA).PackUDP(512)
					dst = public
				case 1: // IP-cookie scheme: query the fabricated address.
					addr, err := ipc.Encode(auth.Mint(src.Addr()))
					if err != nil {
						t.Errorf("ip encode: %v", err)
						return
					}
					wire, _ = dnswire.NewQuery(uint16(round*sources+i), www, dnswire.TypeA).PackUDP(512)
					dst = netip.AddrPortFrom(addr, 53)
				case 2: // Modified-DNS scheme: explicit cookie extension.
					q := dnswire.NewQuery(uint16(round*sources+i), www, dnswire.TypeA)
					AttachCookie(q, auth.Mint(src.Addr()), 3600)
					wire, _ = q.PackUDP(512)
					dst = public
				case 3: // Newcomer or deterministic garbage.
					if i%8 == 3 {
						wire, _ = dnswire.NewQuery(uint16(round*sources+i), www, dnswire.TypeA).PackUDP(512)
					} else {
						wire = make([]byte, 4+rng.Intn(48))
						rng.Read(wire)
					}
					dst = public
				}
				_ = client.SendRaw(src, dst, wire)
				sched.Sleep(75 * time.Microsecond)
			}
			sched.Sleep(50 * time.Millisecond)
		}
		sched.Sleep(2 * time.Second)
	})
	sched.Run(5 * time.Minute)

	reg := metrics.NewRegistry()
	g.MetricsInto(reg)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(inlineGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(inlineGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", inlineGoldenPath, len(got))
		return
	}

	want, err := os.ReadFile(inlineGoldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	missing, added := diffLines(want, got)
	if missing != "" {
		t.Errorf("inline dataplane diverged from the pre-rewrite golden "+
			"(series missing or with changed values).\n"+
			"If the change is intentional, regenerate with -update.\n%s", missing)
	}
	if added != "" {
		t.Logf("series added since the golden capture (allowed):\n%s", added)
	}

	// Sanity floor so an accidentally-empty golden can't silently pass.
	st := g.Stats.Load()
	if st.Received == 0 || st.CookieValid == 0 || st.ForwardedToANS == 0 {
		t.Errorf("scenario too weak to pin the pipeline: %+v", st)
	}
}

// diffLines splits the divergence between two metric dumps into golden lines
// absent from got (prefixed -, failures) and got lines absent from the
// golden (prefixed +, additive series).
func diffLines(want, got []byte) (missing, added string) {
	wantSet := map[string]bool{}
	for _, l := range bytes.Split(want, []byte("\n")) {
		wantSet[string(l)] = true
	}
	gotSet := map[string]bool{}
	for _, l := range bytes.Split(got, []byte("\n")) {
		gotSet[string(l)] = true
	}
	var miss, add bytes.Buffer
	for _, l := range bytes.Split(want, []byte("\n")) {
		if len(l) > 0 && !gotSet[string(l)] {
			miss.WriteString("-" + string(l) + "\n")
		}
	}
	for _, l := range bytes.Split(got, []byte("\n")) {
		if len(l) > 0 && !wantSet[string(l)] {
			add.WriteString("+" + string(l) + "\n")
		}
	}
	return miss.String(), add.String()
}
