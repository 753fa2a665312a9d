package workload

import (
	"testing"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/cookie"
	"dnsguard/internal/cpumodel"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/engine"
	"dnsguard/internal/guard"
	"dnsguard/internal/netapi"
	"dnsguard/internal/tcpproxy"
	"dnsguard/internal/tcpsim"
	"dnsguard/internal/zone"
)

// TestMeterKeepsCapabilities: the meter stands between the guard and its
// host, tap and upstream sockets, and takes none of what the engine and the
// guard probe them for away — cooperative scheduling on the Env, batch reads
// and writes and the drop count on the tap — and meters every socket it
// opens. A guard it cannot attribute every call of is refused.
func TestMeterKeepsCapabilities(t *testing.T) {
	w := newWorld()
	host := w.net.AddHost("guard", mustAddr("10.99.0.1"))
	tap, err := host.OpenTap()
	if err != nil {
		t.Fatal(err)
	}
	m := &GuardMeter{}
	env := meteredHost{host, m}
	if got, want := netapi.Capabilities(env), netapi.Capabilities(host); got.Cooperative != want.Cooperative ||
		(got.ListenUDPReuse == nil) != (want.ListenUDPReuse == nil) {
		t.Errorf("capabilities %+v, the host's %+v", got, want)
	}
	var io guard.PacketIO = meteredTap{tap, m}
	if _, ok := io.(engine.BatchReader); !ok {
		t.Error("the metered tap reads no batches")
	}
	if _, ok := io.(engine.BatchWriter); !ok {
		t.Error("the metered tap writes no batches: the worker's flush would look like the upstream loop's writes")
	}
	if _, ok := io.(engine.Dropper); !ok {
		t.Error("the metered tap counts no drops: guard_engine_shed_new would read 0 under overload")
	}
	c, err := env.ListenUDP(mustAP("10.99.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(meteredConn); !ok {
		t.Error("the upstream socket the metered host opened is not metered")
	}

	cfg := guard.RemoteConfig{Env: host, IOs: []guard.PacketIO{tap, tap}, PublicAddr: mustAP("192.0.2.1:53"),
		ANSAddr: mustAP("10.99.0.2:53"), Auth: mustOpen(cookie.Options{Key: &[cookie.KeySize]byte{1}})}
	if _, _, err := MeterGuard(cfg, cpumodel.Default2006().Guard); err == nil {
		t.Error("a two-shard guard was metered")
	}
	cfg.IOs = cfg.IOs[:1]
	if _, _, err := MeterGuard(cfg, cpumodel.Default2006().Guard); err != nil {
		t.Errorf("a one-shard guard on its host's tap: %v", err)
	}
}

// TestServerMetersChargeTheirSockets sends TCP requests one at a time from a
// metered LRS through a metered TCP proxy to a metered BIND, and one query
// to a metered ANS simulator. Each meter has charged its host, and nothing
// else has: BIND BINDUDP for each query its socket read, the proxy each
// request's segments at the price one open connection makes them, the LRS
// LRSTCPClient for each request it sent over TCP, the simulator ANSSim for
// its query.
func TestServerMetersChargeTheirSockets(t *testing.T) {
	const n, segments = 4, 10
	costs := cpumodel.Default2006()
	w := newWorld()
	ansHost := w.net.AddHost("ans", mustAddr("10.99.0.2"))
	bind, bindM, err := MeterBIND(ans.Config{Env: ansHost, Addr: mustAP("10.99.0.2:53"), Zone: zone.MustParse(`
$ORIGIN foo.com.
@ 3600 IN SOA ns1 admin 1 7200 600 360000 60
@ 3600 IN NS ns1
www 300 IN A 198.51.100.10
`, dnswire.Root)}, costs.Server)
	if err != nil {
		t.Fatal(err)
	}
	proxyHost := w.net.AddHost("proxy", mustAddr("192.0.2.1"))
	tcpsim.Install(proxyHost, tcpsim.Config{})
	proxy, proxyM, err := MeterProxy(tcpproxy.Config{Env: proxyHost, Listen: mustAP("192.0.2.1:53"),
		ANSAddr: mustAP("10.99.0.2:53")}, segments, costs.Guard)
	if err != nil {
		t.Fatal(err)
	}
	lrs := w.net.AddHost("lrs", mustAddr("10.0.0.53"))
	tcpsim.Install(lrs, tcpsim.Config{})
	client, clientM, err := MeterClient(ClientConfig{Env: lrs, Kind: KindTCP, DirectTCP: true,
		Target: mustAP("192.0.2.1:53"), Wait: time.Second}, costs.Server)
	if err != nil {
		t.Fatal(err)
	}
	simHost := w.net.AddHost("sim", mustAddr("10.99.0.3"))
	sim, simM, err := MeterANSSim(ANSSimConfig{Env: simHost, Addr: mustAP("10.99.0.3:53")}, costs.Server)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewClient(ClientConfig{Env: lrs, Target: mustAP("10.99.0.3:53")})
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range []func() error{bind.Start, proxy.Start, sim.Start} {
		if err := start(); err != nil {
			t.Fatal(err)
		}
	}
	w.sched.Go("test", func() {
		for i := 0; i < n; i++ {
			if _, err := client.RunOnce(); err != nil {
				t.Errorf("TCP request %d: %v", i, err)
			}
			lrs.Sleep(time.Second) // the proxy has closed the connection before the next opens
		}
		if _, err := plain.RunOnce(); err != nil {
			t.Errorf("ANS simulator: %v", err)
		}
	})
	w.sched.Run(time.Minute)

	if bind.Stats.UDPQueries != n || proxy.Stats.Requests != n || client.Stats.Completed != n || sim.Served != 1 {
		t.Fatalf("BIND read %d queries, the proxy relayed %d, the LRS completed %d, the simulator served %d; want %d, %d, %d, 1",
			bind.Stats.UDPQueries, proxy.Stats.Requests, client.Stats.Completed, sim.Served, n, n, n)
	}
	relay := time.Duration(float64(segments*costs.Guard.TCPSegment) * (1 + costs.Guard.ConnTableSlope))
	for _, c := range []struct {
		what            string
		got, want, busy time.Duration
	}{
		{"BIND", bindM.Charged(), n * costs.Server.BINDUDP, ansHost.CPU().BusyTime()},
		{"the proxy", proxyM.Charged(), n * relay, proxyHost.CPU().BusyTime()},
		{"the LRS", clientM.Charged(), n * costs.Server.LRSTCPClient, lrs.CPU().BusyTime()},
		{"the ANS simulator", simM.Charged(), costs.Server.ANSSim, simHost.CPU().BusyTime()},
	} {
		if c.got != c.want || c.busy != c.want {
			t.Errorf("%s: its meter charged %v, its host's CPU was busy %v, want %v", c.what, c.got, c.busy, c.want)
		}
	}
	if _, _, err := MeterBIND(ans.Config{Env: netapi.Env(nil)}, costs.Server); err == nil {
		t.Error("a server off a netsim host was metered")
	}
}
