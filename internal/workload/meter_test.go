package workload

import (
	"testing"

	"dnsguard/internal/cookie"
	"dnsguard/internal/cpumodel"
	"dnsguard/internal/engine"
	"dnsguard/internal/guard"
	"dnsguard/internal/netapi"
)

// TestMeterKeepsCapabilities: the meter stands between the guard and its
// host, tap and upstream sockets, and takes none of what the engine and the
// guard probe them for away — bounded queues (QueueEnv) and cooperative
// scheduling on the Env, batch reads and writes on the tap and the sockets.
// A guard it cannot attribute every call of is refused.
func TestMeterKeepsCapabilities(t *testing.T) {
	w := newWorld()
	host := w.net.AddHost("guard", mustAddr("10.99.0.1"))
	tap, err := host.OpenTap()
	if err != nil {
		t.Fatal(err)
	}
	m := &GuardMeter{}
	env := meteredHost{host, m}
	if _, ok := any(env).(netapi.QueueEnv); !ok {
		t.Error("the metered Env is no QueueEnv")
	}
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
	c, err := env.ListenUDP(mustAP("10.99.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(netapi.BatchConn); !ok {
		t.Error("the metered upstream socket is no BatchConn")
	}

	cfg := guard.RemoteConfig{Env: host, IOs: []guard.PacketIO{tap}, Shards: 2, PublicAddr: mustAP("192.0.2.1:53"),
		ANSAddr: mustAP("10.99.0.2:53"), Auth: mustOpen(cookie.Options{Key: &[cookie.KeySize]byte{1}})}
	if _, _, err := MeterGuard(cfg, cpumodel.Default2006().Guard); err == nil {
		t.Error("a two-shard guard was metered")
	}
	cfg.Shards = 1
	if _, _, err := MeterGuard(cfg, cpumodel.Default2006().Guard); err != nil {
		t.Errorf("a one-shard guard on its host's tap: %v", err)
	}
}
