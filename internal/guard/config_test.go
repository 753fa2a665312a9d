package guard

import (
	"errors"
	"math"
	"net/netip"
	"strings"
	"testing"

	"dnsguard/internal/dnswire"
	"dnsguard/internal/netapi"
	"dnsguard/internal/ratelimit"
	"dnsguard/internal/realnet"
	"dnsguard/internal/srctab"
)

func minimalRemoteConfig(env netapi.Env, ios ...PacketIO) RemoteConfig {
	return RemoteConfig{
		Env:        env,
		IOs:        ios,
		Shards:     len(ios),
		PublicAddr: mustAP("192.0.2.1:53"),
		ANSAddr:    mustAP("127.0.0.1:5353"),
		Zone:       dnswire.MustName("foo.com"),
		Auth:       testAuth(),
	}
}

// A limiter config with some fields set keeps them and takes the defaults for
// the rest, field by field: setting only TrackedSources used to be discarded
// whole, and setting only PerSourceRate used to run with a zero global budget
// (every grant refused) and a one-source table.
func TestRemoteConfigPartialLimiters(t *testing.T) {
	d1, d2 := ratelimit.DefaultLimiter1Config(), ratelimit.DefaultLimiter2Config()
	with1 := func(f func(*ratelimit.Limiter1Config)) ratelimit.Limiter1Config { c := d1; f(&c); return c }
	with2 := func(f func(*ratelimit.Limiter2Config)) ratelimit.Limiter2Config { c := d2; f(&c); return c }
	for _, c := range []struct {
		name  string
		rl1   ratelimit.Limiter1Config
		rl2   ratelimit.Limiter2Config
		want1 ratelimit.Limiter1Config
		want2 ratelimit.Limiter2Config
	}{
		{name: "zero", want1: d1, want2: d2},
		{
			name:  "table sizes only",
			rl1:   ratelimit.Limiter1Config{TrackedSources: 8192},
			rl2:   ratelimit.Limiter2Config{TrackedSources: 64},
			want1: with1(func(c *ratelimit.Limiter1Config) { c.TrackedSources = 8192 }),
			want2: with2(func(c *ratelimit.Limiter2Config) { c.TrackedSources = 64 }),
		},
		{
			name:  "per-source rate only",
			rl1:   ratelimit.Limiter1Config{PerSourceRate: 7},
			rl2:   ratelimit.Limiter2Config{PerSourceRate: 9},
			want1: with1(func(c *ratelimit.Limiter1Config) { c.PerSourceRate = 7 }),
			want2: with2(func(c *ratelimit.Limiter2Config) { c.PerSourceRate = 9 }),
		},
		{
			name:  "global budget only",
			rl1:   ratelimit.Limiter1Config{GlobalRate: 1e12, GlobalBurst: 1e12},
			want1: with1(func(c *ratelimit.Limiter1Config) { c.GlobalRate, c.GlobalBurst = 1e12, 1e12 }),
			want2: d2,
		},
		{
			name:  "fully set",
			rl1:   ratelimit.Limiter1Config{PerSourceRate: 1, PerSourceBurst: 2, GlobalRate: 3, GlobalBurst: 4, TrackedSources: 5},
			rl2:   ratelimit.Limiter2Config{PerSourceRate: 6, PerSourceBurst: 7, TrackedSources: 8},
			want1: ratelimit.Limiter1Config{PerSourceRate: 1, PerSourceBurst: 2, GlobalRate: 3, GlobalBurst: 4, TrackedSources: 5},
			want2: ratelimit.Limiter2Config{PerSourceRate: 6, PerSourceBurst: 7, TrackedSources: 8},
		},
	} {
		cfg := minimalRemoteConfig(realnet.New(), newChanIO())
		cfg.RL1, cfg.RL2 = c.rl1, c.rl2
		g, err := NewRemote(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if g.cfg.RL1 != c.want1 {
			t.Errorf("%s: RL1 = %+v, want %+v", c.name, g.cfg.RL1, c.want1)
		}
		if g.cfg.RL2 != c.want2 {
			t.Errorf("%s: RL2 = %+v, want %+v", c.name, g.cfg.RL2, c.want2)
		}
		// What the bug cost: a newcomer's first grant, refused by a zero
		// global bucket.
		if !g.shards[0].rl1.AllowResponse(netip.MustParseAddr("203.0.113.9"), 0) {
			t.Errorf("%s: Rate-Limiter1 refuses the first newcomer", c.name)
		}
	}
}

// A negative activation threshold is refused. It used to turn detection off
// silently: the estimator never ran, and Active held only at exactly 0, so
// the guard relayed every packet unfiltered.
func TestRemoteConfigRefusesNegativeThreshold(t *testing.T) {
	cfg := minimalRemoteConfig(realnet.New(), newChanIO())
	cfg.ActivationThreshold = -1
	if _, err := NewRemote(cfg); err == nil {
		t.Fatal("NewRemote accepted ActivationThreshold -1")
	}
}

// A NaN or +Inf activation threshold is refused, naming the value. Both
// passed the negative check, and both turned detection off for good: no rate
// r makes r > NaN or r > +Inf true, so Active never became true.
func TestRemoteConfigRefusesNonFiniteThreshold(t *testing.T) {
	for _, c := range []struct {
		v    float64
		name string
	}{{math.NaN(), "NaN"}, {math.Inf(1), "+Inf"}} {
		cfg := minimalRemoteConfig(realnet.New(), newChanIO())
		cfg.ActivationThreshold = c.v
		if _, err := NewRemote(cfg); err == nil || !strings.Contains(err.Error(), "ActivationThreshold "+c.name) {
			t.Errorf("NewRemote(ActivationThreshold %v) = %v, want an error naming %s", c.v, err, c.name)
		}
	}
}

// A limiter table over srctab.MaxCap is refused, naming the bound, rather
// than clamped to a table smaller than the config says.
func TestRemoteConfigRefusesTablesOverMaxCap(t *testing.T) {
	for _, over := range []func(*RemoteConfig){
		func(c *RemoteConfig) { c.RL1.TrackedSources = srctab.MaxCap + 1 },
		func(c *RemoteConfig) { c.RL2.TrackedSources = srctab.MaxCap + 1 },
	} {
		cfg := minimalRemoteConfig(realnet.New(), newChanIO())
		over(&cfg)
		if _, err := NewRemote(cfg); err == nil || !strings.Contains(err.Error(), "MaxCap 32767") {
			t.Errorf("NewRemote(RL1 %d, RL2 %d) = %v, want an error naming MaxCap 32767", cfg.RL1.TrackedSources, cfg.RL2.TrackedSources, err)
		}
	}
	cfg := minimalRemoteConfig(realnet.New(), newChanIO())
	cfg.RL1.TrackedSources, cfg.RL2.TrackedSources = srctab.MaxCap, srctab.MaxCap
	if _, err := NewRemote(cfg); err != nil {
		t.Errorf("tables of MaxCap sources: %v", err)
	}
}

// bindFailEnv fails the failAt-th ListenUDP (counting from 0) and counts the
// upstream sockets it handed out that are still open.
type bindFailEnv struct {
	netapi.Env
	failAt, binds, open int
}

type countedConn struct {
	netapi.UDPConn
	env *bindFailEnv
}

func (c countedConn) Close() error {
	c.env.open--
	return c.UDPConn.Close()
}

func (e *bindFailEnv) ListenUDP(addr netip.AddrPort) (netapi.UDPConn, error) {
	if e.binds == e.failAt {
		return nil, errors.New("bind refused")
	}
	e.binds++
	c, err := e.Env.ListenUDP(netip.MustParseAddrPort("127.0.0.1:0"))
	if err != nil {
		return nil, err
	}
	e.open++
	return countedConn{c, e}, nil
}

// Start failing at shard k's upstream bind closes the k sockets already bound.
func TestRemoteStartClosesUpstreamsOnBindFailure(t *testing.T) {
	env := &bindFailEnv{Env: realnet.New(), failAt: 2}
	g, err := NewRemote(minimalRemoteConfig(env, newChanIO(), newChanIO(), newChanIO()))
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err == nil {
		t.Fatal("Start succeeded with a failing bind")
	}
	if env.binds != 2 || env.open != 0 {
		t.Errorf("after the failed Start: %d sockets bound, %d still open; want 2 and 0", env.binds, env.open)
	}
	g.Close()
	if env.open != 0 {
		t.Errorf("Close after the failed Start closed a socket twice: open = %d", env.open)
	}
}
