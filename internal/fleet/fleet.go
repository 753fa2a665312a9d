package fleet

import (
	"errors"
	"fmt"
	"net/netip"
	"path/filepath"
	"reflect"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/guard"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netsim"
)

// Config parameterizes a simulated guard fleet.
type Config struct {
	// Net is the simulated network the fleet is built in. Required.
	Net *netsim.Network
	// Sites is the number of guard instances, of equal catchment capacity.
	// Required (>= 1).
	Sites int
	// Seed keys the catchment hash and the per-guard shard hash.
	Seed uint64
	// PublicAddr is the anycast service address every site answers for.
	// Required.
	PublicAddr netip.AddrPort
	// Subnet is the advertised prefix around PublicAddr; the front claims it
	// so client traffic lands on the ECMP hop. Required.
	Subnet netip.Prefix
	// ANSAddr is the protected origin server, shared by every site. Required.
	ANSAddr netip.AddrPort
	// Zone is the apex the origin serves.
	Zone dnswire.Name
	// Key seeds the fleet-shared keyring deterministically; the zero value
	// generates a random ring.
	Key [cookie.KeySize]byte
	// StateDir, when non-empty, gives every site a persisted keyring at
	// StateDir/site<i>.keyring: rotations and adoptions are written through,
	// and a rolling upgrade (EventUpgrade) reopens the file so cookies minted
	// before the restart keep verifying. Required for upgrades.
	StateDir string
	// Gossip switches keyring distribution from controller push to
	// peer-to-peer anti-entropy between the sites (see gossip.go).
	Gossip GossipConfig
}

// Site is one guard instance plus its host and private metrics registry.
type Site struct {
	// Host is the site's machine; the front injects routed traffic here.
	Host *netsim.Host
	// Guard is the site's spoof-detection instance. Replaced in place by a
	// rolling upgrade; read it through the Fleet in scheduler context.
	Guard *guard.Remote
	// Registry holds the site's guard_* series; the fleet roll-up merges
	// all of them under fleet_*. Replaced alongside Guard on upgrade.
	Registry *metrics.Registry
	// Retired accumulates the counters of instances closed by upgrades, so
	// per-site totals span restarts.
	Retired guard.RemoteStats

	// auth is the site's handle on the shared keyring (the Guard's
	// cfg.Auth); gossip reads full key states from it.
	auth *cookie.Authenticator
	// retiredRegs keeps the registries of upgraded-away instances so the
	// metrics roll-up spans restarts.
	retiredRegs []*metrics.Registry
}

// FrontStats counts the ECMP front's routing decisions.
type FrontStats struct {
	// Routed counts packets delivered to a site.
	Routed uint64
	// Blackholed counts packets dropped because the catchment had no
	// routable site or the selected site was down (failure before the BGP
	// withdrawal propagated).
	Blackholed uint64
	// Moved counts packets whose source had previously been routed to a
	// different site — the front-side measure of catchment churn.
	Moved uint64
}

// Fleet is N guards behind a deterministic anycast front sharing one cookie
// keyring. Create with New, then Start.
type Fleet struct {
	cfg        Config
	catch      *Catchment
	controller *cookie.Authenticator
	ctrlDown   bool // controller outage: rotations cannot be pushed or seeded through it
	front      *netsim.Host
	tap        *netsim.Tap
	sites      []*Site
	down       []bool
	lastSite   map[netip.Addr]int
	stopped    bool
	upgrades   uint64
	err        error // first asynchronous orchestration failure

	// gossip anti-entropy state (nil maps when disabled).
	gossipConns []netapi.UDPConn
	gstats      GossipStats
	seededAt    map[uint64]time.Duration
	convergedAt map[uint64]time.Duration

	// Stats is updated by the front proc as the fleet runs.
	Stats FrontStats
}

// New builds the fleet world: a front host claiming the anycast prefix, one
// guard host per site, and a shared keyring — the controller authenticator
// owns the ring and every guard gets an independent handle on the same key
// material and epoch schedule, so any site verifies a cookie minted by any
// other.
func New(cfg Config) (*Fleet, error) {
	if cfg.Net == nil || cfg.Sites < 1 {
		return nil, errors.New("fleet: Config.Net and Sites are required")
	}
	if !cfg.PublicAddr.IsValid() || !cfg.Subnet.IsValid() || !cfg.ANSAddr.IsValid() {
		return nil, errors.New("fleet: PublicAddr, Subnet, ANSAddr are required")
	}
	weights := make([]float64, cfg.Sites)
	for i := range weights {
		weights[i] = 1
	}
	if cfg.Zone == "" {
		cfg.Zone = dnswire.MustName("foo.com")
	}

	var key *[cookie.KeySize]byte // nil: random
	if cfg.Key != ([cookie.KeySize]byte{}) {
		key = &cfg.Key
	}
	controller, err := cookie.Open(cookie.Options{Key: key})
	if err != nil {
		return nil, err
	}

	f := &Fleet{
		cfg:         cfg,
		catch:       NewCatchment(splitmix(cfg.Seed^0xFEE7C47C), weights...),
		controller:  controller,
		down:        make([]bool, cfg.Sites),
		lastSite:    make(map[netip.Addr]int),
		seededAt:    make(map[uint64]time.Duration),
		convergedAt: make(map[uint64]time.Duration),
	}
	f.front = cfg.Net.AddHost("front", cfg.PublicAddr.Addr())
	f.front.ClaimPrefix(cfg.Subnet)
	f.front.SetQueueCap(1 << 16)
	tap, err := f.front.OpenTap()
	if err != nil {
		return nil, err
	}
	f.tap = tap

	ring := controller.State()
	for i := 0; i < cfg.Sites; i++ {
		// Site addresses sit in 10.64/16, outside the population's claimed
		// 10.128.0.0/9 pool: each guard's upstream socket binds the site
		// address, and ANS replies to it must route to the site, not into a
		// client prefix claim.
		host := cfg.Net.AddHost(fmt.Sprintf("site%d", i), siteAddr(i))
		host.SetQueueCap(1 << 16)
		// Every guard holds an independent handle on the shared ring; with a
		// StateDir that handle is persisted, so a site restart reopens the
		// same ring instead of orphaning the population's cookies.
		opts := cookie.Options{State: &ring}
		if cfg.StateDir != "" {
			opts.StateFile = f.statePath(i)
		}
		auth, err := cookie.Open(opts)
		if err != nil {
			return nil, fmt.Errorf("fleet: site %d keyring: %w", i, err)
		}
		site := &Site{Host: host, auth: auth}
		f.sites = append(f.sites, site)
		g, err := f.newGuard(i, auth)
		if err != nil {
			return nil, err
		}
		site.Guard = g
		site.Registry = metrics.NewRegistry()
	}
	return f, nil
}

// siteAddr is site i's host address.
func siteAddr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{10, 64, byte(i + 1), 1})
}

// statePath is site i's persisted-keyring path under Config.StateDir.
func (f *Fleet) statePath(i int) string {
	return filepath.Join(f.cfg.StateDir, fmt.Sprintf("site%d.keyring", i))
}

// newGuard constructs site i's guard instance on its existing host — used at
// fleet build time and again by rolling upgrades, so a replacement instance
// is configured exactly like the original.
func (f *Fleet) newGuard(i int, auth *cookie.Authenticator) (*guard.Remote, error) {
	host := f.sites[i].Host
	siteTap, err := host.OpenTap()
	if err != nil {
		return nil, err
	}
	g, err := guard.NewRemote(guard.RemoteConfig{
		Env:           host,
		IOs:           []guard.PacketIO{siteTap},
		Shards:        1, // inline per site: the fleet's parallelism is across sites
		Auth:          auth,
		ShardHashSeed: splitmix(f.cfg.Seed ^ uint64(i+1)*0x9E3779B97F4A7C15),
		PublicAddr:    f.cfg.PublicAddr,
		ANSAddr:       f.cfg.ANSAddr,
		Zone:          f.cfg.Zone,
		Subnet:        f.cfg.Subnet,
		Fallback:      guard.SchemeDNS,
	})
	if err != nil {
		return nil, err
	}
	f.sites[i].auth = auth
	return g, nil
}

// Start boots every guard, the front's routing proc, and (when enabled) the
// per-site gossip anti-entropy procs.
func (f *Fleet) Start() error {
	for i, s := range f.sites {
		if err := s.Guard.Start(); err != nil {
			return fmt.Errorf("fleet: site %d: %w", i, err)
		}
		s.Guard.MetricsInto(s.Registry)
	}
	if f.cfg.Gossip.Enabled {
		if err := f.startGossip(); err != nil {
			return err
		}
	}
	f.front.Go("fleet-front", f.route)
	return nil
}

// route is the ECMP front: read each packet arriving on the anycast prefix,
// ask the catchment which site owns the source, and inject it there. Sites
// that are down (failed, withdrawal not yet propagated) blackhole their
// catchment, exactly like anycast before the routes converge.
func (f *Fleet) route() {
	for !f.stopped {
		pkt, err := f.tap.Read(netapi.NoTimeout)
		if err != nil {
			return // tap closed
		}
		src := pkt.Src.Addr()
		site := f.catch.SiteFor(src)
		if site < 0 || f.down[site] {
			f.Stats.Blackholed++
			continue
		}
		if prev, ok := f.lastSite[src]; ok && prev != site {
			f.Stats.Moved++
		}
		f.lastSite[src] = site
		if f.front.InjectTo(f.sites[site].Host, pkt.Src, pkt.Dst, pkt.Payload) == nil {
			f.Stats.Routed++
		}
	}
}

// Catchment exposes the routing map for scripted events and assignment
// queries.
func (f *Fleet) Catchment() *Catchment { return f.catch }

// Auth returns the controller authenticator owning the fleet-shared keyring.
// Workload generators mint pre-provisioned client cookies from it; Rotate
// goes through the Fleet so every site adopts the new ring.
func (f *Fleet) Auth() *cookie.Authenticator { return f.controller }

// Sites returns the number of guard sites.
func (f *Fleet) Sites() int { return len(f.sites) }

// Site returns site i.
func (f *Fleet) Site(i int) *Site { return f.sites[i] }

// Rotate advances the fleet-shared keyring. Under controller push the
// controller rotates once and every guard adopts the published state, so the
// fleet's epoch schedule stays in lockstep and cross-site verification keeps
// costing one MD5. Under gossip the rotation is instead seeded at one live
// site and anti-entropy spreads it — the path that keeps working through a
// controller outage.
func (f *Fleet) Rotate() error {
	if f.cfg.Gossip.Enabled {
		return f.seedRotation()
	}
	if f.ctrlDown {
		return errors.New("fleet: controller down; push rotation unavailable")
	}
	if err := f.controller.Rotate(); err != nil {
		return err
	}
	f.push()
	return nil
}

func (f *Fleet) push() {
	st := f.controller.State()
	for _, s := range f.sites {
		s.Guard.AdoptKeys(st)
	}
}

// bestState returns the highest-epoch keyring anywhere in the fleet — what a
// recovering controller anti-entropies from.
func (f *Fleet) bestState() cookie.KeyState {
	best := f.controller.State()
	for _, s := range f.sites {
		if st := s.auth.State(); st.Epoch > best.Epoch {
			best = st
		}
	}
	return best
}

// fleetEpoch is the highest keyring epoch any component holds — the target a
// rejoining site must reach before it is readmitted to the catchment.
func (f *Fleet) fleetEpoch() uint64 {
	e := f.controller.Epoch()
	for _, s := range f.sites {
		if se := s.auth.State().Epoch; se > e {
			e = se
		}
	}
	return e
}

// Upgrades counts completed zero-downtime site upgrades.
func (f *Fleet) Upgrades() uint64 { return f.upgrades }

// Err reports the first failure from asynchronous orchestration (a rolling
// upgrade that could not rebuild its site). Check it after the run.
func (f *Fleet) Err() error { return f.err }

// SiteStats returns site i's counters, including instances retired by
// rolling upgrades.
func (f *Fleet) SiteStats(i int) guard.RemoteStats {
	st := f.sites[i].Guard.Stats.Load()
	addStats(&st, f.sites[i].Retired)
	return st
}

// addStats accumulates src's counters into dst field-wise. Reflection keeps
// retirement honest when RemoteStats grows new counters.
func addStats(dst *guard.RemoteStats, src guard.RemoteStats) {
	d := reflect.ValueOf(dst).Elem()
	s := reflect.ValueOf(src)
	for i := 0; i < d.NumField(); i++ {
		if d.Field(i).Kind() == reflect.Uint64 {
			d.Field(i).SetUint(d.Field(i).Uint() + s.Field(i).Uint())
		}
	}
}

// MetricsInto registers the fleet's series on r: front counters, catchment
// generation, the fleet_* roll-up merging every site's registry (counters
// sum, histograms merge bucket-wise), and per-site site<i>_* copies.
func (f *Fleet) MetricsInto(r *metrics.Registry) {
	r.FuncUint("fleet_sites", func() uint64 { return uint64(len(f.sites)) })
	r.FuncUint("fleet_front_routed", func() uint64 { return f.Stats.Routed })
	r.FuncUint("fleet_front_blackholed", func() uint64 { return f.Stats.Blackholed })
	r.FuncUint("fleet_front_moved", func() uint64 { return f.Stats.Moved })
	r.FuncUint("fleet_catchment_generation", f.catch.Generation)
	r.FuncUint("fleet_key_epoch", f.controller.Epoch)
	r.FuncUint("fleet_upgrades", func() uint64 { return f.upgrades })
	if f.cfg.Gossip.Enabled {
		f.gossipMetricsInto(r)
	}
	var all []*metrics.Registry
	for i, s := range f.sites {
		i := i
		r.FuncUint(fmt.Sprintf("site%d_key_epoch", i), func() uint64 {
			return f.sites[i].auth.State().Epoch
		})
		// Per-site and fleet-wide roll-ups span upgrades: registries of
		// retired instances keep contributing their (frozen) counters.
		regs := append(append([]*metrics.Registry(nil), s.retiredRegs...), s.Registry)
		metrics.MergedInto(r, fmt.Sprintf("site%d_", i), regs...)
		all = append(all, regs...)
	}
	metrics.MergedInto(r, "fleet_", all...)
}

// Close stops the front, the gossip procs, and every guard.
func (f *Fleet) Close() {
	f.stopped = true
	f.tap.Close()
	for _, c := range f.gossipConns {
		_ = c.Close()
	}
	for _, s := range f.sites {
		s.Guard.Close()
	}
}
