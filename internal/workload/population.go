package workload

import (
	"errors"
	"fmt"
	"math"
	"net/netip"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/guard"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netsim"
)

// Population models a web-scale client base as one aggregate packet source
// instead of per-client procs: Zipf source popularity over up to ~10^6
// addresses (the Whac-A-Mole measurements show anycast catchments are
// populated exactly like this — a few heavy eyeball resolvers and an
// enormous light tail), Poisson flow arrivals, and a splitmix64 PRNG so the
// same seed replays the identical packet stream. Every source is a
// *verified* client: it holds a live cookie (minted from the shared fleet
// keyring it bootstrapped against earlier, within the paper's week-long
// cookie TTL) and re-presents it as a fabricated-NS-name query, the
// DNS-based scheme's steady-state cache-hit path. That makes the population
// the right instrument for catchment-shift experiments, where the question
// is precisely "what happens to already-verified clients when they land on a
// cold site".
//
// The population's host claims popPrefix, so guard replies to any source
// address route back to its tap, where a classifier proc counts answers,
// referral grants, and refusals.

const (
	// popPort is the source port every population flow uses. One port keeps
	// the per-source identity purely in the address, which is what the
	// guard's verified-source records and the catchment hash key on.
	popPort = 33000
	// popTick batches flow emission (one wakeup per tick).
	popTick = 5 * time.Millisecond
)

var (
	// popPrefix is the address pool sources are drawn from.
	popPrefix = netip.MustParsePrefix("10.128.0.0/9")
	// popQName is the question each flow re-presents.
	popQName = dnswire.MustName("www.foo.com")
)

// PopulationConfig parameterizes a population generator.
type PopulationConfig struct {
	// Host is the simulated machine aggregating the population; it claims
	// popPrefix for reply routing and owns the tap. Required.
	Host *netsim.Host
	// Sources is the number of distinct client addresses (Zipf ranks), at
	// most what popPrefix holds. Required.
	Sources int
	// Rate is the aggregate flow arrival rate in flows/second. Required.
	Rate float64
	// Target is the fleet's public (anycast) service address. Required.
	Target netip.AddrPort
	// Auth mints each source's cookie — a handle on the fleet-shared
	// keyring, modeling clients that completed the bootstrap dance against
	// any site earlier. Required.
	Auth *cookie.Authenticator
	// Seed keys the population's PRNG.
	Seed uint64
	// Duration bounds emission; 0 means until the simulation horizon.
	Duration time.Duration
}

// PopulationStats counts population progress. The classifier counts every
// reply routed back to the population prefix: Answered is the verified fast
// path completing (answer records present), Granted is a referral grant (the
// guard treated the flow as a newcomer), Refused is any other DNS response.
type PopulationStats struct {
	FlowsSent uint64
	Answered  uint64
	Granted   uint64
	Refused   uint64
	Unparsed  uint64
}

// Population is the aggregate generator. Create with NewPopulation.
type Population struct {
	cfg     PopulationConfig
	tap     *netsim.Tap
	base    uint32    // first host address in Prefix
	harm    []float64 // harm[k] = sum_{i=1..k} 1/i; Zipf(θ=1) CDF numerator
	expNegL float64   // e^-λ for the per-tick Poisson draw
	rng     uint64
	nextID  uint16
	tmpl    map[int]*popTemplate
	stopped bool

	// Stats is updated as the population runs.
	Stats PopulationStats
}

// popTemplate is one source's pre-packed re-presentation query; the ID bytes
// are patched per emission (netsim clones payloads on send). Templates go
// stale two epochs after minting and are rebuilt.
type popTemplate struct {
	wire  []byte
	epoch uint64
}

// NewPopulation validates cfg, claims the source prefix on the host, and
// precomputes the Zipf tables.
func NewPopulation(cfg PopulationConfig) (*Population, error) {
	if cfg.Host == nil || !cfg.Target.IsValid() || cfg.Auth == nil {
		return nil, errors.New("workload: PopulationConfig.Host, Target, Auth are required")
	}
	if cfg.Sources <= 0 || cfg.Rate <= 0 {
		return nil, errors.New("workload: PopulationConfig.Sources and Rate must be positive")
	}
	if n := 1<<(32-popPrefix.Bits()) - 2; cfg.Sources > n {
		return nil, fmt.Errorf("workload: PopulationConfig.Sources over the %d addresses of %v", n, popPrefix)
	}
	p := &Population{
		cfg:  cfg,
		rng:  cfg.Seed,
		tmpl: make(map[int]*popTemplate),
	}
	b := popPrefix.Addr().As4()
	p.base = uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	// Zipf(θ=1) via the cumulative harmonic series and binary search: pure
	// float64 additions, so the draw sequence is bit-identical everywhere
	// (no transcendental library variance in the hot path).
	p.harm = make([]float64, cfg.Sources+1)
	for i := 1; i <= cfg.Sources; i++ {
		p.harm[i] = p.harm[i-1] + 1/float64(i)
	}
	p.expNegL = math.Exp(-cfg.Rate * popTick.Seconds())
	cfg.Host.ClaimPrefix(popPrefix)
	tap, err := cfg.Host.OpenTap()
	if err != nil {
		return nil, err
	}
	p.tap = tap
	return p, nil
}

// Addr returns the source address of Zipf rank r (1-based, rank 1 most
// popular). Catchment experiments enumerate this to compute exactly which
// sources a routing event moved.
func (p *Population) Addr(r int) netip.Addr {
	host := p.base + uint32(r)
	return netip.AddrFrom4([4]byte{byte(host >> 24), byte(host >> 16), byte(host >> 8), byte(host)})
}

// Sources returns the population size.
func (p *Population) Sources() int { return p.cfg.Sources }

// Start spawns the emitter and reply-classifier procs.
func (p *Population) Start() {
	p.cfg.Host.Go("population", p.run)
	p.cfg.Host.Go("population-rx", p.recv)
}

// Stop ends emission at the next tick and closes the tap.
func (p *Population) Stop() {
	p.stopped = true
	p.tap.Close()
}

// rand steps the population's splitmix64 PRNG.
func (p *Population) rand() uint64 {
	p.rng += 0x9E3779B97F4A7C15
	z := p.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// uniform returns a float64 in [0, 1) from the PRNG's top 53 bits.
func (p *Population) uniform() float64 {
	return float64(p.rand()>>11) / (1 << 53)
}

// poisson draws the number of flow arrivals in one tick (Knuth's product-of-
// uniforms method; λ = Rate·popTick is small by construction).
func (p *Population) poisson() int {
	k, prod := 0, 1.0
	for {
		prod *= p.uniform()
		if prod <= p.expNegL {
			return k
		}
		k++
	}
}

// zipfRank draws a source rank from the Zipf(θ=1) popularity distribution:
// invert the cumulative harmonic series by binary search.
func (p *Population) zipfRank() int {
	u := p.uniform() * p.harm[p.cfg.Sources]
	lo, hi := 1, p.cfg.Sources
	for lo < hi {
		mid := (lo + hi) / 2
		if p.harm[mid] > u {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

func (p *Population) run() {
	env := p.cfg.Host
	start := env.Now()
	for !p.stopped {
		if p.cfg.Duration > 0 && env.Now()-start >= p.cfg.Duration {
			return
		}
		for n := p.poisson(); n > 0; n-- {
			p.emit(p.zipfRank())
		}
		env.Sleep(popTick)
	}
}

// emit sends rank r's re-presentation flow: one query for the fabricated NS
// name carrying r's cookie, from r's address.
func (p *Population) emit(r int) {
	t := p.tmpl[r]
	if epoch := p.cfg.Auth.Epoch(); t == nil || epoch-t.epoch > 1 {
		src := p.Addr(r)
		fab, err := guard.FabricateNSName(cookie.NSCodec{}, p.cfg.Auth.Mint(src), popQName)
		if err != nil {
			return
		}
		wire, err := dnswire.NewQuery(0, fab, dnswire.TypeA).PackUDP(dnswire.MaxUDPSize)
		if err != nil {
			return
		}
		t = &popTemplate{wire: wire, epoch: epoch}
		p.tmpl[r] = t
	}
	p.nextID++
	t.wire[0], t.wire[1] = byte(p.nextID>>8), byte(p.nextID)
	if p.cfg.Host.SendRaw(netip.AddrPortFrom(p.Addr(r), popPort), p.cfg.Target, t.wire) == nil {
		p.Stats.FlowsSent++
	}
}

// recv classifies every reply routed back into the population prefix, one
// read of its one-slot slab at a time.
func (p *Population) recv() {
	var slot [1]netapi.Packet
	for {
		if _, err := p.tap.ReadBatch(slot[:], netapi.NoTimeout); err != nil {
			return // tap closed
		}
		msg, err := dnswire.Unpack(slot[0].Payload)
		if err != nil || !msg.Flags.QR {
			p.Stats.Unparsed++
			continue
		}
		switch {
		case len(msg.Answers) > 0:
			p.Stats.Answered++
		case hasNS(msg.Authority):
			p.Stats.Granted++
		default:
			p.Stats.Refused++
		}
	}
}

func hasNS(rrs []dnswire.RR) bool {
	_, ok := firstNSTarget(rrs)
	return ok
}

// MetricsInto registers the population's series on r under population_*.
func (p *Population) MetricsInto(r *metrics.Registry) {
	r.FuncUint("population_sources", func() uint64 { return uint64(p.cfg.Sources) })
	r.FuncUint("population_flows_sent", func() uint64 { return p.Stats.FlowsSent })
	r.FuncUint("population_answered", func() uint64 { return p.Stats.Answered })
	r.FuncUint("population_granted", func() uint64 { return p.Stats.Granted })
	r.FuncUint("population_refused", func() uint64 { return p.Stats.Refused })
	r.FuncUint("population_unparsed", func() uint64 { return p.Stats.Unparsed })
}
