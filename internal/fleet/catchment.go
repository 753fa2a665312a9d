// Package fleet is the anycast tier: N independent guard instances behind a
// deterministic ECMP/anycast front in netsim. The paper deploys one
// spoof-detection middlebox in front of one DNS server; production DNS is
// anycast, and six years of catchment measurement (Whac-A-Mole) show BGP
// churn constantly re-routes client populations between sites mid-attack.
// The fleet layer reproduces that failure mode on the virtual clock: a
// catchment map routes each client source to a site, scripted events (BGP
// flap, drain, site failure) shift it, and the fleet-shared cookie keyring
// lets the cold site re-admit moved verified clients without a re-challenge
// storm.
package fleet

import (
	"fmt"
	"math"
	"net/netip"
	"sync"
)

// Catchment deterministically maps client source addresses to sites using
// weighted rendezvous hashing: each (site, source) pair gets a uniform
// hash u in [0,1) and the site with the highest score -w/ln(u) wins. The
// construction has the minimal-disruption property anycast shows in
// practice — changing one site's weight only moves sources into or out of
// that site's catchment, never between two unaffected sites — so a scripted
// drain/restore cycle returns exactly the original map.
//
// Flap overrides model coarse BGP events: a flap claims a hash-selected
// fraction of *all* sources for one target site, overriding the rendezvous
// choice, the way a leaked or re-preferred route captures traffic
// regardless of the operator's weights. All methods are safe for concurrent
// use.
type Catchment struct {
	mu      sync.Mutex
	seed    uint64
	weights []float64 // current routing weight per site; <=0 removes the site
	initial []float64 // configured weights, for Restore
	flaps   []flapRule
	gen     uint64 // bumped on every routing change
}

// flapRule moves the sources with h(seed,src) < frac to site to.
type flapRule struct {
	seed uint64
	frac float64
	to   int
}

// NewCatchment creates a catchment over len(weights) sites. Weights are
// relative capacities (a site with weight 2 attracts twice the sources of a
// site with weight 1); non-positive weights leave the site out of the map
// until SetWeight raises them.
func NewCatchment(seed uint64, weights ...float64) *Catchment {
	if len(weights) == 0 {
		panic("fleet: NewCatchment needs at least one site")
	}
	return &Catchment{
		seed:    seed,
		weights: append([]float64(nil), weights...),
		initial: append([]float64(nil), weights...),
	}
}

// Sites returns the number of sites in the map.
func (c *Catchment) Sites() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.weights)
}

// Generation counts routing changes (weight updates, flaps, restores).
func (c *Catchment) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// SiteFor returns the site src routes to, or -1 when no site is routable
// (every weight zero — the fleet-wide outage case).
func (c *Catchment) SiteFor(src netip.Addr) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := addrKey(src)
	for _, f := range c.flaps {
		if f.to < len(c.weights) && c.weights[f.to] > 0 && h01(f.seed, key) < f.frac {
			return f.to
		}
	}
	best, bestScore := -1, math.Inf(-1)
	for i, w := range c.weights {
		if w <= 0 {
			continue
		}
		u := h01(c.seed^uint64(i)*0xD1B54A32D192ED03, key)
		score := -w / math.Log(u) // u in (0,1): ln(u) < 0, score > 0
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// SetWeight changes one site's routing weight. Weight 0 drains the site:
// its catchment redistributes to the remaining sites (and nothing else
// moves, per rendezvous hashing).
func (c *Catchment) SetWeight(site int, w float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mustSite(site)
	c.weights[site] = w
	c.gen++
}

// Flap registers a BGP-flap override: the hash-selected frac of all sources
// routes to site to, regardless of weights, until ClearFlaps or Restore.
// Each call uses a fresh hash (derived from the catchment seed and the
// routing generation), so successive flaps capture independent slices of
// the population.
func (c *Catchment) Flap(frac float64, to int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mustSite(to)
	c.gen++
	c.flaps = append(c.flaps, flapRule{
		seed: splitmix(c.seed ^ c.gen*0x9E3779B97F4A7C15),
		frac: frac,
		to:   to,
	})
}

// ClearFlaps withdraws every flap override; the weighted rendezvous map is
// authoritative again.
func (c *Catchment) ClearFlaps() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.flaps) > 0 {
		c.flaps = nil
		c.gen++
	}
}

// Restore returns one site to its configured weight (drain undo).
func (c *Catchment) Restore(site int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mustSite(site)
	c.weights[site] = c.initial[site]
	c.gen++
}

func (c *Catchment) mustSite(site int) {
	if site < 0 || site >= len(c.weights) {
		panic(fmt.Sprintf("fleet: site %d out of range [0,%d)", site, len(c.weights)))
	}
}

// addrKey folds an address into the 64-bit hash key.
func addrKey(src netip.Addr) uint64 {
	if src.Is4() || src.Is4In6() {
		b := src.As4()
		return uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
	}
	b := src.As16()
	var k uint64
	for i := 0; i < 16; i += 8 {
		k ^= uint64(b[i])<<56 | uint64(b[i+1])<<48 | uint64(b[i+2])<<40 | uint64(b[i+3])<<32 |
			uint64(b[i+4])<<24 | uint64(b[i+5])<<16 | uint64(b[i+6])<<8 | uint64(b[i+7])
	}
	return k
}

// splitmix is the splitmix64 finalizer, the repo-wide deterministic hash.
func splitmix(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// h01 hashes (seed, key) to a uniform float64 in (0,1): the zero output is
// nudged up so ln(u) stays finite.
func h01(seed, key uint64) float64 {
	u := float64(splitmix(seed^key)>>11) / (1 << 53)
	if u == 0 {
		u = 1.0 / (1 << 53)
	}
	return u
}
