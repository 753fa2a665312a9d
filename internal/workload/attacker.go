package workload

import (
	"errors"
	"fmt"
	"net/netip"
	"time"

	"dnsguard/internal/cookie"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/guard"
	"dnsguard/internal/netsim"
)

// AttackKind selects the spoofed payload.
type AttackKind int

// Attack kinds.
const (
	// AttackPlain floods ordinary queries from spoofed sources (the
	// Figure 5 attack against BIND, and Figure 7b's UDP flood against
	// the TCP proxy).
	AttackPlain AttackKind = iota + 1
	// AttackBadCookie floods queries carrying forged modified-DNS
	// cookies (the Figure 6 attack: spoofed requests "without the right
	// cookie" exercising the guard's check-and-drop path).
	AttackBadCookie
	// AttackBadNSLabel floods queries for forged fabricated names
	// (guessing the DNS-based cookie).
	AttackBadNSLabel
	// AttackRandomSub floods queries for pseudorandom subdomains of Zone
	// (random-subdomain "water torture": every name is distinct, so no
	// cache and no per-name state ever absorbs the load).
	AttackRandomSub
	// AttackKaminsky sweeps forged ANS responses across transaction IDs
	// at the guard's upstream socket, spoofing SpoofSrc (Kaminsky-style
	// poisoning against the guard↔ANS path).
	AttackKaminsky
)

// AttackerConfig parameterizes a spoofing flood source.
type AttackerConfig struct {
	// Host is the simulated machine originating the flood; spoofing
	// requires netsim's raw injection.
	Host *netsim.Host
	// Target is the victim address.
	Target netip.AddrPort
	// Rate is the flood rate in packets/second (the starting rate when
	// EndRate is set).
	Rate float64
	// EndRate, when positive, ramps the rate linearly from Rate to
	// EndRate over Duration (which must be set).
	EndRate float64
	// Kind selects the payload.
	Kind AttackKind
	// QName is the query name used in flood packets.
	QName dnswire.Name
	// Zone is the apex under which AttackRandomSub fabricates names.
	// Empty means QName.
	Zone dnswire.Name
	// SpoofPool bounds the number of distinct spoofed sources cycled
	// through. 0 means 65536.
	SpoofPool int
	// ChurnEvery, when positive, rotates the entire spoofed-source
	// population to a fresh disjoint pool on that period (catchment
	// churn: per-source state the victim built is abandoned mid-attack).
	ChurnEvery time.Duration
	// Seed keys the attacker's deterministic PRNG (random subdomains,
	// query IDs). Attackers with different seeds emit different streams.
	Seed uint64
	// Upstream locates the victim's ANS-facing socket for AttackKaminsky;
	// a func because the port exists only after the guard starts.
	Upstream func() netip.AddrPort
	// SpoofSrc is the forged source address AttackKaminsky writes on its
	// swept responses (the real ANS address for an on-path-knowledge
	// attacker, anything else to model a blind off-path one).
	SpoofSrc netip.AddrPort
	// Duration bounds the flood; 0 means until the simulation horizon.
	Duration time.Duration
}

const (
	// idSweepSpan bounds the transaction-ID range AttackKaminsky cycles
	// through: low IDs, where the guard's LIFO ID pool concentrates live
	// entries.
	idSweepSpan = 512
	// attackTick batches packet emission (one wakeup per tick).
	attackTick = time.Millisecond
)

// Attacker floods a target with spoofed DNS requests at a fixed rate.
type Attacker struct {
	cfg       AttackerConfig
	payload   []byte
	stopped   bool
	rng       uint64
	sweepID   int
	churnBase int

	// Sent counts emitted packets.
	Sent uint64
	// Churns counts source-population rotations (ChurnEvery).
	Churns uint64
}

// NewAttacker validates cfg and pre-builds the flood payload.
func NewAttacker(cfg AttackerConfig) (*Attacker, error) {
	if cfg.Host == nil || !cfg.Target.IsValid() || cfg.Rate <= 0 {
		return nil, errors.New("workload: AttackerConfig.Host, Target, Rate are required")
	}
	if cfg.Kind == 0 {
		cfg.Kind = AttackPlain
	}
	if cfg.QName == "" {
		cfg.QName = dnswire.MustName("www.foo.com")
	}
	if cfg.Zone == "" {
		cfg.Zone = cfg.QName
	}
	if cfg.SpoofPool <= 0 {
		cfg.SpoofPool = 65536
	}
	if cfg.Kind == AttackKaminsky && (cfg.Upstream == nil || !cfg.SpoofSrc.IsValid()) {
		return nil, errors.New("workload: AttackKaminsky requires Upstream and SpoofSrc")
	}
	a := &Attacker{cfg: cfg, rng: cfg.Seed}

	switch cfg.Kind {
	case AttackRandomSub:
		// Payload is fabricated per packet; nothing to pre-build.
		return a, nil
	case AttackKaminsky:
		// The swept payload is one forged answer with the ID patched per
		// emission: an authoritative A record planting the attacker's
		// address for a name of their choosing.
		q := dnswire.NewQuery(0, dnswire.MustName("evil.example"), dnswire.TypeA)
		resp := q.Response()
		resp.Flags.AA = true
		resp.Answers = []dnswire.RR{
			dnswire.NewRR(q.Question().Name, 300, &dnswire.AData{Addr: netip.MustParseAddr("203.0.113.1")}),
		}
		wire, err := resp.PackUDP(dnswire.MaxUDPSize)
		if err != nil {
			return nil, err
		}
		a.payload = wire
		return a, nil
	}

	q := dnswire.NewQuery(0xBAD, cfg.QName, dnswire.TypeA)
	switch cfg.Kind {
	case AttackBadCookie:
		var forged cookie.Cookie
		for i := range forged {
			forged[i] = byte(0xA0 + i)
		}
		guard.AttachCookie(q, forged, 0)
	case AttackBadNSLabel:
		name, err := cfg.QName.PrependLabel("pr00c0ffee")
		if err == nil {
			q.Questions[0].Name = name
		}
	}
	wire, err := q.PackUDP(dnswire.MaxUDPSize)
	if err != nil {
		return nil, err
	}
	a.payload = wire
	return a, nil
}

// Start spawns the flood proc.
func (a *Attacker) Start() {
	a.cfg.Host.Go("attacker", a.run)
}

// Stop ends the flood at the next tick.
func (a *Attacker) Stop() { a.stopped = true }

// rand steps the attacker's splitmix64 PRNG: deterministic per Seed, no
// global state, so same-seed campaigns replay bit-identically.
func (a *Attacker) rand() uint64 {
	a.rng += 0x9E3779B97F4A7C15
	z := a.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (a *Attacker) run() {
	env := a.cfg.Host
	start := env.Now()
	carry := 0.0
	spoofIdx := 0
	lastChurn := start
	for !a.stopped {
		now := env.Now()
		elapsed := now - start
		if a.cfg.Duration > 0 && elapsed >= a.cfg.Duration {
			return
		}
		if a.cfg.ChurnEvery > 0 && now-lastChurn >= a.cfg.ChurnEvery {
			lastChurn = now
			a.churnBase += a.cfg.SpoofPool
			a.Churns++
		}
		rate := a.cfg.Rate
		if a.cfg.EndRate > 0 && a.cfg.Duration > 0 {
			rate += (a.cfg.EndRate - a.cfg.Rate) * (elapsed.Seconds() / a.cfg.Duration.Seconds())
		}
		carry += rate * attackTick.Seconds()
		n := int(carry)
		carry -= float64(n)
		for i := 0; i < n; i++ {
			spoofIdx = (spoofIdx + 1) % a.cfg.SpoofPool
			a.emit(spoofIdx)
		}
		env.Sleep(attackTick)
	}
}

// emit sends one flood packet.
func (a *Attacker) emit(spoofIdx int) {
	switch a.cfg.Kind {
	case AttackKaminsky:
		id := uint16(a.sweepID)
		a.sweepID = (a.sweepID + 1) % idSweepSpan
		a.payload[0], a.payload[1] = byte(id>>8), byte(id)
		_ = a.cfg.Host.SendRaw(a.cfg.SpoofSrc, a.cfg.Upstream(), a.payload)
	case AttackRandomSub:
		name, err := a.cfg.Zone.PrependLabel(fmt.Sprintf("a%011x", a.rand()&0xFFFFFFFFFFF))
		if err != nil {
			name = a.cfg.Zone
		}
		q := dnswire.NewQuery(uint16(a.rand()), name, dnswire.TypeA)
		wire, err := q.PackUDP(dnswire.MaxUDPSize)
		if err != nil {
			return
		}
		_ = a.cfg.Host.SendRaw(a.spoofSource(spoofIdx), a.cfg.Target, wire)
	default:
		_ = a.cfg.Host.SendRaw(a.spoofSource(spoofIdx), a.cfg.Target, a.payload)
	}
	a.Sent++
}

// spoofSource picks the spoofed origin for one packet: the pool index plus
// the churn offset, so a churn rotates every source at once to addresses
// the victim has never seen.
func (a *Attacker) spoofSource(idx int) netip.AddrPort {
	v := a.churnBase + idx
	return netip.AddrPortFrom(
		netip.AddrFrom4([4]byte{172, byte(16 + v>>16), byte(v >> 8), byte(v)}),
		uint16(1024+idx%60000),
	)
}
