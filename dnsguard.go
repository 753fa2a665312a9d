// Package dnsguard is the public API of this reproduction of "Spoof
// Detection for Preventing DoS Attacks against DNS Servers" (Guo, Chen,
// Chiueh — ICDCS 2006).
//
// It exposes the DNS Guard itself (the ANS-side and LRS-side firewall
// modules implementing the paper's three cookie schemes), the substrates it
// is built on (DNS wire codec, authoritative server, recursive resolver,
// zone data, rate limiters, cookie engine, TCP proxy), and the two execution
// environments everything runs in:
//
//   - a real-socket environment (NewEnv) for actual deployments — see the
//     cmd/ daemons;
//   - a deterministic discrete-event simulator (NewSimulation) used by the
//     experiment harness that regenerates every table and figure of the
//     paper — see internal/experiments and cmd/benchtab.
//
// # Quick start (simulated)
//
//	sim := dnsguard.NewSimulation(42, 5*time.Millisecond)
//	... // build hosts, a guarded ANS and a resolver; see examples/quickstart
//
// # Quick start (real sockets)
//
//	env := dnsguard.NewEnv()
//	auth, _ := dnsguard.OpenKeyringWith(dnsguard.KeyringOptions{})
//	g, _ := dnsguard.NewRemoteGuard(dnsguard.RemoteGuardConfig{ ... })
//
// The examples/ directory contains five runnable programs covering both
// modes, and DESIGN.md maps every paper section to the module implementing
// it.
package dnsguard

import (
	"io"
	"time"

	"dnsguard/internal/ans"
	"dnsguard/internal/cookie"
	"dnsguard/internal/cpumodel"
	"dnsguard/internal/dnswire"
	"dnsguard/internal/engine"
	"dnsguard/internal/guard"
	"dnsguard/internal/metrics"
	"dnsguard/internal/netapi"
	"dnsguard/internal/netsim"
	"dnsguard/internal/ratelimit"
	"dnsguard/internal/realnet"
	"dnsguard/internal/resolver"
	"dnsguard/internal/tcpproxy"
	"dnsguard/internal/tcpsim"
	"dnsguard/internal/vclock"
	"dnsguard/internal/zone"
)

// Environment -----------------------------------------------------------

// Env is the execution environment (clock + sockets) every component runs
// against; implemented by the real network and by simulated hosts.
type Env = netapi.Env

// NewEnv returns the real-socket environment backed by the operating
// system's network stack.
func NewEnv() Env { return realnet.New() }

// Caps describes the optional capabilities of an Env: SO_REUSEPORT-style
// sharded binds (nil where the Env has none; a simulated host splits its
// capture with OpenTaps instead) and cooperative scheduling (see the netapi
// capability matrix).
type Caps = netapi.Caps

// Capabilities inspects env once and returns its capability set; call it
// instead of type-asserting the optional netapi interfaces by hand.
func Capabilities(env Env) Caps { return netapi.Capabilities(env) }

// Simulation is the deterministic discrete-event network simulator used for
// experiments and tests.
type Simulation = netsim.Network

// SimHost is one simulated machine; it implements Env.
type SimHost = netsim.Host

// Scheduler is the simulator's virtual-time event scheduler.
type Scheduler = vclock.Scheduler

// NewSimulation creates a simulator with the given seed and default one-way
// link latency.
func NewSimulation(seed int64, oneWayLatency time.Duration) *Simulation {
	return netsim.New(vclock.New(seed), oneWayLatency)
}

// InstallTCP attaches the simulated TCP stack (with optional SYN cookies)
// to a simulated host so DialTCP/ListenTCP work on it.
func InstallTCP(h *SimHost, synCookies bool) {
	tcpsim.Install(h, tcpsim.Config{SYNCookies: synCookies})
}

// Fault injection ----------------------------------------------------------

// Faults is a per-link fault-injection policy for the simulator: packet
// loss, duplication, reordering, payload corruption and latency jitter, all
// drawn deterministically from the simulation seed. The zero value injects
// nothing and leaves event schedules bit-for-bit unchanged. Install with
// (*Simulation).SetFaults / SetLinkFaults / SetDefaultFaults; partitions are
// managed separately with Partition / Heal / PartitionFor.
type Faults = netsim.Faults

// LinkStats counts per-directed-link fault outcomes (sent, lost, duplicated,
// reordered, corrupted, partition drops); read with (*Simulation).LinkStats.
type LinkStats = netsim.LinkStats

// DNS protocol ------------------------------------------------------------

// Name is a canonical DNS domain name.
type Name = dnswire.Name

// Message is a DNS message; see the dnswire documentation for the codec.
type Message = dnswire.Message

// Question is one question record of a DNS message.
type Question = dnswire.Question

// ParseName validates and canonicalizes a domain name.
func ParseName(s string) (Name, error) { return dnswire.ParseName(s) }

// MustName is ParseName that panics on error.
func MustName(s string) Name { return dnswire.MustName(s) }

// Zone is authoritative DNS data.
type Zone = zone.Zone

// ParseZone reads an RFC 1035 master file.
func ParseZone(text string, defaultOrigin Name) (*Zone, error) {
	return zone.Parse(text, defaultOrigin)
}

// ZoneSet hosts multiple zones on one authoritative server.
type ZoneSet = ans.ZoneSet

// NewZoneSetErr builds a zone set, reporting invalid or duplicate zones as
// an error. Use this when zone data comes from configuration or user input.
func NewZoneSetErr(zones ...*Zone) (*ZoneSet, error) {
	return ans.NewZoneSet(zones...)
}

// MustZoneSet builds a zone set and panics on invalid or duplicate zones,
// mirroring MustName; for statically-known zone literals.
func MustZoneSet(zones ...*Zone) *ZoneSet {
	zs, err := ans.NewZoneSet(zones...)
	if err != nil {
		panic(err)
	}
	return zs
}

// Servers and resolvers ----------------------------------------------------

// ANSConfig configures an authoritative name server.
type ANSConfig = ans.Config

// ANS is an authoritative name server (UDP + DNS-over-TCP).
type ANS = ans.Server

// NewANS creates an authoritative server; call Start to serve.
func NewANS(cfg ANSConfig) (*ANS, error) { return ans.New(cfg) }

// ResolverConfig configures a recursive resolver.
type ResolverConfig = resolver.Config

// Resolver is an iterative (recursive-serving) resolver with a TTL cache —
// the paper's LRS.
type Resolver = resolver.Resolver

// NewResolver creates a resolver.
func NewResolver(cfg ResolverConfig) (*Resolver, error) { return resolver.New(cfg) }

// LRSConfig configures the recursive front end serving stub resolvers.
type LRSConfig = resolver.ServerConfig

// LRS is a recursive DNS server wrapping a Resolver.
type LRS = resolver.Server

// NewLRS creates an LRS front end.
func NewLRS(cfg LRSConfig) (*LRS, error) { return resolver.NewServer(cfg) }

// The guard -----------------------------------------------------------------

// Authenticator computes and verifies the guard's cookies
// (c = MAC(key76, source IP), §III-E — MD5 by default), with generation-bit
// key rotation.
type Authenticator = cookie.Authenticator

// MACScheme is the pluggable keyed-MAC behind cookie minting and
// verification. The paper-fidelity default is MD5; SipHash-2-4-128 is the
// cheaper modern alternative. A keyring is created under one scheme and
// keeps it for life (state files and fleet pushes carry a scheme tag) —
// switching schemes mid-ring would orphan every cookie the population holds.
type MACScheme = cookie.MACScheme

// MACSchemeByName resolves a scheme name from configuration: "" and "md5"
// are c = MD5(key76 ‖ source IP), the paper's formula; "siphash" is
// SipHash-2-4-128 keyed from the ring key, far cheaper per packet.
func MACSchemeByName(name string) (MACScheme, error) { return cookie.MACByName(name) }

// KeyringOptions parameterizes OpenKeyringWith: key material, restored
// state, persistent state file, follower mode, and MAC scheme in one struct.
type KeyringOptions = cookie.Options

// OpenKeyringWith is the authenticator constructor. The zero options mint a
// fresh random ring; StateFile loads or creates a persisted one, so a guard
// restarted on the same file keeps verifying every cookie the LRS population
// cached before the restart (DESIGN.md §11); StateFile with Follow opens a
// read handle on a fleet-shared ring, which mints and verifies with the
// owner's key material but cannot Rotate — the owner rotates, followers
// Reload, and any site verifies a cookie minted by any other (DESIGN.md
// §15); State restores a captured KeyState as an unbound in-memory handle.
func OpenKeyringWith(opts KeyringOptions) (*Authenticator, error) { return cookie.Open(opts) }

// KeyState is the keyring's serializable state: epoch plus both epoch keys.
type KeyState = cookie.KeyState

// Scheme selects how the guard bootstraps cookie-less requesters.
type Scheme = guard.Scheme

// Fallback schemes.
const (
	// SchemeDNS embeds cookies in fabricated NS names/addresses (§III-B).
	SchemeDNS = guard.SchemeDNS
	// SchemeTCP redirects requesters to TCP via truncation (§III-C).
	SchemeTCP = guard.SchemeTCP
)

// RemoteGuardConfig configures the ANS-side guard.
type RemoteGuardConfig = guard.RemoteConfig

// GuardHealthConfig selects the overload policy of upstream ANS failover: the
// per-shard circuit breakers over the ordered upstream list, which run when
// RemoteGuardConfig.ANSFallbacks is non-empty.
type GuardHealthConfig = guard.HealthConfig

// SupervisorConfig configures dataplane shard supervision: panic quarantine,
// per-shard restart, and the trip policy when a shard exhausts its restart
// budget.
type SupervisorConfig = engine.SupervisorConfig

// Trip policies for a shard that exhausts its restart budget.
const (
	// TripDrop sheds the tripped shard's traffic (fail-closed).
	TripDrop = engine.TripDrop
	// TripPass relays the tripped shard's traffic unfiltered (fail-open).
	TripPass = engine.TripPass
)

// RemoteGuard is the ANS-side DNS guard: the cookie checker, both rate
// limiters, and all three spoof-detection schemes (Figure 4).
type RemoteGuard = guard.Remote

// NewRemoteGuard creates an ANS-side guard; call Start to run it.
func NewRemoteGuard(cfg RemoteGuardConfig) (*RemoteGuard, error) { return guard.NewRemote(cfg) }

// MitigationConfig configures the guard's layered auto-mitigation selector:
// a state machine over the guard's own counters that climbs a fixed ladder
// of responses (passthrough → threshold → cookies → TCP fallback →
// per-source limits) with hysteresis, and descends when the attack stops.
type MitigationConfig = guard.MitigationConfig

// MitigationStats counts selector activity (escalations, de-escalations,
// flap holds, per-class interval tallies).
type MitigationStats = guard.MitigationStats

// MitigationState is a point-in-time snapshot of the selector, read with
// (*RemoteGuard).Mitigation.
type MitigationState = guard.MitigationState

// PacketIO is the guard's packet capture interface, read with ReadBatch,
// which NewRemoteGuard demands of each. A simulated host's tap
// (SimHost.OpenTap) is one as it is; a real socket is one through SocketIO.
type PacketIO = guard.PacketIO

// SocketIO adapts a bound UDP socket to PacketIO. Use it by pointer,
// &SocketIO{Conn: c}, one per socket: it owns the slab its reads fill.
type SocketIO = guard.SocketIO

// TCPProxyConfig configures the guard's TCP proxy.
type TCPProxyConfig = tcpproxy.Config

// TCPProxy terminates DNS-over-TCP for the protected ANS and relays
// requests over UDP (§III-C).
type TCPProxy = tcpproxy.Proxy

// NewTCPProxy creates a TCP proxy; call Start to run it.
func NewTCPProxy(cfg TCPProxyConfig) (*TCPProxy, error) { return tcpproxy.New(cfg) }

// Rate limiting --------------------------------------------------------------

// Limiter1Config configures Rate-Limiter1 (cookie responses; reflector
// protection).
type Limiter1Config = ratelimit.Limiter1Config

// Limiter2Config configures Rate-Limiter2 (per-host nominal rate for
// verified requesters).
type Limiter2Config = ratelimit.Limiter2Config

// Observability ---------------------------------------------------------------

// Metrics is a registry of named counters, gauges and latency histograms.
// Every long-running component (guards, resolver, LRS, ANS, TCP proxy, the
// simulator) has a MetricsInto method that registers its live counters on
// one; see DESIGN.md §9 for the naming scheme.
type Metrics = metrics.Registry

// MetricSample is one named value from a Metrics snapshot.
type MetricSample = metrics.Sample

// NewMetrics creates an empty metrics registry.
func NewMetrics() *Metrics { return metrics.NewRegistry() }

// ServeMetricsHealth serves the registry over HTTP on addr, a literal ip:port:
// /metrics is the deterministic "name value" text form, /debug/vars the
// expvar-style JSON object, and /healthz and /readyz are Kubernetes-style
// probes — nil probe results render as 200 "ok", errors as 503 with the error
// text (so curl explains why a site is out of rotation); nil funcs always
// pass. GET and HEAD only, one request per connection, no TLS. Close the
// returned listener to stop serving.
func ServeMetricsHealth(addr string, r *Metrics, healthz, readyz func() error) (netapi.Listener, error) {
	return metrics.ServeHealth(addr, r, healthz, readyz)
}

// DumpMetricsEvery writes a framed text snapshot of r to w every interval
// until stop is closed; the cmd/ daemons use it for periodic stderr dumps.
func DumpMetricsEvery(r *Metrics, interval time.Duration, w io.Writer, stop <-chan struct{}) {
	metrics.DumpEvery(r, interval, w, stop)
}

// Cost model ------------------------------------------------------------------

// Costs is the calibrated CPU cost model reproducing the paper's testbed.
type Costs = cpumodel.Costs

// DefaultCosts returns the constants calibrated against the paper's 2006
// testbed; see the cpumodel documentation for the derivation.
func DefaultCosts() Costs { return cpumodel.Default2006() }
