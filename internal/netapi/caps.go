package netapi

import "net/netip"

// Caps is the consolidated view of an Env's optional capabilities,
// discovered once by Capabilities. It replaces scattered type-asserts
// against UDPReuseEnv / CooperativeEnv at every call site: code probes the
// environment a single time and then branches on plain fields.
//
// Capability matrix (see the package doc for the narrative):
//
//	capability        realnet                      netsim                       absent ⇒
//	----------        -------                      ------                       --------
//	ListenUDPReuse    n SO_REUSEPORT sockets on    absent (Host.OpenTaps        nil func: one socket, one shard
//	                  Linux amd64/arm64; n > 1     splits a host's capture)
//	                  fails elsewhere
//	Cooperative       false (OS goroutines)        true (coroutines, vclock)    false: OS blocking allowed
type Caps struct {
	// ListenUDPReuse binds n datagram endpoints to one address where the
	// environment steers a flow to one of them (UDPReuseEnv). Nil when the
	// Env has no multi-socket ingest.
	ListenUDPReuse func(addr netip.AddrPort, n int) ([]UDPConn, error)
	// Cooperative reports that procs are cooperative coroutines on a
	// shared virtual clock and must never block through OS primitives
	// (CooperativeEnv semantics; false for preemptive environments).
	Cooperative bool
}

// Capabilities probes env for every optional capability and returns the
// consolidated Caps. It is cheap (a handful of type asserts) but callers are
// expected to invoke it once at setup, not per packet.
func Capabilities(env Env) Caps {
	var caps Caps
	if re, ok := env.(UDPReuseEnv); ok {
		caps.ListenUDPReuse = re.ListenUDPReuse
	}
	if ce, ok := env.(CooperativeEnv); ok {
		caps.Cooperative = ce.CooperativeScheduling()
	}
	return caps
}
