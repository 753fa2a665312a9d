package netapi

import "net/netip"

// Caps is the consolidated view of an Env's optional capabilities,
// discovered once by Capabilities. It replaces scattered type-asserts
// against QueueEnv / UDPReuseEnv / CooperativeEnv at every call site: code
// probes the environment a single time and then branches on plain fields.
//
// Capability matrix (see the package doc for the narrative):
//
//	capability        realnet                      netsim                       absent ⇒
//	----------        -------                      ------                       --------
//	NewQueue          absent                       vclock BoundedQueue          NewChanQueue (set unconditionally)
//	ListenUDPReuse    n SO_REUSEPORT sockets on    absent (one tap per host)    nil func: single-socket ingest only
//	                  Linux amd64/arm64, else one
//	Cooperative       false (OS goroutines)        true (coroutines, vclock)    false: OS blocking allowed
type Caps struct {
	// NewQueue constructs a scheduler-aware bounded Queue. Never nil: when
	// the Env does not implement QueueEnv this falls back to NewChanQueue,
	// which is correct for any preemptive environment.
	NewQueue func(capacity int) Queue
	// ListenUDPReuse binds n datagram endpoints to one address where the
	// environment steers a flow to one of them, and one endpoint where it
	// cannot (UDPReuseEnv). Nil when the Env has no multi-socket ingest.
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
	caps := Caps{NewQueue: NewChanQueue}
	if qe, ok := env.(QueueEnv); ok {
		caps.NewQueue = qe.NewQueue
	}
	if re, ok := env.(UDPReuseEnv); ok {
		caps.ListenUDPReuse = re.ListenUDPReuse
	}
	if ce, ok := env.(CooperativeEnv); ok {
		caps.Cooperative = ce.CooperativeScheduling()
	}
	return caps
}
